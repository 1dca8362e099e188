module Trace = Iolb_pebble.Trace
module Cache = Iolb_pebble.Cache

let run ~size trace =
  let n = Trace.length trace and ncells = Trace.footprint trace in
  let cell i = Trace.cell_id trace i and write i = Trace.is_write trace i in
  (* key.(i): the next read of the cell accessed at i, or n + i *)
  let key = Array.make n 0 in
  let next_read = Array.make ncells None in
  for i = n - 1 downto 0 do
    let c = cell i in
    key.(i) <- (match next_read.(c) with Some j -> j | None -> n + i);
    next_read.(c) <- (if write i then None else Some i)
  done;
  (* cached.(0 .. count-1): the cells in fast memory, in no order *)
  let cached = Array.make (min size ncells) 0 and count = ref 0 in
  let current = Array.make ncells 0 and dirty = Array.make ncells false in
  let loads = ref 0 and stores = ref 0 and read_hits = ref 0 in
  let rec is_cached c k =
    k < !count && (cached.(k) = c || is_cached c (k + 1))
  in
  let evict_into c =
    let victim = ref 0 in
    for k = 1 to !count - 1 do
      if current.(cached.(k)) > current.(cached.(!victim)) then victim := k
    done;
    let v = cached.(!victim) in
    if dirty.(v) then begin
      incr stores;
      dirty.(v) <- false
    end;
    cached.(!victim) <- c
  in
  for i = 0 to n - 1 do
    let c = cell i in
    if is_cached c 0 then (if not (write i) then incr read_hits)
    else begin
      if not (write i) then incr loads;
      if !count < size then begin
        cached.(!count) <- c;
        incr count
      end
      else evict_into c
    end;
    current.(c) <- key.(i);
    if write i then dirty.(c) <- true
  done;
  (* the final flush *)
  for k = 0 to !count - 1 do
    if dirty.(cached.(k)) then incr stores
  done;
  {
    Cache.loads = !loads;
    stores = !stores;
    read_hits = !read_hits;
    accesses = n;
  }
