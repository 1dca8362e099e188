(* Cache simulators over interned traces: compulsory misses, LRU on an
   intrusive list, and Belady's OPT on [Next_use_heap], the eviction heap
   it shares with the compiled pebble game. *)

module Budget = Iolb_util.Budget

type stats = { loads : int; stores : int; read_hits : int; accesses : int }

let io s = s.loads + s.stores

let pp_stats fmt s =
  Format.fprintf fmt "loads=%d stores=%d hits=%d accesses=%d io=%d" s.loads
    s.stores s.read_hits s.accesses (io s)

(* Traces arrive pre-interned (dense cell ids, flat arrays), so the
   simulators run on int keys with no per-call hashing at all. *)

let cold trace =
  let n = Trace.length trace and ncells = Trace.footprint trace in
  let present = Array.make ncells false in
  let dirty = Array.make ncells false in
  let loads = ref 0 and read_hits = ref 0 in
  for i = 0 to n - 1 do
    let c = Trace.cell_id trace i in
    if Trace.is_write trace i then begin
      present.(c) <- true;
      dirty.(c) <- true
    end
    else if present.(c) then incr read_hits
    else begin
      incr loads;
      present.(c) <- true
    end
  done;
  let stores = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 dirty in
  { loads = !loads; stores; read_hits = !read_hits; accesses = n }

(* LRU with an intrusive doubly-linked list over cell ids.

   The per-event loop indexes the trace's raw arrays and the per-cell
   state with [Array.unsafe_get]/[unsafe_set]: event indices are
   [0 .. n-1] with [n = Trace.length], and cell ids are
   [0 .. ncells-1] by the interner's density invariant, which is exactly
   how the state arrays are sized. *)
let lru ?(budget = Budget.unlimited) ~size ?(flush = true) trace =
  if size < 1 then invalid_arg "Cache.lru: size < 1";
  let n = Trace.length trace and ncells = Trace.footprint trace in
  let cells = Trace.cells trace and wflags = Trace.write_flags trace in
  let prev = Array.make ncells (-1) and next = Array.make ncells (-1) in
  let in_cache = Array.make ncells false in
  let dirty = Array.make ncells false in
  let head = ref (-1) (* most recent *) and tail = ref (-1) (* least recent *) in
  let count = ref 0 in
  let unlink c =
    let p = Array.unsafe_get prev c and n = Array.unsafe_get next c in
    if p >= 0 then Array.unsafe_set next p n else head := n;
    if n >= 0 then Array.unsafe_set prev n p else tail := p;
    Array.unsafe_set prev c (-1);
    Array.unsafe_set next c (-1)
  in
  let push_front c =
    Array.unsafe_set prev c (-1);
    Array.unsafe_set next c !head;
    if !head >= 0 then Array.unsafe_set prev !head c;
    head := c;
    if !tail < 0 then tail := c
  in
  let loads = ref 0 and stores = ref 0 and read_hits = ref 0 in
  let evict_one () =
    let victim = !tail in
    unlink victim;
    Array.unsafe_set in_cache victim false;
    if Array.unsafe_get dirty victim then begin
      incr stores;
      Array.unsafe_set dirty victim false
    end;
    decr count
  in
  let touch c =
    if Array.unsafe_get in_cache c then begin
      unlink c;
      push_front c
    end
    else begin
      if !count >= size then evict_one ();
      Array.unsafe_set in_cache c true;
      incr count;
      push_front c
    end
  in
  let unlimited = Budget.is_unlimited budget in
  for i = 0 to n - 1 do
    if not unlimited then Budget.checkpoint budget Budget.Cache_sim;
    let c = Array.unsafe_get cells i in
    if Array.unsafe_get wflags i then begin
      touch c;
      Array.unsafe_set dirty c true
    end
    else begin
      if Array.unsafe_get in_cache c then incr read_hits else incr loads;
      touch c
    end
  done;
  if flush then
    for c = 0 to ncells - 1 do
      if in_cache.(c) && dirty.(c) then incr stores
    done;
  { loads = !loads; stores = !stores; read_hits = !read_hits; accesses = n }

(* Belady's OPT is split into a size-independent plan (the backward
   next-read scan, O(T)) and a per-size forward run, so a sweep over many
   sizes pays the scan once.  key.(i) is the eviction key of the value the
   cell accessed at position i holds after the access: the position of its
   next read, or [n + i] when it is overwritten (or never touched) before
   being re-read.  A dead key is above every live one, and the most
   recently dead value has the largest; every key is unique, so the run's
   stores, not only its loads, depend on the trace and size alone. *)
type opt_plan = { ptrace : Trace.t; key : int array }

let opt_plan ?(budget = Budget.unlimited) trace =
  let n = Trace.length trace and ncells = Trace.footprint trace in
  let cells = Trace.cells trace and wflags = Trace.write_flags trace in
  let key = Array.make n 0 in
  (* scan backwards: upcoming.(c) = position of the next read of c, or -1
     if the next access is a write (dead value).  Unsafe indexing is in
     bounds: i < n, cell ids < ncells. *)
  let upcoming = Array.make ncells (-1) in
  let unlimited = Budget.is_unlimited budget in
  for i = n - 1 downto 0 do
    if not unlimited then Budget.checkpoint budget Budget.Cache_sim;
    let c = Array.unsafe_get cells i in
    let next = Array.unsafe_get upcoming c in
    Array.unsafe_set key i (if next >= 0 then next else n + i);
    Array.unsafe_set upcoming c (if Array.unsafe_get wflags i then -1 else i)
  done;
  { ptrace = trace; key }

let opt_plan_trace plan = plan.ptrace

(* Forward pass over a [Next_use_heap] of the cached cells, [Game]'s
   eviction structure.  A hit re-keys the cell to key.(i): up from i, the
   smallest key in the heap, for a read; either way for a write over a
   dead value.  A miss at capacity evicts the top, the value read
   furthest in the future (a dead one first).  Returns the stats and the
   final occupancy: a cell leaves only to make room for another, so that
   is the heap's high-water mark, at most [min size footprint]. *)
let opt_run_internal budget ~size ~flush plan =
  if size < 1 then invalid_arg "Cache.opt_run: size < 1";
  let trace = plan.ptrace and keys = plan.key in
  let n = Trace.length trace and ncells = Trace.footprint trace in
  let heap = Next_use_heap.create ~capacity:(min size ncells) ~items:ncells in
  let slot = heap.Next_use_heap.slot in
  let dirty = Array.make ncells false in
  let loads = ref 0 and stores = ref 0 and read_hits = ref 0 in
  let cells = Trace.cells trace and wflags = Trace.write_flags trace in
  let unlimited = Budget.is_unlimited budget in
  (* Unsafe indexing is in bounds: i < n, cell ids < ncells. *)
  for i = 0 to n - 1 do
    if not unlimited then Budget.checkpoint budget Budget.Cache_sim;
    let c = Array.unsafe_get cells i and key = Array.unsafe_get keys i in
    let write = Array.unsafe_get wflags i in
    if Array.unsafe_get slot c >= 0 then begin
      if not write then incr read_hits;
      Next_use_heap.update heap c ~key
    end
    else begin
      if not write then incr loads;
      if heap.len < size then Next_use_heap.insert heap c ~key
      else begin
        let victim = Next_use_heap.replace_top heap c ~key in
        if Array.unsafe_get dirty victim then begin
          incr stores;
          Array.unsafe_set dirty victim false
        end
      end
    end;
    if write then Array.unsafe_set dirty c true
  done;
  if flush then
    for c = 0 to ncells - 1 do
      if slot.(c) >= 0 && dirty.(c) then incr stores
    done;
  ( { loads = !loads; stores = !stores; read_hits = !read_hits; accesses = n },
    heap.len )

let opt_run ?(budget = Budget.unlimited) ~size ?(flush = true) plan =
  fst (opt_run_internal budget ~size ~flush plan)

let opt ?budget ~size ?(flush = true) trace =
  opt_run ?budget ~size ~flush (opt_plan ?budget trace)

let opt_heap_peak ~size ?(flush = true) trace =
  snd (opt_run_internal Budget.unlimited ~size ~flush (opt_plan trace))
