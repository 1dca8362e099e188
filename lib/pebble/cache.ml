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
   sizes pays the scan once.  next_read.(i) is the position of the next read
   of the cell accessed at position i, or max_int if the cell is overwritten
   (or never touched) before being re-read. *)
type opt_plan = { ptrace : Trace.t; next_read : int array }

let opt_plan ?(budget = Budget.unlimited) trace =
  let n = Trace.length trace and ncells = Trace.footprint trace in
  let cells = Trace.cells trace and wflags = Trace.write_flags trace in
  let next_read = Array.make (max n 1) max_int in
  let upcoming = Array.make (max ncells 1) max_int in
  (* scan backwards: upcoming.(c) = position of next read of c, or max_int
     if the next access is a write (dead value).  Unsafe indexing is in
     bounds: i < n, cell ids < ncells. *)
  let unlimited = Budget.is_unlimited budget in
  for i = n - 1 downto 0 do
    if not unlimited then Budget.checkpoint budget Budget.Cache_sim;
    let c = Array.unsafe_get cells i in
    Array.unsafe_set next_read i (Array.unsafe_get upcoming c);
    Array.unsafe_set upcoming c
      (if Array.unsafe_get wflags i then max_int else i)
  done;
  { ptrace = trace; next_read }

let opt_plan_trace plan = plan.ptrace

(* Forward pass.  The eviction heap is lazily invalidated (one entry per
   access), so unbounded it grows to O(T); we compact it away whenever the
   stale entries outnumber the live ones (at most [count], the cache
   occupancy) by 2x, which bounds the heap - and its peak - by
   O(size).  Compaction may reorder entries with equal keys, but in OPT the
   only equal keys are max_int (dead values): evicting one dead value
   rather than another never changes which future reads miss, so [loads]
   and [read_hits] are unaffected (dirty-eviction [stores] may shift among
   equally-optimal choices). *)
let opt_run_internal budget ~size ~flush plan =
  if size < 1 then invalid_arg "Cache.opt_run: size < 1";
  let trace = plan.ptrace and next_read = plan.next_read in
  let n = Trace.length trace and ncells = Trace.footprint trace in
  let in_cache = Array.make ncells false in
  let dirty = Array.make ncells false in
  let cur_next = Array.make ncells max_int in
  (* Max-heap over (next read position, cell), lazily invalidated.  Cells
     whose value is dead (next read = max_int) bypass the heap entirely: a
     dead cell always carries the maximum key, so OPT may evict it before
     any live one, and among dead cells the choice is free (see the
     compaction note above).  They go on an O(1) stack instead, which
     matters for kernels like MGS that overwrite most values right after
     the last read. *)
  let heap = Iolb_util.Maxheap.create () in
  let dead = ref (Array.make 64 0) in
  let ndead = ref 0 in
  let push_dead c =
    if !ndead = Array.length !dead then begin
      let bigger = Array.make (2 * !ndead) 0 in
      Array.blit !dead 0 bigger 0 !ndead;
      dead := bigger
    end;
    !dead.(!ndead) <- c;
    incr ndead
  in
  let count = ref 0 in
  let loads = ref 0 and stores = ref 0 and read_hits = ref 0 in
  let peak = ref 0 in
  (* Generation stamps dedup live-looking entries during compaction: a run
     of same-cell accesses with equal next_read (consecutive dead writes)
     leaves several entries that all match [cur_next]; keep one. *)
  let seen = Array.make ncells 0 in
  let gen = ref 0 in
  let compact () =
    incr gen;
    let g = !gen in
    let keep ~pos ~payload =
      if in_cache.(payload) && cur_next.(payload) = pos && seen.(payload) <> g
      then begin
        seen.(payload) <- g;
        true
      end
      else false
    in
    Iolb_util.Maxheap.compact heap ~keep;
    let d = !dead and kept = ref 0 in
    for i = 0 to !ndead - 1 do
      if keep ~pos:max_int ~payload:d.(i) then begin
        d.(!kept) <- d.(i);
        incr kept
      end
    done;
    ndead := !kept
  in
  let evict_one () =
    (* Dead cells first; entries are stale when the cell was re-accessed
       (its current next read is finite) or already evicted. *)
    let rec pick_dead () =
      if !ndead = 0 then None
      else begin
        decr ndead;
        let cell = !dead.(!ndead) in
        if in_cache.(cell) && cur_next.(cell) = max_int then Some cell
        else pick_dead ()
      end
    in
    let rec pick_heap () =
      let pos, cell = Iolb_util.Maxheap.pop heap in
      if in_cache.(cell) && cur_next.(cell) = pos then cell else pick_heap ()
    in
    let victim =
      match pick_dead () with Some c -> c | None -> pick_heap ()
    in
    in_cache.(victim) <- false;
    if dirty.(victim) then begin
      incr stores;
      dirty.(victim) <- false
    end;
    decr count
  in
  let cells = Trace.cells trace and wflags = Trace.write_flags trace in
  let unlimited = Budget.is_unlimited budget in
  (* Unsafe indexing is in bounds: i < n, cell ids < ncells. *)
  for i = 0 to n - 1 do
    if not unlimited then Budget.checkpoint budget Budget.Cache_sim;
    let c = Array.unsafe_get cells i in
    if Array.unsafe_get wflags i then begin
      if not (Array.unsafe_get in_cache c) then begin
        if !count >= size then evict_one ();
        Array.unsafe_set in_cache c true;
        incr count
      end;
      Array.unsafe_set dirty c true
    end
    else begin
      if Array.unsafe_get in_cache c then incr read_hits
      else begin
        incr loads;
        if !count >= size then evict_one ();
        Array.unsafe_set in_cache c true;
        incr count
      end
    end;
    let nr = Array.unsafe_get next_read i in
    Array.unsafe_set cur_next c nr;
    if nr = max_int then push_dead c
    else Iolb_util.Maxheap.push heap ~pos:nr ~payload:c;
    let len = Iolb_util.Maxheap.length heap + !ndead in
    if len > !peak then peak := len;
    if len > 64 && len > 3 * !count then compact ()
  done;
  if flush then
    for c = 0 to ncells - 1 do
      if in_cache.(c) && dirty.(c) then incr stores
    done;
  ( { loads = !loads; stores = !stores; read_hits = !read_hits; accesses = n },
    !peak )

let opt_run ?(budget = Budget.unlimited) ~size ?(flush = true) plan =
  fst (opt_run_internal budget ~size ~flush plan)

let opt ?budget ~size ?(flush = true) trace =
  opt_run ?budget ~size ~flush (opt_plan ?budget trace)

let opt_heap_peak ~size ?(flush = true) trace =
  snd
    (opt_run_internal Budget.unlimited ~size ~flush
       (opt_plan trace))
