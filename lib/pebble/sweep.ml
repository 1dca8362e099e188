module Budget = Iolb_util.Budget
module Pool = Iolb_util.Pool
module Cplan = Iolb_ir.Cplan

(* Single-pass LRU cache sweep via reuse (stack) distances, after Mattson
   et al. 1970.  LRU has the inclusion property: the content of a cache of
   size S is always a subset of the content of a cache of size S+1 (the S
   most recently used distinct cells).  A read therefore hits at size S iff
   its reuse distance d - the number of distinct other cells accessed since
   the previous access of the same cell - satisfies d < S, so one pass
   computing every access's distance answers every size at once.

   There is one engine ([Core]).  Each cell's most recent access holds one
   mark, so the number of marks above a cell's mark - the distinct cells
   touched since - is its reuse distance.  The marks are a bitset, 32
   positions to a word, and a Fenwick (binary indexed) tree counts them
   per word.  Mark positions are compacted to the footprint (Olken): they
   are renumbered when the position space runs out, so both follow the
   number of distinct cells, not the trace length - O(T log F) time, O(F)
   space.

   Write-back stores are recovered from the same distances.  The simulator
   semantics (Cache.lru) are write-allocate-no-fetch: a write dirties the
   cell for every size; a dirty cell evicted at size S is stored; the final
   flush stores cells still dirty in cache.  Per cell we track a "dirty
   epoch": [mval] is the maximum distance observed at its accesses since
   its last write.  At an access with distance d, sizes S <= mval already
   evicted (and stored) the dirty data earlier in the epoch, while sizes
   S > d still hold the cell; exactly the sizes in (mval, d] evict the
   dirty cell now, so each access contributes one store on that interval of
   sizes, accumulated in a difference array.  A write resets the epoch
   (mval := 0: dirty again everywhere); a read raises mval to d (sizes
   <= d now hold a clean reloaded copy).  At end of trace the final flush
   closes the epoch on (mval, ncells]: every size past mval still holds
   the dirty cell, or evicted and stored it.

   The pass runs over contiguous time segments of the trace:
   - [pass] consumes one segment and produces (a) exact local tallies for
     every access whose previous access lies in the same segment, and (b)
     a per-cell boundary summary for the one access per cell whose
     distance crosses the segment start (PARDA-style time partitioning; an
     address partition cannot be exact for fully-associative LRU, whose
     distances mix all addresses - the address-hashed split is the SAMPLED
     mode below).
   - [merge_segment] folds the summaries left to right through a global
     [Core], resolving each boundary distance and replaying the
     dirty-epoch algebra, which collapses a segment's unresolved prefix to
     one store interval.  The result is bit-for-bit the same for any
     segment partition - hence byte-identical output at any [--jobs]
     width.
   A sequential sweep of a materialized trace is the one-segment case.  One
   shard driver ([drive]) serves the materialized trace and the compiled
   plan's numbered walk ({!Cplan.iter}): both hand a shard its cells under
   first-occurrence ids. *)

type t = {
  accesses : int;
  ncells : int;
  reads_total : int;
  hits_at : int array; (* hits_at.(s), s in 0..ncells: read hits at size s *)
  stores_at : int array; (* stores_at.(s): write-back stores at size s *)
  dist_hist : int array; (* dist_hist.(d), d in 0..ncells-1: finite-distance reads *)
}

let footprint t = t.ncells
let accesses t = t.accesses
let distance_histogram t = Array.copy t.dist_hist

let stats t ~size =
  if size < 1 then invalid_arg "Sweep.stats: size < 1";
  (* A cache at least as large as the footprint never evicts: sizes above
     [ncells] coincide with [ncells]. *)
  let s = min size t.ncells in
  {
    Cache.loads = t.reads_total - t.hits_at.(s);
    stores = t.stores_at.(s);
    read_hits = t.hits_at.(s);
    accesses = t.accesses;
  }

module Core = struct
  (* Live marks as a bitset over COMPACTED positions, with a Fenwick tree
     over its words' counts: [pos.(id)] is the mark of [id] (-1 when
     unmarked), more recently touched ids have larger positions, and bit
     [p land 31] of [words.(p lsr 5)] is set iff position [p] holds a
     mark.  Each word holds 32 positions, so the tree has a 32nd of the
     positions' entries and both arrays stay cache-resident at footprints
     where a position-level tree would not.  The number of marks above
     [p] is the popcount of its own word above it plus a tree sum over
     the words above.  When the position space runs out the live marks
     are renumbered 0..marked-1, each to its rank (the marks in the words
     below plus a popcount), by one scan of [pos]; the new capacity is at
     least 4x marked (and at least nids), so renumbering is amortized O(1)
     per touch.

     [clean_above] is the stack's hole-free top: every position in
     [clean_above, next) is marked.  Touching appends at [next], which
     extends the clean region; only re-touching a cell INSIDE the region
     punches a hole there (restarting the region just above it), so for
     the dominant near-reuse accesses the stack depth is the closed form
     [next - 1 - pos] - no tree query at all.  Deeper accesses sum the
     words above by a range walk, or from the far end by one prefix sum
     (more than 4096 positions down). *)
  type t = {
    mutable words : int array; (* cap / 32 words of 32 marks each *)
    mutable bit : int array; (* length cap / 32 + 1, 1-based word counts *)
    mutable cap : int; (* positions, a multiple of 32 *)
    mutable next : int; (* next free 0-based position *)
    mutable marked : int;
    mutable clean_above : int; (* positions [clean_above, next) all marked *)
    mutable pos : int array; (* per id: 0-based position or -1 *)
    mutable nids : int;
  }

  let create () =
    { words = Array.make 2 0; bit = Array.make 3 0; cap = 64; next = 0;
      marked = 0; clean_above = 0; pos = Array.make 64 (-1); nids = 0 }

  let marked t = t.marked

  (* set bits of a 32-bit word (SWAR) *)
  let popcount x =
    let x = x - ((x lsr 1) land 0x55555555) in
    let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
    let x = (x + (x lsr 4)) land 0x0f0f0f0f in
    ((x * 0x01010101) lsr 24) land 0xff

  let bit_add t i v =
    let bit = t.bit and n = t.cap lsr 5 in
    let i = ref i in
    while !i <= n do
      Array.unsafe_set bit !i (Array.unsafe_get bit !i + v);
      i := !i + (!i land - !i)
    done

  let bit_sum t i =
    let bit = t.bit in
    let i = ref i and acc = ref 0 in
    while !i > 0 do
      acc := !acc + Array.unsafe_get bit !i;
      i := !i land (!i - 1)
    done;
    !acc

  (* Marks in 1-based words (j, i] = sum(i) - sum(j), as one dual
     descending walk that stops at the common Fenwick ancestor: the probe
     count follows log(i - j), not log(i), and the probed nodes sit in
     the recently-touched top of the tree.  This is what makes mid-depth
     reuse (the bulk of a loop nest's column traffic) cheap. *)
  let bit_range t j i =
    let bit = t.bit in
    let i = ref i and j = ref j and acc = ref 0 in
    while !i <> !j do
      if !i > !j then begin
        acc := !acc + Array.unsafe_get bit !i;
        i := !i land (!i - 1)
      end
      else begin
        acc := !acc - Array.unsafe_get bit !j;
        j := !j land (!j - 1)
      end
    done;
    !acc

  (* Move a mark from 1-based word [p] to word [q > p], in one pass: the
     two up-walks merge at the lowest common Fenwick ancestor, where -1
     and +1 cancel and the walk stops.  For near-top moves - the common
     case - the merge happens within a step or two. *)
  let bit_move t p q =
    let bit = t.bit and n = t.cap lsr 5 in
    let i = ref p and j = ref q in
    let continue = ref true in
    while !continue do
      if !i < !j then
        if !i <= n then begin
          Array.unsafe_set bit !i (Array.unsafe_get bit !i - 1);
          i := !i + (!i land - !i)
        end
        else i := max_int
      else if !j < !i then
        if !j <= n then begin
          Array.unsafe_set bit !j (Array.unsafe_get bit !j + 1);
          j := !j + (!j land - !j)
        end
        else j := max_int
      else continue := false (* merged (or both past the end): deltas cancel *)
    done

  let ensure_id t id =
    if id >= Array.length t.pos then begin
      let p = Array.make (max (id + 1) (2 * Array.length t.pos)) (-1) in
      Array.blit t.pos 0 p 0 (Array.length t.pos);
      t.pos <- p
    end;
    if id >= t.nids then t.nids <- id + 1

  (* Marks above the marked position [p]. *)
  let above t p =
    if p >= t.clean_above then t.next - 1 - p
    else begin
      let w = p lsr 5 in
      let own = popcount (Array.unsafe_get t.words w lsr ((p land 31) + 1)) in
      if t.next - p <= 4096 then
        own + bit_range t (w + 1) (((t.next - 1) lsr 5) + 1)
      else own + t.marked - bit_sum t (w + 1)
    end

  let clear t p =
    let w = p lsr 5 in
    Array.unsafe_set t.words w
      (Array.unsafe_get t.words w land lnot (1 lsl (p land 31)));
    if p >= t.clean_above then t.clean_above <- p + 1

  let set t q =
    let w = q lsr 5 in
    Array.unsafe_set t.words w
      (Array.unsafe_get t.words w lor (1 lsl (q land 31)))

  (* Number of ids whose mark is more recent than [id]'s - the stack
     depth of [id] - or -1 if [id] is unmarked. *)
  let dist t id =
    if id >= t.nids then -1
    else
      let p = Array.unsafe_get t.pos id in
      if p < 0 then -1 else above t p

  let remove t id =
    if id < t.nids then begin
      let p = t.pos.(id) in
      if p >= 0 then begin
        clear t p;
        bit_add t ((p lsr 5) + 1) (-1);
        t.pos.(id) <- -1;
        t.marked <- t.marked - 1
      end
    end

  (* [f id r] for every marked id, [r] its rank among the marks from the
     bottom: the marks in the words below its own plus those below it in
     its word *)
  let iter_ranks t f =
    let words = t.words in
    let nw = (t.next + 31) lsr 5 in
    let below = Array.make (max nw 1) 0 in
    for w = 1 to nw - 1 do
      below.(w) <- below.(w - 1) + popcount words.(w - 1)
    done;
    let pos = t.pos in
    for id = 0 to t.nids - 1 do
      let p = Array.unsafe_get pos id in
      if p >= 0 then
        let w = p lsr 5 in
        f id
          (Array.unsafe_get below w
          + popcount (Array.unsafe_get words w land ((1 lsl (p land 31)) - 1)))
    done

  let renumber t =
    let pos = t.pos in
    iter_ranks t (fun id r -> Array.unsafe_set pos id r);
    let k = t.marked in
    let cap = (max 64 (max (4 * k) t.nids) + 31) land lnot 31 in
    let nw = cap lsr 5 in
    if cap <> t.cap then begin
      t.words <- Array.make nw 0;
      t.bit <- Array.make (nw + 1) 0;
      t.cap <- cap
    end
    else begin
      Array.fill t.words 0 nw 0;
      Array.fill t.bit 0 (nw + 1) 0
    end;
    t.next <- k;
    t.clean_above <- 0;
    (* every position below [k] is marked: full words, then a partial one,
       and the tree bottom-up (bit.(i) counts the marks in its span) *)
    let words = t.words and bit = t.bit in
    for w = 0 to (k lsr 5) - 1 do words.(w) <- 0xffffffff done;
    if k land 31 <> 0 then words.(k lsr 5) <- (1 lsl (k land 31)) - 1;
    for i = 1 to nw do
      let lo = 32 * (i - (i land (-i))) in
      if lo < k then bit.(i) <- min (32 * i) k - lo
    done

  let touch t id =
    ensure_id t id;
    remove t id;
    if t.next = t.cap then renumber t;
    set t t.next;
    bit_add t ((t.next lsr 5) + 1) 1;
    t.pos.(id) <- t.next;
    t.next <- t.next + 1;
    t.marked <- t.marked + 1

  (* [dist t id] followed by [touch t id], fused, for an id that is
     already marked (every non-first access is).  Top of stack: distance
     0, nothing moves.  Otherwise the mark moves to [next], and the tree
     changes only when that crosses into another word. *)
  let dist_touch t id =
    let p = Array.unsafe_get t.pos id in
    if p = t.next - 1 then 0
    else begin
      let d = above t p in
      if t.next = t.cap then touch t id
      else begin
        clear t p;
        if p lsr 5 <> t.next lsr 5 then
          bit_move t ((p lsr 5) + 1) ((t.next lsr 5) + 1);
        set t t.next;
        Array.unsafe_set t.pos id t.next;
        t.next <- t.next + 1
      end;
      d
    end

  (* marked ids, least recently touched first, each placed at its rank *)
  let marked_order t =
    let order = Array.make t.marked 0 in
    iter_ranks t (fun id r -> Array.unsafe_set order r id);
    order
end

(* ------------------------------------------------------------------ *)
(* Per-segment pass.  Cells carry shard-LOCAL dense ids assigned in    *)
(* first-occurrence order (producers guarantee this; [pass_event]      *)
(* recognizes a new cell by [c = nloc]).  For every access other than  *)
(* a cell's first, both endpoints of the reuse interval lie in the     *)
(* segment, so its distance - and hence its histogram entry and, once  *)
(* the cell has seen an in-segment write, its store interval - is      *)
(* exact and accumulated locally.  The first access per cell only      *)
(* records what the merge needs to resolve it: the local distinct      *)
(* count before it ([dloc]), and the running maximum distance of the   *)
(* accesses in the unresolved prefix before the first in-segment       *)
(* write ([defm]), which is all the dirty-epoch algebra requires       *)
(* because consecutive store intervals of one epoch tile: their union  *)
(* is determined by the maximum. *)

type pass = {
  p_budget : Budget.t;
  p_unlimited : bool;
  p_core : Core.t;
  mutable p_n : int; (* local cells seen *)
  mutable p_first_w : bool array; (* first in-segment access is a write *)
  mutable p_dloc : int array; (* distinct cells before first access *)
  mutable p_defm : int array; (* max distance in unresolved prefix, -1 none *)
  mutable p_seghw : bool array; (* a write occurred in this segment *)
  mutable p_mval : int array; (* dirty-epoch mval, valid once p_seghw *)
  mutable p_hist : int array; (* exact local distance histogram *)
  mutable p_sdiff : int array; (* exact local store-interval diff array *)
  mutable p_reads : int;
  mutable p_events : int;
}

let pass_create budget =
  {
    p_budget = budget;
    p_unlimited = Budget.is_unlimited budget;
    p_core = Core.create ();
    p_n = 0;
    p_first_w = Array.make 64 false;
    p_dloc = Array.make 64 0;
    p_defm = Array.make 64 (-1);
    p_seghw = Array.make 64 false;
    p_mval = Array.make 64 0;
    p_hist = Array.make 65 0;
    p_sdiff = Array.make 66 0;
    p_reads = 0;
    p_events = 0;
  }

let pass_grow ps =
  let cap = Array.length ps.p_first_w in
  if ps.p_n = cap then begin
    let ncap = 2 * cap in
    let gb a = let n = Array.make ncap false in Array.blit a 0 n 0 cap; n in
    let gi init a = let n = Array.make ncap init in Array.blit a 0 n 0 cap; n in
    ps.p_first_w <- gb ps.p_first_w;
    ps.p_seghw <- gb ps.p_seghw;
    ps.p_dloc <- gi 0 ps.p_dloc;
    ps.p_mval <- gi 0 ps.p_mval;
    ps.p_defm <- gi (-1) ps.p_defm;
    (let n = Array.make (ncap + 1) 0 in
     Array.blit ps.p_hist 0 n 0 (Array.length ps.p_hist);
     ps.p_hist <- n);
    (let n = Array.make (ncap + 2) 0 in
     Array.blit ps.p_sdiff 0 n 0 (Array.length ps.p_sdiff);
     ps.p_sdiff <- n)
  end

let pass_event ps c w =
  if not ps.p_unlimited then Budget.checkpoint ps.p_budget Budget.Cache_sim;
  ps.p_events <- ps.p_events + 1;
  if c = ps.p_n then begin
    (* first in-segment access of this cell *)
    pass_grow ps;
    ps.p_n <- c + 1;
    Array.unsafe_set ps.p_first_w c w;
    Array.unsafe_set ps.p_dloc c (Core.marked ps.p_core);
    if w then begin
      Array.unsafe_set ps.p_seghw c true;
      Array.unsafe_set ps.p_mval c 0
    end
    else ps.p_reads <- ps.p_reads + 1;
    Core.touch ps.p_core c
  end
  else begin
    let d = Core.dist_touch ps.p_core c in
    (* indices are in bounds by construction: [d <= marked - 1 < p_n],
       [p_hist] has [p_n + 1] slots and [p_sdiff] [p_n + 2] *)
    if w then
      if Array.unsafe_get ps.p_seghw c then begin
        let m = Array.unsafe_get ps.p_mval c in
        if m + 1 <= d then begin
          let sdiff = ps.p_sdiff in
          Array.unsafe_set sdiff (m + 1) (Array.unsafe_get sdiff (m + 1) + 1);
          Array.unsafe_set sdiff (d + 1) (Array.unsafe_get sdiff (d + 1) - 1)
        end;
        Array.unsafe_set ps.p_mval c 0
      end
      else begin
        (* first in-segment write: close the unresolved prefix *)
        if d > Array.unsafe_get ps.p_defm c then Array.unsafe_set ps.p_defm c d;
        Array.unsafe_set ps.p_seghw c true;
        Array.unsafe_set ps.p_mval c 0
      end
    else begin
      ps.p_reads <- ps.p_reads + 1;
      let hist = ps.p_hist in
      Array.unsafe_set hist d (Array.unsafe_get hist d + 1);
      if Array.unsafe_get ps.p_seghw c then begin
        let m = Array.unsafe_get ps.p_mval c in
        if m + 1 <= d then begin
          let sdiff = ps.p_sdiff in
          Array.unsafe_set sdiff (m + 1) (Array.unsafe_get sdiff (m + 1) + 1);
          Array.unsafe_set sdiff (d + 1) (Array.unsafe_get sdiff (d + 1) - 1)
        end;
        if d > m then Array.unsafe_set ps.p_mval c d
      end
      else if d > Array.unsafe_get ps.p_defm c then
        Array.unsafe_set ps.p_defm c d
    end
  end

(* ------------------------------------------------------------------ *)
(* Merge.  Segments are folded left to right; [g] holds the global    *)
(* LRU stack at the current segment boundary.  Resolving a segment's  *)
(* per-cell summaries in first-occurrence order while REMOVING each   *)
(* resolved cell from [g] makes the boundary distance exact: cells    *)
(* already resolved are precisely the ones counted by the local       *)
(* distinct count [dloc], so what remains above the cell in [g] is    *)
(* what [dloc] missed.  Afterwards every cell the segment touched is  *)
(* re-inserted in last-access order, restoring the stack at the next  *)
(* boundary.                                                          *)

type gstate = {
  g_budget : Budget.t;
  g_unlimited : bool;
  g : Core.t;
  mutable g_n : int; (* distinct cells seen so far *)
  mutable g_hw : bool array;
  mutable g_mval : int array;
  mutable g_hist : int array;
  mutable g_sdiff : int array;
  mutable g_reads : int;
}

let gstate_create budget =
  {
    g_budget = budget;
    g_unlimited = Budget.is_unlimited budget;
    g = Core.create ();
    g_n = 0;
    g_hw = Array.make 64 false;
    g_mval = Array.make 64 0;
    g_hist = Array.make 65 0;
    g_sdiff = Array.make 66 0;
    g_reads = 0;
  }

let gstate_ensure gs n =
  let cap = Array.length gs.g_hw in
  if n > cap then begin
    let ncap = max n (2 * cap) in
    (let a = Array.make ncap false in
     Array.blit gs.g_hw 0 a 0 cap;
     gs.g_hw <- a);
    (let a = Array.make ncap 0 in
     Array.blit gs.g_mval 0 a 0 cap;
     gs.g_mval <- a);
    (let a = Array.make (ncap + 1) 0 in
     Array.blit gs.g_hist 0 a 0 (Array.length gs.g_hist);
     gs.g_hist <- a);
    (let a = Array.make (ncap + 2) 0 in
     Array.blit gs.g_sdiff 0 a 0 (Array.length gs.g_sdiff);
     gs.g_sdiff <- a)
  end

let gs_add_store gs lo hi =
  if lo <= hi then begin
    gs.g_sdiff.(lo) <- gs.g_sdiff.(lo) + 1;
    gs.g_sdiff.(hi + 1) <- gs.g_sdiff.(hi + 1) - 1
  end

(* [gids.(c)] is the global id of the segment's local cell [c]. *)
let merge_segment gs gids ps =
  let maxg = Array.fold_left max (-1) gids in
  gstate_ensure gs (maxg + 1);
  if maxg >= gs.g_n then gs.g_n <- maxg + 1;
  (* exact local tallies transfer as-is: local distances are true
     distances, and store intervals live in the absolute size domain *)
  gs.g_reads <- gs.g_reads + ps.p_reads;
  for d = 0 to ps.p_n - 1 do
    gs.g_hist.(d) <- gs.g_hist.(d) + ps.p_hist.(d)
  done;
  for s = 0 to ps.p_n + 1 do
    gs.g_sdiff.(s) <- gs.g_sdiff.(s) + ps.p_sdiff.(s)
  done;
  (* boundary resolution, in first-occurrence order *)
  for c = 0 to ps.p_n - 1 do
    if not gs.g_unlimited then Budget.checkpoint gs.g_budget Budget.Cache_sim;
    let gid = gids.(c) in
    let gd = Core.dist gs.g gid in
    if gd >= 0 then begin
      (* warm: the first in-segment access has distance dloc + gd *)
      Core.remove gs.g gid;
      let d1 = ps.p_dloc.(c) + gd in
      if ps.p_first_w.(c) then begin
        if gs.g_hw.(gid) then gs_add_store gs (gs.g_mval.(gid) + 1) d1;
        gs.g_hw.(gid) <- true;
        gs.g_mval.(gid) <- ps.p_mval.(c)
      end
      else begin
        gs.g_hist.(d1) <- gs.g_hist.(d1) + 1;
        if gs.g_hw.(gid) then begin
          (* the unresolved prefix is one epoch continuing the incoming
             one; its store intervals tile up to the running maximum *)
          let m = max gs.g_mval.(gid) (max d1 ps.p_defm.(c)) in
          gs_add_store gs (gs.g_mval.(gid) + 1) m;
          gs.g_mval.(gid) <-
            (if ps.p_seghw.(c) then ps.p_mval.(c) else m)
        end
        else if ps.p_seghw.(c) then begin
          gs.g_hw.(gid) <- true;
          gs.g_mval.(gid) <- ps.p_mval.(c)
        end
      end
    end
    else if ps.p_seghw.(c) then begin
      (* globally cold first access: no distance, no boundary store *)
      gs.g_hw.(gid) <- true;
      gs.g_mval.(gid) <- ps.p_mval.(c)
    end
  done;
  (* restore the stack at the segment's end *)
  let order = Core.marked_order ps.p_core in
  Array.iter (fun c -> Core.touch gs.g gids.(c)) order

let merge_finish gs ~accesses =
  let ncells = gs.g_n in
  (* close the dirty epochs at the final flush *)
  for gid = 0 to ncells - 1 do
    if not gs.g_unlimited then Budget.checkpoint gs.g_budget Budget.Cache_sim;
    if gs.g_hw.(gid) then gs_add_store gs (gs.g_mval.(gid) + 1) ncells
  done;
  let hits_at = Array.make (ncells + 1) 0 in
  let stores_at = Array.make (ncells + 1) 0 in
  for s = 1 to ncells do
    hits_at.(s) <- hits_at.(s - 1) + gs.g_hist.(s - 1);
    stores_at.(s) <- stores_at.(s - 1) + gs.g_sdiff.(s)
  done;
  {
    accesses;
    ncells;
    reads_total = gs.g_reads;
    hits_at;
    stores_at;
    dist_hist = (if ncells = 0 then [||] else Array.sub gs.g_hist 0 ncells);
  }

(* ------------------------------------------------------------------ *)
(* The shard driver.  [shard ps ~lo ~hi] feeds events [lo, hi) to the  *)
(* fresh pass [ps] under shard-local first-occurrence ids (the id      *)
(* discipline [pass_event] expects) and returns the shard's cells;     *)
(* [globalize] maps each shard's local ids to global first-occurrence  *)
(* ids, given the shards in segment order.                             *)

let drive ~budget ~jobs ~n ~shard ~globalize =
  if jobs < 1 then invalid_arg "Sweep: jobs < 1";
  let parts =
    Pool.map ~jobs
      (fun (lo, hi) ->
        (* checkpoints poll the clock once per stride; check the deadline
           outright at shard entry so an expired budget kills the fan-out
           before any work *)
        if not (Budget.is_unlimited budget) then
          Budget.check_deadline budget Budget.Cache_sim;
        let ps = pass_create budget in
        let cells = shard ps ~lo ~hi in
        (cells, ps))
      (Pool.split ~shards:jobs n)
  in
  let gs = gstate_create budget in
  List.iter2
    (fun gids (_, ps) -> merge_segment gs gids ps)
    (globalize (List.map fst parts))
    parts;
  merge_finish gs ~accesses:n

(* Trace ids already are the global first-occurrence ids, so a shard
   only numbers them locally: a new cell gets the pass's next local id,
   and the table read back gives each local id its trace id. *)
let run ?(budget = Budget.unlimited) ?(jobs = 1) trace =
  let cells = Trace.cells trace and wflags = Trace.write_flags trace in
  let space = max 1 (Trace.footprint trace) in
  drive ~budget ~jobs ~n:(Trace.length trace) ~globalize:Fun.id
    ~shard:(fun ps ~lo ~hi ->
      let local = Array.make space (-1) in
      for i = lo to hi - 1 do
        let g = Array.unsafe_get cells i in
        let c = Array.unsafe_get local g in
        let c =
          if c >= 0 then c
          else begin
            local.(g) <- ps.p_n;
            ps.p_n
          end
        in
        pass_event ps c (Array.unsafe_get wflags i)
      done;
      let gids = Array.make ps.p_n 0 in
      Array.iteri (fun g c -> if c >= 0 then gids.(c) <- g) local;
      gids)

(* The node cap holds for the whole stream, before the fan-out. *)
let run_walk ~budget ~jobs plan =
  let n = Cplan.n_accesses plan in
  if not (Budget.is_unlimited budget) then
    Budget.check_node_cap budget Budget.Cdag_build (Cplan.n_instances plan);
  drive ~budget ~jobs ~n ~globalize:(Cplan.globalize plan)
    ~shard:(fun ps ~lo ~hi ->
      Cplan.iter plan ~budget ~lo ~hi ~on_access:(fun id w ->
          pass_event ps id w))

let run_program ?(budget = Budget.unlimited) ?jobs ~params prog =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  run_walk ~budget ~jobs (Cplan.make ~params prog)

let run_program_stream = run_program

(* ------------------------------------------------------------------ *)
(* Sampled sweeps (SHARDS).  Cells are kept iff their spatial hash     *)
(* falls below [rate * 2^62]; reuse distances of the kept subsequence  *)
(* then scale by the rate, so a sweep of the sampled trace evaluated   *)
(* at size ceil(S * rate), scaled back by 1/rate, estimates the exact  *)
(* sweep at size S.  Error bars come from splitting the kept hash      *)
(* window into [groups] disjoint sub-windows: each is an independent   *)
(* sample at rate/groups, and the spread of their estimates gives a    *)
(* standard error for the union estimate.                              *)

type estimate = { est : float; lo : float; hi : float }

type sampled = {
  s_rate : float;
  s_total : int; (* accesses scanned (the full trace length) *)
  s_kept : int; (* accesses kept by the union window *)
  s_exact : bool; (* rate >= 1: [s_union] is the exact sweep *)
  s_union : t;
  s_group : t array;
  s_gwidth : int array; (* hash-window width per group *)
}

let hash_space = 4611686018427387904.0 (* 2^62 *)
let hash_mask = (1 lsl 62) - 1

(* A cell is kept iff its hash falls below [rate * 2^62]: below 2^-62 that
   threshold is under one hash value, and the kept window no longer
   matches the 1/rate the estimates scale by. *)
let min_rate = 1.0 /. hash_space

let check_rate rate =
  if not (rate > 0.0 && rate <= 1.0) then Error "must be in (0, 1]"
  else if rate < min_rate then
    Error "must be at least 2^-62, the sampling hash resolution"
  else Ok ()

let sampled_exact s = s.s_exact
let sampled_total_accesses s = s.s_total
let sampled_kept_accesses s = s.s_kept
let sampled_union s = s.s_union

(* Union footprints this small (or fewer than two populated groups)
   cannot support a spread estimate; [sampled_stats] then reports the
   trivially-safe interval instead of a fake tight one. *)
let degenerate_footprint = 32

let sampled_degenerate s =
  (not s.s_exact)
  && (footprint s.s_union < degenerate_footprint
     || Array.fold_left
          (fun n g -> if accesses g > 0 then n + 1 else n)
          0 s.s_group
        < 2)

(* Disjoint sub-samples behind the error bars. *)
let groups = 8

let run_sampled ?(budget = Budget.unlimited) ~rate ~seed ~params prog =
  Result.iter_error
    (fun rule -> invalid_arg ("Sweep.run_sampled: rate " ^ rule))
    (check_rate rate);
  if not (Budget.is_unlimited budget) then
    Budget.check_deadline budget Budget.Cache_sim;
  let plan = Cplan.make ~params prog in
  let total = Cplan.n_accesses plan in
  let thresh = int_of_float (rate *. hash_space) in
  if rate >= 1.0 || float_of_int thresh >= hash_space then begin
    let t = run_walk ~budget ~jobs:(Pool.default_jobs ()) plan in
    {
      s_rate = 1.0;
      s_total = total;
      s_kept = total;
      s_exact = true;
      s_union = t;
      s_group = [||];
      s_gwidth = [||];
    }
  end
  else begin
    let thresh = max 1 thresh in
    let gw = max 1 (thresh / groups) in
    let gwidth =
      Array.init groups (fun g ->
          if g = groups - 1 then thresh - (gw * (groups - 1)) else gw)
    in
    let upass = pass_create budget in
    let gpass = Array.init groups (fun _ -> pass_create budget) in
    (* Kept cells are identified by their 62-bit spatial hash plus
       their array's number (name and rank), modulo 2^62, through an
       open-addressing table: both are already in hand from the scan, so
       deduplication costs one probe instead of re-hashing the cell name
       and index vector.  Adding the array tells apart one name's cells
       at two ranks, whose hashes can coincide (A[i] and A[i][0]); two
       distinct cells alias only on a full 62-bit collision of the keyed
       hashes (~ footprint^2 / 2^63), far below the sampling error this
       mode accepts by construction. *)
    let cap = ref 1024 in
    let keys = ref (Array.make !cap (-1)) in
    let slot = ref (Array.make !cap 0) in
    let count = ref 0 in
    let lookup h =
      let keys_ = !keys and mask = !cap - 1 in
      let i = ref (h land mask) in
      while
        let k = Array.unsafe_get keys_ !i in
        k <> h && k >= 0
      do
        i := (!i + 1) land mask
      done;
      !i
    in
    let rehash () =
      let okeys = !keys and oslot = !slot and ocap = !cap in
      cap := 2 * ocap;
      keys := Array.make !cap (-1);
      slot := Array.make !cap 0;
      for i = 0 to ocap - 1 do
        let h = okeys.(i) in
        if h >= 0 then begin
          let j = lookup h in
          !keys.(j) <- h;
          !slot.(j) <- oslot.(i)
        end
      done
    in
    (* per union cell: its group and its dense id within that group *)
    let cgroup = ref (Array.make 64 0) in
    let cgslot = ref (Array.make 64 0) in
    let gnext = Array.make groups 0 in
    let unlimited = Budget.is_unlimited budget in
    let on_tick _ =
      (* at most once per 64k scanned accesses: cheap enough to poll the
         wall clock outright, so a deadline stops the scan even when
         almost nothing is kept (checkpoints alone only reach the clock
         every 1024 steps) *)
      if not unlimited then begin
        Budget.checkpoint budget Budget.Cache_sim;
        Budget.check_deadline budget Budget.Cache_sim
      end
    in
    let on_access h a w =
      let k = (h + a) land hash_mask in
      let i = lookup k in
      let c =
        if Array.unsafe_get !keys i >= 0 then Array.unsafe_get !slot i
        else begin
          let c = !count in
          !keys.(i) <- k;
          !slot.(i) <- c;
          incr count;
          if 2 * !count >= !cap then rehash ();
          (* first occurrence: group assignment is a pure function of
             the (per-cell constant) hash *)
          if c = Array.length !cgroup then begin
            let a = Array.make (2 * c) 0 and b = Array.make (2 * c) 0 in
            Array.blit !cgroup 0 a 0 c;
            Array.blit !cgslot 0 b 0 c;
            cgroup := a;
            cgslot := b
          end;
          let g = min (groups - 1) (h / gw) in
          !cgroup.(c) <- g;
          !cgslot.(c) <- gnext.(g);
          gnext.(g) <- gnext.(g) + 1;
          c
        end
      in
      pass_event upass c w;
      pass_event
        gpass.(Array.unsafe_get !cgroup c)
        (Array.unsafe_get !cgslot c)
        w
    in
    Cplan.iter_sampled plan ~seed ~thresh ~on_tick ~on_access;
    (* each lane is a whole (sub-)trace on its own: finalize as a
       single-segment merge, in which every cell is cold *)
    let finalize ps =
      let gs = gstate_create budget in
      merge_segment gs (Array.init ps.p_n Fun.id) ps;
      merge_finish gs ~accesses:ps.p_events
    in
    {
      s_rate = rate;
      s_total = total;
      s_kept = upass.p_events;
      s_exact = false;
      s_union = finalize upass;
      s_group = Array.map finalize gpass;
      s_gwidth = gwidth;
    }
  end

(* Confidence scaling: centre from the union sample, spread from the
   per-group estimates.  The half-width is max(z * se, floor) with z = 4
   and a floor of 2/rate plus a bias allowance that shrinks as the
   sampled cache gets more slots: mapping size S to round(S * rate)
   quantizes distances to sampled units, a relative error on the order
   of 1/(S * rate) that the group spread cannot see because every group
   shares it.  Callers that need certainty on samples too thin for any
   of this get the degenerate [0, T] fallback. *)
let ci_z = 4.0

let sampled_stats s ~size =
  if size < 1 then invalid_arg "Sweep.sampled_stats: size < 1";
  if s.s_exact then begin
    let st = stats s.s_union ~size in
    let e v = { est = v; lo = v; hi = v } in
    ( e (float_of_int st.Cache.loads),
      e (float_of_int st.Cache.read_hits),
      e (float_of_int st.Cache.stores) )
  end
  else begin
    let r = s.s_rate in
    let scale = 1.0 /. r in
    let ku = max 1 (int_of_float (Float.round (float_of_int size *. r))) in
    let su = stats s.s_union ~size:ku in
    (* Below two sampled cache slots the size quantization error is
       unbounded relative to the answer; such sizes cannot be resolved at
       this rate and get the trivially-safe interval. *)
    let degenerate = sampled_degenerate s || ku < 2 in
    let total = float_of_int s.s_total in
    let groups =
      Array.to_list
        (Array.mapi
           (fun g t ->
             let rg = float_of_int s.s_gwidth.(g) /. hash_space in
             let kg = max 1 (int_of_float (Float.round (float_of_int size *. rg))) in
             (t, rg, kg))
           s.s_group)
      |> List.filter (fun (t, _, _) -> accesses t > 0)
    in
    let estimate extract =
      (* No count exceeds the trace length, so neither may its estimate:
         clamped, the centre lies inside the interval in both branches. *)
      let est = Float.min total (float_of_int (extract su) *. scale) in
      if degenerate then { est; lo = 0.0; hi = total }
      else begin
        let vals =
          List.map
            (fun (t, rg, kg) ->
              float_of_int (extract (stats t ~size:kg)) /. rg)
            groups
        in
        let ng = float_of_int (List.length vals) in
        let mean = List.fold_left ( +. ) 0.0 vals /. ng in
        let var =
          List.fold_left (fun a v -> a +. ((v -. mean) ** 2.0)) 0.0 vals
          /. (ng -. 1.0)
        in
        let se = sqrt var /. sqrt ng in
        let bias_frac = 0.02 +. (1.0 /. (1.0 +. (float_of_int size *. r))) in
        let half =
          Float.max (ci_z *. se) ((2.0 /. r) +. (bias_frac *. Float.abs est))
        in
        {
          est;
          lo = Float.max 0.0 (est -. half);
          hi = Float.min total (est +. half);
        }
      end
    in
    ( estimate (fun st -> st.Cache.loads),
      estimate (fun st -> st.Cache.read_hits),
      estimate (fun st -> st.Cache.stores) )
  end

(* Size-list syntax shared by the CLI and the bench: "a,b,c" or
   "lo:hi:step".  A range is counted before it is built, so neither a
   step that would carry past max_int nor a huge count can run away. *)
let max_sizes = 1_000_000

let parse_sizes spec =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let int_of s =
    match int_of_string_opt (String.trim s) with
    | Some v -> Ok v
    | None -> fail "invalid size %S (expected an integer)" s
  in
  let ( let* ) = Result.bind in
  if String.trim spec = "" then fail "empty size list"
  else if String.contains spec ':' then
    match String.split_on_char ':' spec with
    | [ lo; hi; step ] ->
        let* lo = int_of lo in
        let* hi = int_of hi in
        let* step = int_of step in
        if lo < 1 then fail "range start %d < 1" lo
        else if step < 1 then fail "range step %d < 1" step
        else if hi < lo then fail "range %d:%d is empty (hi < lo)" lo hi
        else
          let count = ((hi - lo) / step) + 1 in
          if count > max_sizes then
            fail "range %d:%d:%d names %d sizes (at most %d)" lo hi step count
              max_sizes
          else Ok (List.init count (fun k -> lo + (k * step)))
    | _ -> fail "invalid range %S (expected lo:hi:step)" spec
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | x :: rest ->
          let* v = int_of x in
          if v < 1 then fail "size %d < 1" v else go (v :: acc) rest
    in
    go [] (String.split_on_char ',' spec)
