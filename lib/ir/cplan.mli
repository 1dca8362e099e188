(** The one loop-nest compiler: a program lowered at concrete parameters.

    A plan compiles a program at concrete parameters into flat integer
    slot environments and coefficient arrays, and serves every concrete
    walk of it: {!iter_cells} (CDAG construction), {!iter} (the numbered
    exact access stream behind every trace and exact sweep, with
    {!iter_interned} as its reference walk) and {!iter_sampled} (the
    SHARDS-style sampled scan).  All of them walk the statement instances
    in program (textual/loop) order and, within an instance, its reads in
    statement order and then its writes; that is the access order and the
    position numbering every consumer shares.

    The exact walks emit cell ids, not cells: within a slice of the
    stream, cells are numbered [0, 1, ...] in order of first occurrence,
    and {!globalize} turns the numberings of consecutive slices into the
    whole stream's.  A plan usually carries a flat address layout for
    this: every array gets a rectangular hull (interval arithmetic over
    the loop nest) laid out row-major in one address space, and every
    access site's index expressions compose with the layout into a single
    affine form over the loop variables.  Producing an access is then
    flat integer arithmetic plus one read of an [addr -> id] table,
    which is what lets the sharded exact sweep run at production rate.
    Along an innermost loop the address form advances by a constant per
    iteration.  Addresses are injective on cells: distinct arrays occupy
    disjoint ranges and the row-major map is injective on each hull.
    Hulls are keyed by (array, rank), so an array name used at two ranks
    names two disjoint cell sets.  Plans without a layout, or whose layout
    spans more than 2^23 addresses, intern their cells instead.

    The sampled scan needs no layout: the spatial cell hash
    ({!sample_hash}) composes with the index forms, so a rejected access
    costs one addition, one mix and one compare. *)

type t

(** [make ~params p] compiles [p] at [params].  Its cost depends on the
    program text only, never on the parameter values.  When a hull
    bound, a hull volume or the total address space would leave 63-bit
    integers, the plan has no address layout ({!addr_space} is [None]);
    every walk serves it all the same.

    @raise Not_found on a variable bound neither by [params] nor by an
    enclosing loop. *)
val make : params:(string * int) list -> Program.t -> t

(** Exact number of accesses (reads plus writes) the walks visit, counted
    on call without enumerating instances: rectangular sub-nests collapse
    to multiplications and only loops whose variable shapes an inner
    bound are enumerated.

    @raise Iolb_util.Engine_error.Error with [Invalid_input] when the
    count exceeds [max_int]. *)
val n_accesses : t -> int

(** Exact number of statement instances with at least one access - the
    count the exact walks' node-cap gate reaches on the whole stream -
    counted and checked like {!n_accesses}. *)
val n_instances : t -> int

(** Size of the flat address space ([0 <= addr < space]), or [None] when
    the plan has no address layout.  An over-approximation of the
    footprint. *)
val addr_space : t -> int option

(** The distinct cells of one walked slice, by slice-local id. *)
type cells

(** Number of distinct cells of a slice. *)
val footprint : cells -> int

(** [iter t ~budget ~lo ~hi ~on_access] visits the accesses whose global
    position - their 0-based index in the plan's access order - lies in
    [\[lo, hi)], in program order, calling [on_access id is_write] per
    access, and returns the slice's cells.  [id] numbers the slice's
    cells by first occurrence: a cell's first access in the slice gets
    the next unused id.  Whole loop iterations left of [lo] are skipped
    by closed-form counting, and iteration stops once [hi] is passed -
    the [seek] arithmetic: reaching position [k] costs the loop structure
    around it (O(depth) for rectangular nests), not [k] emissions.  A
    plan without a layout of at most 2^23 addresses is walked by
    {!iter_interned} instead, which has no such seek.

    Budget: one [Cdag_build] checkpoint per statement instance with at
    least one access in the slice (before its accesses), counted against
    the node cap.  All mutable iteration state lives in per-call buffers:
    one plan may be iterated concurrently from several domains.
    @raise Invalid_argument if [lo < 0] or [hi < lo].
    @raise Iolb_util.Budget.Exhausted when the budget runs out. *)
val iter :
  t ->
  budget:Iolb_util.Budget.t ->
  lo:int ->
  hi:int ->
  on_access:(int -> bool -> unit) ->
  cells

(** [iter_interned] is {!iter} on the plan's interned cell walk
    ({!iter_cells} plus a slice-local interner), whatever its layout: the
    same ids, the same cells and the same budget charges.  Without a
    closed-form seek it walks the whole stream prefix before [lo],
    polling only the budget's deadline there.  The reference walk of the
    program sweeps. *)
val iter_interned :
  t ->
  budget:Iolb_util.Budget.t ->
  lo:int ->
  hi:int ->
  on_access:(int -> bool -> unit) ->
  cells

(** [globalize t slices] numbers consecutive slices of [t]'s stream
    globally: given the cells one walk ({!iter} or {!iter_interned})
    returned for the slices [\[p0, p1), \[p1, p2), ...], in stream
    order, its [i]-th array maps slice [i]'s local ids to the whole
    stream's first-occurrence ids - the ids the walk emits on
    [\[p0, pk)] in one call. *)
val globalize : t -> cells list -> int array list

(** [iter_cells t ~on_load ~on_stmt ~on_store] streams, for every
    statement instance in program order: each cell read (in statement
    order), then the instance itself ([on_stmt name vec], the values of
    the enclosing loop variables, outermost first), then each cell
    written.  All index and iteration vectors are {e borrowed} buffers,
    valid only for the duration of the callback - copy them to keep
    them.  This is the allocation-free walk of CDAG construction, where
    input nodes for first-read cells must be numbered before the compute
    node that reads them, and, plus an interner, {!iter_interned}.  Like
    {!iter}, safe to call concurrently on one plan. *)
val iter_cells :
  t ->
  on_load:(string -> int array -> unit) ->
  on_stmt:(string -> int array -> unit) ->
  on_store:(string -> int array -> unit) ->
  unit

(** [sample_hash ~seed name index] is the canonical 62-bit spatial hash of
    a concrete cell, uniform on [\[0, 2^62)].  Sampling keeps a cell iff
    its hash is below [rate * 2^62], so whether a cell is sampled is a
    pure function of (seed, cell) - the SHARDS property that makes reuse
    distances of the sampled sub-trace scale by the rate.  Every consumer
    ({!iter_sampled}, oracles, tests) agrees on this function. *)
val sample_hash : seed:int -> string -> int array -> int

(** [iter_sampled t ~seed ~thresh ~on_tick ~on_access] visits, in program
    order, exactly the accesses whose cell satisfies
    [sample_hash ~seed name index < thresh], calling
    [on_access hash is_write] for each.  The hash is advanced
    incrementally along innermost loops, so a {e rejected} access costs a
    few nanoseconds - no index evaluation - which is what makes sampled
    sweeps of billion-access traces feasible.  [on_tick n] fires at least
    every 64k accesses scanned (kept or not), for budget polling.  Like
    {!iter}, safe to call concurrently on one plan. *)
val iter_sampled :
  t ->
  seed:int ->
  thresh:int ->
  on_tick:(int -> unit) ->
  on_access:(int -> bool -> unit) ->
  unit
