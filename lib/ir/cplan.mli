(** The one loop-nest compiler: a program lowered at concrete parameters.

    A plan compiles a program at concrete parameters into flat integer
    slot environments and coefficient arrays, and serves every concrete
    walk of it: {!iter_cells} (CDAG construction, and the interning
    trace producers), {!iter} (dense-address traces and sweeps) and
    {!iter_sampled} (the SHARDS-style sampled scan).  All three walk the
    statement instances in program (textual/loop) order and, within an
    instance, its reads in statement order and then its writes; that is
    the access order and the position numbering every consumer shares.

    A plan usually also carries a flat address layout: every array gets
    a rectangular hull (interval arithmetic over the loop nest) laid out
    row-major in one address space, and every access site's index
    expressions compose with the layout into a single affine form over
    the loop variables.  Producing an access is then flat integer
    arithmetic, and its cell identity is a dense [int] address -
    consumers index an [addr -> id] table instead of hashing interned
    cells, which is what lets the sharded exact sweep run at production
    rate.  Along an innermost loop the address form advances by a
    constant per iteration.  Addresses are injective on cells: distinct
    arrays occupy disjoint ranges and the row-major map is injective on
    each hull.  Hulls are keyed by (array, rank), so an array name used
    at two ranks names two disjoint cell sets.

    The sampled scan needs no layout: the spatial cell hash
    ({!sample_hash}) composes with the index forms, so a rejected access
    costs one addition, one mix and one compare. *)

type t

(** [make ~params p] compiles [p] at [params].  Its cost depends on the
    program text only, never on the parameter values.  When a hull
    bound, a hull volume or the total address space would leave 63-bit
    integers, the plan has no address layout ({!addr_space} is [None]);
    {!iter_cells} and {!iter_sampled} serve it all the same.

    @raise Not_found on a variable bound neither by [params] nor by an
    enclosing loop. *)
val make : params:(string * int) list -> Program.t -> t

(** Exact number of accesses (reads plus writes) the walks visit, counted
    on call without enumerating instances: rectangular sub-nests collapse
    to multiplications and only loops whose variable shapes an inner
    bound are enumerated. *)
val n_accesses : t -> int

(** Size of the flat address space ([0 <= addr < space]), or [None] when
    the plan has no address layout.  An over-approximation of the
    footprint: consumers allocate remap tables of this length, so check
    it against a memory policy first. *)
val addr_space : t -> int option

(** [decode t addr] is the concrete cell at [addr].  Allocates; intended
    for first occurrences only.
    @raise Invalid_argument if the plan has no address layout or [addr]
    is out of range. *)
val decode : t -> int -> string * int array

(** [iter t ~lo ~hi ~on_instance ~on_access] visits the accesses whose
    global position - their 0-based index in the plan's access order -
    lies in [\[lo, hi)], in program order: [on_access pos addr is_write]
    per access, [on_instance ()] once per statement instance with at
    least one access in range (fired before its accesses).  Whole loop
    iterations left of [lo] are skipped by closed-form counting,
    iteration stops once [hi] is passed - the [seek] arithmetic: reaching
    position [k] costs the loop structure around it (O(depth) for
    rectangular nests), not [k] emissions.  [decode t addr] is the cell
    {!iter_cells} visits at the same position.

    All mutable iteration state lives in per-call buffers: one plan may
    be iterated concurrently from several domains.
    @raise Invalid_argument if the plan has no address layout, [lo < 0]
    or [hi < lo]. *)
val iter :
  t ->
  lo:int ->
  hi:int ->
  on_instance:(unit -> unit) ->
  on_access:(int -> int -> bool -> unit) ->
  unit

(** [iter_cells t ~on_load ~on_stmt ~on_store] streams, for every
    statement instance in program order: each cell read (in statement
    order), then the instance itself ([on_stmt name vec], the values of
    the enclosing loop variables, outermost first), then each cell
    written.  All index and iteration vectors are {e borrowed} buffers,
    valid only for the duration of the callback - copy them to keep
    them.  This is the allocation-free walk of CDAG construction, where
    input nodes for first-read cells must be numbered before the compute
    node that reads them, and, plus an interner, the producer for plans
    without a usable address layout.  Like {!iter}, safe to call
    concurrently on one plan. *)
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
