(** Compiled trace production over a flat integer address space.

    A plan compiles a program at concrete parameters into flat integer
    stride/bound arrays: every array gets a rectangular hull (interval
    arithmetic over the loop nest) laid out row-major in one address
    space, and every access site's index expressions compose with the
    layout into a single affine form over the loop variables.  Producing
    an access is then flat integer arithmetic, and its cell identity is a
    dense [int] address - consumers index an [addr -> id] table instead
    of hashing interned cells, which is what lets the sharded exact sweep
    run at production rate.  Along an innermost loop the address form
    advances by a constant per iteration.

    Addresses are injective on cells: distinct arrays occupy disjoint
    ranges and the row-major map is injective on each hull.  Hulls are
    keyed by (array, rank), so an array name used at two ranks names two
    disjoint cell sets.  The emission order and the position numbering
    are exactly those of {!Program.iter_accesses}, the reference
    semantics.

    The plan also drives the SHARDS-style sampled scan ({!iter_sampled}):
    the spatial cell hash ({!sample_hash}) composes with the index forms,
    so a rejected access costs one addition, one mix and one compare. *)

type t

(** [make ~params p] compiles [p] at [params].

    @raise Not_found on a variable bound neither by [params] nor by an
    enclosing loop (like the interpreted evaluators).
    @raise Invalid_argument when a hull bound, a hull volume or the total
    address space leaves 63-bit integers - callers fall back to
    {!Program.iter_accesses}. *)
val make : params:(string * int) list -> Program.t -> t

(** Exact number of accesses [iter] emits over the full range; equals
    {!Program.n_accesses} at the plan's parameters. *)
val n_accesses : t -> int

(** Size of the flat address space ([0 <= addr < addr_space t]).  An
    over-approximation of the footprint: consumers allocate remap tables
    of this length, so check it against a memory policy first. *)
val addr_space : t -> int

(** [decode t addr] is the concrete cell at [addr].  Allocates; intended
    for first occurrences only. *)
val decode : t -> int -> string * int array

(** [iter t ~lo ~hi ~on_instance ~on_access] visits the accesses whose
    global position - the 0-based index in the order
    {!Program.iter_accesses} emits them - lies in [\[lo, hi)], in program
    order: [on_access pos addr is_write] per access, [on_instance ()]
    once per statement instance with at least one access in range (fired
    before its accesses).  Whole loop iterations left of [lo] are skipped
    by closed-form counting, iteration stops once [hi] is passed - the
    [seek] arithmetic: reaching position [k] costs the loop structure
    around it (O(depth) for rectangular nests), not [k] emissions.
    [decode t addr] is the (name, index) {!Program.iter_accesses} emits
    at the same position.

    All mutable iteration state lives in per-call buffers: one plan may
    be iterated concurrently from several domains.
    @raise Invalid_argument if [lo < 0] or [hi < lo]. *)
val iter :
  t ->
  lo:int ->
  hi:int ->
  on_instance:(unit -> unit) ->
  on_access:(int -> int -> bool -> unit) ->
  unit

(** [sample_hash ~seed name index] is the canonical 62-bit spatial hash of
    a concrete cell, uniform on [\[0, 2^62)].  Sampling keeps a cell iff
    its hash is below [rate * 2^62], so whether a cell is sampled is a
    pure function of (seed, cell) - the SHARDS property that makes reuse
    distances of the sampled sub-trace scale by the rate.  Every consumer
    ({!iter_sampled}, the interpreted fallback, tests) agrees on this
    function. *)
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
