(** The one loop-nest compiler: a program lowered at concrete parameters.

    A plan compiles a program at concrete parameters into flat integer
    slot environments and coefficient arrays, and serves every concrete
    walk of it: {!iter} (the numbered exact access stream behind every
    trace and exact sweep), {!iter_instances} (the same stream with every
    statement instance announced: CDAG construction) and {!iter_sampled}
    (the SHARDS-style sampled scan).  All of them walk the statement
    instances in program (textual/loop) order and, within an instance,
    its reads in statement order and then its writes; that is the access
    order and the position numbering every consumer shares.

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

    Two walks produce the exact streams, with the same ids: a seek walk
    behind {!iter} on a layout of at most 2^23 addresses, and an instance
    walk behind {!iter} elsewhere and {!iter_instances} everywhere.  No
    walk checks a node cap: each sees one slice.

    The sampled scan serves every plan: the spatial cell hash
    ({!sample_hash}) composes with the index forms, so a dropped access
    costs one addition, one mix and one compare, and on a dense layout
    the scan passes the dropped accesses of long innermost loops without
    visiting them. *)

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
    [Cdag_build] checkpoints {!iter} makes on the whole stream, and the
    count a trace or sweep checks against a node cap - counted and
    checked like {!n_accesses}. *)
val n_instances : t -> int

(** Exact sums over every statement instance, those without accesses
    included: [instances] counts them, [reads] their read accesses and
    [coords] their loop variables (the sum of their loop depths).  They
    size a CDAG's compute nodes, its edges before de-duplication and its
    iteration vectors.  Counted and checked like {!n_accesses}. *)
type totals = { instances : int; reads : int; coords : int }

val totals : t -> totals

(** The program's statements, indexed [0 .. n_stmts t - 1] in textual
    order: their names and loop depths (the length of their iteration
    vectors). *)
val n_stmts : t -> int

val stmt_name : t -> int -> string
val stmt_depth : t -> int -> int

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
    the next unused id.  On a layout of at most 2^23 addresses, whole
    loop iterations left of [lo] are skipped by closed-form counting, and
    iteration stops once [hi] is passed - the [seek] arithmetic: reaching
    position [k] costs the loop structure around it (O(depth) for
    rectangular nests), not [k] emissions.  Elsewhere the instance walk
    interns cells in a slice-local pool ({!Interner}) and, with no such
    seek, walks the whole stream prefix before [lo], polling only the
    budget's deadline there.

    Budget: one [Cdag_build] checkpoint per statement instance with at
    least one access in the slice (before its accesses); the node cap is
    not checked.  All mutable iteration state lives in per-call buffers:
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

(** [globalize t slices] numbers consecutive slices of [t]'s stream
    globally: given the cells {!iter} returned for the slices
    [\[p0, p1), \[p1, p2), ...], in stream order, its [i]-th array maps
    slice [i]'s local ids to the whole stream's first-occurrence ids -
    the ids {!iter} emits on [\[p0, pk)] in one call. *)
val globalize : t -> cells list -> int array list

(** [iter_instances t ~on_instance ~on_access] walks the whole stream
    and numbers its cells exactly as {!iter} on [\[0, n_accesses t)]
    does, returning the same cells, and calls [on_instance s vec] before
    the accesses of every statement instance, those without accesses
    included: [s] is the statement's index and [vec] the values of its
    enclosing loop variables, outermost first, in a {e borrowed} buffer
    valid only for the duration of the callback.  It charges no budget:
    the caller accounts its own work.  Like {!iter}, safe to call
    concurrently on one plan. *)
val iter_instances :
  t ->
  on_instance:(int -> int array -> unit) ->
  on_access:(int -> bool -> unit) ->
  cells

(** [cell t cells id] is the cell numbered [id] in [cells], which a walk
    of [t] returned: its array name and a fresh index vector.  Decoded
    from its address on a dense layout.
    @raise Invalid_argument if [id] is out of range. *)
val cell : t -> cells -> int -> string * int array

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
    [on_access hash array is_write] for each.  [array] numbers the
    program's (array name, rank) pairs from 0 in order of first
    appearance, so [(array, hash)] tells apart the cells of one array
    name at two ranks, whose hashes can coincide ([A\[i\]] and
    [A\[i\]\[0\]]).  [on_tick n] fires at least every 64k accesses
    passed (kept or not), for budget polling; the amounts it reports are
    the same whichever way an access is passed, and add up to
    {!n_accesses}.

    A dropped access in an innermost loop of at least 16 iterations costs
    nothing on a plan whose dense layout (at most 2^23 addresses) spans no
    more addresses than such loops make accesses, at keep thresholds up
    to 2^60 (a quarter of the hash space): the call hashes every address
    of the layout once, and each site's kept iterations come from one
    directory probe into the kept addresses along its constant address
    step.  Shorter loops, loops whose loop-invariant site is kept and
    every other plan or threshold hash each access, at one addition, one
    mix and one compare.  Per call the walk holds O(kept addresses +
    sites) words.  Like {!iter}, safe to call concurrently on one
    plan. *)
val iter_sampled :
  t ->
  seed:int ->
  thresh:int ->
  on_tick:(int -> unit) ->
  on_access:(int -> int -> bool -> unit) ->
  unit
