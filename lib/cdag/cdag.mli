(** Concrete computational DAGs (CDAGs).

    A CDAG instantiates a polyhedral program at concrete parameter values:
    one node per statement instance (plus one per input cell read before
    written), one edge per flow (read-after-write) dependence.  This is the
    board of the red-white pebble game (Section 2 of the paper) and the
    object on which the hourglass properties are validated empirically. *)

(** A node decoded: an input cell (array name, index vector), or a
    statement instance (statement name, iteration vector). *)
type kind =
  | Input of string * int array  (** an input array cell *)
  | Compute of string * int array  (** statement name, iteration vector *)

type t

(** [of_program ~params p] builds the CDAG by abstract execution with
    last-writer tracking: reads resolve to the most recent write of the same
    cell in program order, which is the exact flow dependence for these
    (deterministic, unconditionally executed) programs.  The build is one
    walk of the program's numbered access stream
    ({!Iolb_ir.Cplan.iter_instances}): cells arrive as first-occurrence
    ids, so dependences resolve through one flat [last_writer] array
    indexed by cell id, with no hashing.  Every array is allocated once,
    sized from the plan's closed-form counts ({!Iolb_ir.Cplan.totals}).

    Both relations are stored once, in CSR form (see {!preds_csr}): the
    walk appends each instance's sorted, deduplicated predecessors to one
    flat array, and the successors are counted into a second one after
    it.  A node's payload is two ints: its statement's index (or none,
    for an input) and the offset of its iteration vector in one flat
    array of them (or its cell id, for an input).

    Numbering rule: ids are assigned in program order, an input cell's
    node just before the first instance that reads it, so every
    predecessor of a node has a smaller id than the node and every edge
    runs from a smaller id to a larger one.  Instances without accesses
    are nodes too, with no edges.  {!program_order} and {!reaches} rely
    on the rule.

    One [Cdag_build] budget checkpoint is accounted per statement
    instance, those without accesses included, and the budget's node cap
    bounds the total node count of this CDAG, inputs included.  A cap
    below the instance count raises before anything is allocated.  The
    result is immutable and safe to share read-only across a
    {!Iolb_util.Pool} fan-out.
    @raise Iolb_util.Budget.Exhausted when the budget runs out. *)
val of_program :
  ?budget:Iolb_util.Budget.t -> params:(string * int) list -> Iolb_ir.Program.t -> t

val n_nodes : t -> int

(** [is_compute t id]: is node [id] a statement instance (not an input)?
    O(1), allocates nothing.
    @raise Invalid_argument if [id] is not a node. *)
val is_compute : t -> int -> bool

(** [coord t id d] is coordinate [d] (0 = outermost loop) of compute
    node [id]'s iteration vector.  O(1), allocates nothing.
    @raise Invalid_argument if [id] is not a compute node or [d] not one
    of its coordinates. *)
val coord : t -> int -> int -> int

(** [kind t id] decodes node [id]: a fresh iteration vector copied out of
    the flat array, or the input's cell decoded from the walk's cells (an
    address split row-major along its array's hull, or an interned key).
    It allocates the vector and the constructor on every call; the hot
    paths use {!is_compute} and {!coord} instead.
    @raise Invalid_argument if [id] is not a node. *)
val kind : t -> int -> kind

(** Predecessors (the values a node consumes), as node ids in ascending
    order: a fresh copy of the node's {!preds_csr} slice. *)
val preds : t -> int -> int array

(** Successors (the nodes consuming a node's value), in ascending id
    order: a fresh copy of the node's {!succs_csr} slice. *)
val succs : t -> int -> int array

(** [preds_csr t] is the predecessor relation itself, in CSR form
    (compressed sparse row), [(offsets, flat)]: node [id]'s predecessors
    are [flat.(offsets.(id)) .. flat.(offsets.(id + 1) - 1)], ascending.
    [offsets] has length [n_nodes t + 1] and [flat] one slot per edge.
    It is the CDAG's only copy of the relation, not a mirror: callers that
    walk every node (the pebble game and its schedule builders) index it
    directly instead of copying slices with {!preds}.  Never mutate the
    returned arrays. *)
val preds_csr : t -> int array * int array

(** [succs_csr t] is the successor relation in the same CSR form as
    {!preds_csr}: slices are ascending, and the flat array holds every
    edge once more, from its source. *)
val succs_csr : t -> int array * int array

(** Node ids in a valid topological (= program) order, inputs first at their
    first use point.  Ids are numbered in that order (see {!of_program}),
    so this is the identity [[|0; 1; ...; n_nodes t - 1|]], built fresh
    on each call. *)
val program_order : t -> int array

(** All node ids of instances of the given statement, ascending.  No
    per-statement table is kept: each call scans the nodes' statement
    indices. *)
val nodes_of_stmt : t -> string -> int list

val n_inputs : t -> int
val n_computes : t -> int

(** A reusable reachability oracle over one CDAG.  Visited marks are
    epoch-stamped and the DFS stack is kept across queries, so repeated
    queries (e.g. hourglass verification over many instance pairs)
    allocate nothing after the first. *)
type reachability

val reachability : t -> reachability

(** [reaches r a b]: is there a directed path from [a] to [b] in the
    oracle's CDAG?  By the numbering rule of {!of_program} every node on
    such a path has an id in [(a, b]], so the search visits only those:
    it answers [false] at once when [a > b], and otherwise scans each
    (ascending) successor slice only up to [b].  No per-query
    allocation.  Not thread-safe: use one oracle per domain. *)
val reaches : reachability -> int -> int -> bool

(** [convex_closure t nodes] adds every node lying on a directed path
    between two nodes of [nodes] - the convexity completion used when
    reasoning about K-bounded sets. *)
val convex_closure : t -> int list -> int list

(** [inset t nodes] is the number of distinct values consumed by [nodes] but
    produced outside [nodes] (the InSet of the paper). *)
val inset : t -> int list -> int

val pp_stats : Format.formatter -> t -> unit
