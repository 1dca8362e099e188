(** Polyhedral (affine) programs, represented as loop trees.

    A program is a sequence of perfectly-nestable loop nodes and statement
    nodes.  Loop bounds are inclusive affine expressions of the enclosing
    loop variables and the program parameters; statement accesses are affine
    (see {!Access}).  This is the input language of the lower-bound engine,
    covering every kernel of the paper (Figures 1, 3, 6, 7, 8, 9). *)

module Affine = Iolb_poly.Affine

type stmt = { name : string; writes : Access.t list; reads : Access.t list }

type node =
  | Loop of {
      var : string;
      lo : Affine.t;
      hi : Affine.t;
      rev : bool;  (** iterate [hi] downto [lo] instead of [lo] to [hi] *)
      body : node list;
    }
  | Stmt of stmt

type t = {
  name : string;
  params : string list;
  (** Assumptions on the parameters (e.g. [M >= N], [N >= 1]) under which
      bounds are derived. *)
  assumptions : Iolb_poly.Constr.t list;
  body : node list;
}

(** {1 Builders} *)

(** [loop var lo hi body] is a loop node; bounds are inclusive. *)
val loop : string -> Affine.t -> Affine.t -> node list -> node

(** [loop_lt var lo hi_excl body] uses an exclusive upper bound, matching the
    C listings of the paper ([for (v = lo; v < hi; v++)]). *)
val loop_lt : string -> Affine.t -> Affine.t -> node list -> node

(** [loop_rev var lo hi body] iterates [var] from [hi] downto [lo]
    (inclusive), as in the V2Q listing of the paper (Figure 6). *)
val loop_rev : string -> Affine.t -> Affine.t -> node list -> node

val stmt : string -> writes:Access.t list -> reads:Access.t list -> node

(** [make ~name ~params ~assumptions body] checks well-formedness (unique
    statement names, unique loop variables along any path, accesses only
    using visible variables). @raise Invalid_argument if violated. *)
val make :
  name:string ->
  params:string list ->
  assumptions:Iolb_poly.Constr.t list ->
  node list ->
  t

(** Structural equality (name, params, assumptions, loop tree and accesses,
    with affine leaves compared by {!Affine.equal}).  This is the identity
    the textual front-end round-trips against: [parse (print p)] must be
    [equal] to [p]. *)
val equal : t -> t -> bool

(** {1 Derived statement views} *)

type stmt_info = {
  def : stmt;
  dims : string list;  (** enclosing loop variables, outermost first *)
  bounds : (string * Affine.t * Affine.t) list;
      (** per dimension, outermost first: (var, lo, hi) inclusive *)
  path : int list;
      (** identities of the enclosing loop nodes, outermost first; two
          statements share an enclosing loop iff their paths share that
          prefix element (loop variable names may repeat across loops) *)
}

(** [shared_loop_vars a b] is the variables of the loops enclosing both
    statements (the longest common prefix of their paths). *)
val shared_loop_vars : stmt_info -> stmt_info -> string list

val statements : t -> stmt_info list

(** @raise Not_found if no statement has that name. *)
val find_stmt : t -> string -> stmt_info

(** The iteration domain of a statement as an integer set over its dims. *)
val domain : stmt_info -> Iolb_poly.Iset.t

(** Exact symbolic number of instances of the statement (iterated Faulhaber
    summation).  Valid whenever every loop of the program has a
    non-negative trip count across the enclosing domain - true for all the
    kernels considered. *)
val cardinal : stmt_info -> Iolb_symbolic.Polynomial.t

(** Total number of statement instances of the program. *)
val total_instances : t -> Iolb_symbolic.Polynomial.t

(** [extent_min info x] (resp. [extent_max]) is a symbolic lower (upper)
    bound, affine in the parameters only, of the trip count [hi - lo + 1] of
    dimension [x] of [info], obtained by substituting adversarial bounds for
    the outer dimensions.  This is the quantity W of the hourglass pattern
    (Section 3.2 of the paper). *)
val extent_min : stmt_info -> string -> Affine.t

val extent_max : stmt_info -> string -> Affine.t

(** {1 Concrete execution order} *)

type instance = {
  stmt_name : string;
  vec : int array;  (** values of [dims], outermost first *)
  loads : (string * int array) list;  (** concrete cells read *)
  stores : (string * int array) list;  (** concrete cells written *)
}

(** [iter_instances ~params p f] visits every statement instance in program
    (textual/loop) order with its concrete accesses.  This is the reference
    semantics used to build CDAGs and access traces.  The loop tree is
    compiled once per call to slot-indexed form, so iteration cost is flat
    integer arithmetic per instance. *)
val iter_instances : params:(string * int) list -> t -> (instance -> unit) -> unit

(** [iter_accesses ~params p ~on_instance ~on_access] streams the concrete
    accesses of every instance in program order without allocating
    {!instance} records: [on_instance ()] fires once per instance (budget
    and node-cap hooks), then [on_access array index is_write] once per
    read (in statement order) and then per write.  [index] is a buffer
    {e borrowed} for the duration of the callback - copy it to keep it.
    This is the reference access order: {!Cplan} reproduces it position
    for position, and the trace builder and the sweeps fall back to it
    (plus an interner) for the programs a plan cannot lay out. *)
val iter_accesses :
  params:(string * int) list ->
  t ->
  on_instance:(unit -> unit) ->
  on_access:(string -> int array -> bool -> unit) ->
  unit

(** [iter_cells ~params p ~on_load ~on_stmt ~on_store] streams, for every
    statement instance in program order: each cell read (in statement
    order), then the instance itself ([on_stmt name vec], after the loads
    and before the stores), then each cell written.  All index and
    iteration vectors are {e borrowed} buffers, valid only for the
    duration of the callback - copy them to keep them.  This is the
    allocation-free path used by CDAG construction, where input nodes for
    first-read cells must be numbered before the compute node that reads
    them. *)
val iter_cells :
  params:(string * int) list ->
  t ->
  on_load:(string -> int array -> unit) ->
  on_stmt:(string -> int array -> unit) ->
  on_store:(string -> int array -> unit) ->
  unit

(** Number of statement instances at concrete parameters. *)
val count_instances : params:(string * int) list -> t -> int

(** Exact number of accesses (reads plus writes) {!iter_accesses} will emit
    at concrete parameters, computed without enumerating instances:
    rectangular sub-nests collapse to multiplications.  Lets trace builders
    allocate exactly once. *)
val n_accesses : params:(string * int) list -> t -> int

(** Arrays read before ever being written (the program inputs), in first-use
    order, at concrete parameters. *)
val input_arrays : params:(string * int) list -> t -> string list

val pp : Format.formatter -> t -> unit
