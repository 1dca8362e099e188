(** Polyhedral (affine) programs, represented as loop trees.

    A program is a sequence of perfectly-nestable loop nodes and statement
    nodes.  Loop bounds are inclusive affine expressions of the enclosing
    loop variables and the program parameters; statement accesses are affine
    (see {!Access}).  This is the input language of the lower-bound engine,
    covering every kernel of the paper (Figures 1, 3, 6, 7, 8, 9).

    The view here is symbolic.  Walking a program at concrete parameters
    is the job of its compiled plan ({!Cplan}). *)

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

(** Exact symbolic number of instances of the statement (iterated Faulhaber
    summation).  Valid whenever every loop of the program has a
    non-negative trip count across the enclosing domain - true for all the
    kernels considered. *)
val cardinal : stmt_info -> Iolb_symbolic.Polynomial.t

(** [extent_min info x] (resp. [extent_max]) is a symbolic lower (upper)
    bound, affine in the parameters only, of the trip count [hi - lo + 1] of
    dimension [x] of [info], obtained by substituting adversarial bounds for
    the outer dimensions.  This is the quantity W of the hourglass pattern
    (Section 3.2 of the paper). *)
val extent_min : stmt_info -> string -> Affine.t

val extent_max : stmt_info -> string -> Affine.t
