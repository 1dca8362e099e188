(** Exact rational linear programming by the two-phase simplex method.

    Variables are indexed [0 .. nvars-1] and implicitly constrained to be
    non-negative.  Bland's anti-cycling rule guarantees termination.  All
    arithmetic is exact ({!Iolb_util.Rat}), which matters here: the
    Brascamp-Lieb exponents are small rationals (like 1/2 or 1/3) and the
    derived I/O bounds change qualitatively if they are off by any epsilon.
    Operations may raise {!Iolb_util.Rat.Overflow}. *)

type relation = Le | Ge | Eq

type constr = {
  coeffs : Iolb_util.Rat.t array;  (** length [nvars] *)
  rel : relation;
  rhs : Iolb_util.Rat.t;
}

type outcome =
  | Optimal of {
      value : Iolb_util.Rat.t;
      solution : Iolb_util.Rat.t array;
      pivots : int;  (** phase-2 pivots this solve made *)
    }
  | Unbounded
  | Infeasible

(** [minimize ~cost constraints] minimises [cost . x] over
    [{ x >= 0 | every constraint holds }].
    @raise Invalid_argument on inconsistent dimensions. *)
val minimize : cost:Iolb_util.Rat.t array -> constr list -> outcome

(** [minimizer ~nvars constraints] runs phase 1 once and returns a solver
    for any number of costs over the same constraints, or [None] when the
    constraints are infeasible.  Each call optimises its cost (length
    [nvars]) from the basis the previous call left, so a cost close to
    the last one usually costs few pivots; it returns [Optimal] or
    [Unbounded], never [Infeasible].  Optimal values are those of
    {!minimize}; where the optimum is not unique the vertex may differ.
    The solver is stateful and must not be shared between domains.
    @raise Invalid_argument on inconsistent dimensions. *)
val minimizer :
  nvars:int -> constr list -> (cost:Iolb_util.Rat.t array -> outcome) option

(** [constr coeffs rel rhs] with integer data, for readable call sites. *)
val constr : int list -> relation -> int -> constr
