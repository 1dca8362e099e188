(** Exact rational linear programming by the two-phase simplex method.

    Variables are indexed [0 .. nvars-1] and implicitly constrained to be
    non-negative.  Bland's anti-cycling rule guarantees termination.  All
    arithmetic is exact ({!Iolb_util.Rat}), which matters here: the
    Brascamp-Lieb exponents are small rationals (like 1/2 or 1/3) and the
    derived I/O bounds change qualitatively if they are off by any epsilon. *)

type relation = Le | Ge | Eq

type constr = {
  coeffs : Iolb_util.Rat.t array;  (** length [nvars] *)
  rel : relation;
  rhs : Iolb_util.Rat.t;
}

type outcome =
  | Optimal of { value : Iolb_util.Rat.t; solution : Iolb_util.Rat.t array }
  | Unbounded
  | Infeasible

(** The underlying dense tableau of {!Iolb_util.Rat} values, exposed so
    other solvers over the same machinery ({!Psimplex}'s
    parametric-objective sweep) reuse setup, pivoting, pricing and the
    Bland loop instead of duplicating them.  All operations may raise
    {!Iolb_util.Rat.Overflow}. *)
module Tableau : sig
  (** Every row has [ncols + 1] entries: one per column, then the
      right-hand side.  A cost row has the same shape, its last entry
      holding the negated objective value. *)
  type t = private {
    ncols : int;  (** structural + slack + artificial columns *)
    nvars : int;  (** structural columns *)
    art_start : int;  (** first artificial column *)
    rows : Iolb_util.Rat.t array array;  (** constraint rows *)
    obj : Iolb_util.Rat.t array;  (** the objective's reduced-cost row *)
    basis : int array;  (** basis.(i) = column basic in row i *)
  }

  (** Build the tableau for [constraints] over [nvars] non-negative
      structural variables (slack and artificial columns added, rows
      normalised to a non-negative rhs) and run phase 1 to optimality.
      [None] means the constraints are infeasible.  On success, basic
      artificials are driven out where possible; phase-2 callers must
      keep artificials from re-entering by restricting entering columns
      to [j < art_start].
      @raise Invalid_argument on inconsistent dimensions. *)
  val phase1 : nvars:int -> constr list -> t option

  (** Install [cost] (length [nvars]) as the tableau objective, reduced
      with respect to the current basis. *)
  val install_cost : t -> cost:Iolb_util.Rat.t array -> unit

  (** The cost row of [cost] reduced w.r.t. the current basis (length
      [ncols + 1], negated objective value last).  Does not modify the
      tableau. *)
  val reduce_cost_row : t -> cost:Iolb_util.Rat.t array -> Iolb_util.Rat.t array

  (** Pivot on (row, col): normalise the pivot row, eliminate the column
      from all other rows and the objective row; update the basis. *)
  val pivot : t -> row:int -> col:int -> unit

  (** After [pivot t ~row ~col], eliminate the pivot column from a
      caller-held cost row, exactly as [pivot] did for [obj]. *)
  val eliminate : t -> row:int -> col:int -> Iolb_util.Rat.t array -> unit

  (** Bland's rule to optimality: while some column satisfies [enters],
      the lowest such column enters, the leaving row is the lowest-ratio
      row (ties towards the lowest basic index), and [pivot ~row ~col]
      makes the step — [Tableau.pivot t], or a caller's wrapper that
      keeps its own state in step. *)
  val optimise :
    t ->
    enters:(int -> bool) ->
    pivot:(row:int -> col:int -> unit) ->
    (unit, [ `Unbounded ]) result

  (** Objective value to be minimised (negates the stored entry). *)
  val value : t -> Iolb_util.Rat.t

  (** Structural-variable values under the current basis. *)
  val solution : t -> Iolb_util.Rat.t array
end

(** [minimize ~cost constraints] minimises [cost . x] over
    [{ x >= 0 | every constraint holds }].
    @raise Invalid_argument on inconsistent dimensions. *)
val minimize : cost:Iolb_util.Rat.t array -> constr list -> outcome

(** [constr coeffs rel rhs] with integer data, for readable call sites. *)
val constr : int list -> relation -> int -> constr
