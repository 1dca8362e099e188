(** Parametric-objective simplex over the exact-rational tableau.

    Solves the family of linear programs

    {v  min (c + theta * s) . x   over { x >= 0 | constraints },  v}

    for every value of a single scalar parameter [theta] in an interval,
    in one sweep: the output is a finite ordered {e region decomposition}
    of the interval, each region carrying the closed-form optimum (an
    affine function of [theta]), the optimal vertex, and the optimal
    basis.  This is the engine behind the paper's regime analysis — the
    piecewise bounds of Thm 5 fall out of region boundaries instead of
    per-instance re-solves (in the style of VPL's PLP solver; see
    DESIGN.md for the worklist and the soundness argument).

    Within a region the optimal basis is constant: a basis is optimal
    exactly where all its reduced costs [d_j(theta) = obj_j + theta *
    slope_j] are non-negative, an intersection of half-lines, hence an
    interval.  The sweep walks those intervals left to right.  Entering
    steps run the tableau's own Bland loop ({!Simplex.Tableau.optimise})
    with an entering test for the objective perturbed to
    [theta + epsilon] (lexicographic on [(d_j(theta), slope_j)]), and a
    pivot hook that keeps the caller-held slope row in step, so every
    pivot sequence terminates and every emitted breakpoint strictly
    increases.

    The right-hand side is parameter-free, so feasibility is decided once
    (phase 1 is shared by the whole sweep) and the per-region optimum is
    affine, not a general rational function.  All arithmetic is exact;
    operations may raise {!Iolb_util.Rat.Overflow}, which callers treat as
    "fall back to the non-parametric path". *)

(** A parametric cost coefficient [const + slope * theta]. *)
type pcost = { const : Iolb_util.Rat.t; slope : Iolb_util.Rat.t }

val pcost : ?slope:Iolb_util.Rat.t -> Iolb_util.Rat.t -> pcost

(** [pc ?slope const] with integer data, for readable call sites. *)
val pc : ?slope:int -> int -> pcost

type region = {
  lo : Iolb_util.Rat.t;  (** inclusive lower end *)
  hi : Iolb_util.Rat.t option;
      (** inclusive upper end; [None] = unbounded above.  Adjacent regions
          share their endpoint (both are optimal there, with equal value). *)
  const : Iolb_util.Rat.t;
  slope : Iolb_util.Rat.t;
      (** optimum on the region: [const + slope * theta] *)
  solution : Iolb_util.Rat.t array;  (** optimal vertex, constant on the region *)
  basis : int array;  (** optimal basis (column basic in each row) *)
  pivots : int;  (** pivots spent entering this region from the previous one *)
}

type outcome =
  | Regions of region list
      (** Ordered, contiguous, covering the whole requested interval. *)
  | Unbounded_at of Iolb_util.Rat.t
      (** The LP is unbounded below at (and beyond) this parameter value. *)
  | Infeasible  (** The constraints are infeasible (for every [theta]). *)

(** [minimize ?budget ~cost ~lo ?hi constraints] sweeps [theta] from [lo]
    to [hi] (default: unbounded above).  Each pivot accounts one
    [Derivation] checkpoint on [budget].
    @raise Invalid_argument on [lo > hi] or inconsistent dimensions.
    @raise Iolb_util.Rat.Overflow if the exact arithmetic leaves 63 bits.
    @raise Iolb_util.Budget.Exhausted via the budget. *)
val minimize :
  ?budget:Iolb_util.Budget.t ->
  cost:pcost array ->
  lo:Iolb_util.Rat.t ->
  ?hi:Iolb_util.Rat.t ->
  Simplex.constr list ->
  outcome

(** The region's optimum evaluated at a parameter value. *)
val value_at : region -> Iolb_util.Rat.t -> Iolb_util.Rat.t
