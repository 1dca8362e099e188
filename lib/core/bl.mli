(** Brascamp-Lieb exponent optimisation (Theorem 2 of the paper).

    For coordinate projections, the Brascamp-Lieb rank condition only needs
    to be checked on coordinate subgroups (Christ, Demmel, Knight, Scanlon,
    Yelick 2013): a family of exponents [s_j] in [0,1] is admissible iff for
    every subset [H] of the dimensions, [|H| <= sum_j s_j * |dims_j /\ H|].
    Under admissible exponents, [|E| <= prod_j |phi_j E|^(s_j)].

    Each projection carries a symbolic size bound of the form
    [K^alpha * W^beta * 2^gamma], where [K] is the K-bounded-set budget,
    [W] the hourglass width, and the [2] factor comes from the flatness
    bound of Section 4.3.  The optimiser picks admissible exponents
    minimising the overall product.  Since [sqrt K <= W <= K] in the regime
    where the hourglass matters (Section 5.1), writing [W = K^theta] the
    K-side exponent is [rho_K + theta * rho_W] with [theta] in [[1/2, 1]];
    by linearity it suffices to minimise lexicographically at the endpoints
    [theta = 1/2], then [theta = 1], then the constant factor [rho_2]. *)

type bounded_proj = {
  proj_dims : string list;  (** dimensions projected on *)
  alpha : Iolb_util.Rat.t;  (** K-exponent of this projection's size bound *)
  beta : Iolb_util.Rat.t;  (** W-exponent of this projection's size bound *)
  gamma : Iolb_util.Rat.t;  (** 2-exponent (flatness factors) *)
  label : string;
}

type solution = {
  k_exponent : Iolb_util.Rat.t;  (** [rho_K = sum s_j alpha_j] *)
  w_exponent : Iolb_util.Rat.t;  (** [rho_W = sum s_j beta_j] *)
  two_exponent : Iolb_util.Rat.t;  (** [rho_2 = sum s_j gamma_j] *)
  exponents : (string * Iolb_util.Rat.t) list;  (** [s_j] per label *)
}

(** [proj ?beta ?gamma ~alpha ~label dims] builds a {!bounded_proj}
    ([beta], [gamma] default to 0). *)
val proj :
  ?beta:Iolb_util.Rat.t ->
  ?gamma:Iolb_util.Rat.t ->
  alpha:Iolb_util.Rat.t ->
  label:string ->
  string list ->
  bounded_proj

(** [optimize ~dims projs] minimises lexicographically
    [(rho_K + rho_W/2, rho_K + rho_W, rho_2)] over admissible exponent
    families.  Returns [None] when no admissible family exists (some
    dimension of [dims] is covered by no projection).  Three plain
    {!Iolb_lp.Simplex} solves, one per stage, each under an upper pin on
    the optima of the stages before; no parametric sweep runs.  All three
    stay: for the hourglass [I'] projections the [theta = 1] and [rho_2]
    stages pick the vertex among the [theta = 1/2] optima, and that vertex
    is printed as the "I' certificate" and shapes the bound formula. *)
val optimize : dims:string list -> bounded_proj list -> solution option

(** One regime of the K-side exponent: writing [W = K^theta], on
    [theta_lo <= theta <= theta_hi] the exponent family [region_sol] is
    optimal, so the bound behaves as
    [K^(k_exponent + theta * w_exponent)].  [two_exponent] is the
    constant-factor exponent of that same vertex (not separately
    lexicographically optimised). *)
type exponent_region = {
  theta_lo : Iolb_util.Rat.t;
  theta_hi : Iolb_util.Rat.t;
  region_sol : solution;
  region_pivots : int;  (** simplex pivots spent entering the region *)
}

(** [exponent_regions ~dims projs] decomposes [theta in [1/2, 1]] into the
    finitely many regimes of [min (rho_K + theta * rho_W)] in one
    parametric sweep ({!Iolb_lp.Psimplex}).  Regions are ordered and
    contiguous; adjacent regions agree at their shared endpoint.  [None]
    when no admissible family exists. *)
val exponent_regions :
  ?budget:Iolb_util.Budget.t ->
  dims:string list ->
  bounded_proj list ->
  exponent_region list option

val pp_exponent_region : Format.formatter -> exponent_region -> unit

(** [exponent_at ~dims projs ~theta] is the optimum of the sweep's
    objective [min (rho_K + theta * rho_W)] at one pinned [theta], by a
    plain {!Iolb_lp.Simplex} solve.  The differential reference for
    {!exponent_regions}: on a region [r] containing [theta] it must equal
    [r.region_sol.k_exponent + theta * r.region_sol.w_exponent] exactly
    (the [region-cover] oracle in [lib/check] asserts this).  [None] when
    the admissibility polytope is empty. *)
val exponent_at :
  dims:string list ->
  bounded_proj list ->
  theta:Iolb_util.Rat.t ->
  Iolb_util.Rat.t option

(** [classical ~dims dimsets] is the classical K-partition optimisation:
    every projection bounded by [K] (alpha 1); minimises the plain exponent
    sum [rho_K], yielding [|E| <= K^rho_K].  One {!Iolb_lp.Simplex} solve:
    with [beta = gamma = 0], {!optimize}'s [theta = 1] stage would re-pose
    the same optimum and its [rho_2] stage minimise zero.  [rho_K] is the
    same as {!optimize}'s on the same projections; the vertex (hence
    [exponents]) may be another point of the optimal face. *)
val classical : dims:string list -> string list list -> solution option

val pp_solution : Format.formatter -> solution -> unit
