(** Automatic derivation of parametric I/O lower bounds.

    Two derivation paths, both instances of the (S+T)-partitioning theorem
    (Theorem 1 of the paper): a convex K-bounded set has size at most [U],
    hence [Q >= (K - S) * |V| / U] for the [|V|] instances of the analysed
    statement.

    - {b Classical} (Section 2): [U = K^rho] with [rho] the optimal
      Brascamp-Lieb exponent sum over the statement's projections.  [rho] is
      typically [3/2], making the bound [Theta(|V| / sqrt S)]; the formula
      is expressed over an auxiliary variable [sqrtS] with [S = sqrtS^2].

    - {b Hourglass} (Section 4): the K-bounded set is split into [I']
      (components spanning >= 3 temporal iterations, which must contain full
      reduction lines of width [W]) and the flat part [F].  [|I'|] is
      bounded through sharpened projections ([|phi_x| <= K/W], Lemma 4) and
      [|F|] through the flatness bound and the slice-summation argument
      (Section 4.3), giving [U = K^a W^b + 2 R K^c] with integer exponents.
      Instantiated at [K = 2S] this yields the main bound; at [K = W] (valid
      when [S <= W], forcing [I'] empty) the small-cache bound.

    A third, last-resort technique backs the degradation ladder
    ({!ladder}): the {b trivial} input-footprint bound
    [Q >= distinct input cells], S-independent but unconditionally sound
    and computable without CDAGs, projections or LPs. *)

type technique = Classical | Hourglass | Hourglass_small_s | Trivial

(** The validity region of a bound, as symbolic cache-size limits: the
    bound holds for [s_lo <= S <= s_hi] ([s_hi = None] = unbounded above;
    [s_lo] is 1 for every current derivation).  This is the structured
    form behind the printed validity condition — reports and the CLI
    render it per bound, and {!best_regions} uses it as exact regime
    edges. *)
type sregion = {
  s_lo : Iolb_symbolic.Ratfun.t;
  s_hi : Iolb_symbolic.Ratfun.t option;
}

(** [region_validity v] renders the validity region for display (e.g.
    ["1 <= S <= N - M - 1"]); used by every construction site and by
    report finalization after substituting the loop split. *)
val region_validity : sregion -> string

type t = {
  program : string;
  stmt : string;  (** statement whose instances are counted *)
  technique : technique;
  formula : Iolb_symbolic.Ratfun.t;
      (** lower bound on the I/O volume Q, over the program parameters plus
          [S] (and [sqrtS] for classical bounds, with [S = sqrtS^2]) *)
  validity : string;
      (** human-readable rendering of [valid], kept in sync at
          construction *)
  valid : sregion;  (** structured validity region *)
  s_max : Iolb_symbolic.Ratfun.t option;
      (** [= valid.s_hi]; retained as a plain field for the serve wire
          protocol and older call sites *)
  log : string list;  (** derivation trace, for reports *)
}

(** [classical p ~stmt] derives the classical K-partition bound for the
    given statement; [None] when the Brascamp-Lieb step is infeasible or
    yields [rho <= 1] (no useful bound), or when [rho] has a denominator
    other than 1 or 2.
    @raise Iolb_util.Budget.Exhausted when the budget runs out. *)
val classical :
  ?budget:Iolb_util.Budget.t -> Iolb_ir.Program.t -> stmt:string -> t option

(** [hourglass p h] derives the hourglass bounds (main and small-cache) for
    a detected pattern.  Returns [[]] if the sharpened Brascamp-Lieb step
    fails to produce integer exponents.
    @raise Iolb_util.Budget.Exhausted when the budget runs out. *)
val hourglass :
  ?budget:Iolb_util.Budget.t -> Iolb_ir.Program.t -> Hourglass.t -> t list

(** [sharpened_projections p h] is the sharpened Brascamp-Lieb input of
    the hourglass derivation (Section 4.2): the statement dimensions and
    the projections with their (alpha, beta) LP costs — [phi_I] bounded
    by [W] alone and every reduction-touching [phi_x] by [K/W].  Exposed
    so regime reports can run {!Bl.exponent_regions} on exactly the LP
    the derivation solves. *)
val sharpened_projections :
  Iolb_ir.Program.t -> Hourglass.t -> string list * Bl.bounded_proj list

(** [trivial p] is the input-footprint bound [Q >= distinct input cells]:
    each never-written array contributes the image cardinality of one of
    its read accesses, underapproximated via minimal extents.  [None] only
    when no input array is recognizable. *)
val trivial : Iolb_ir.Program.t -> t option

(** [classical_deepest p] is the classical derivation applied to every
    statement at the maximal loop depth (the statements whose instance
    count dominates).  This is the classical rung of {!ladder}.
    @raise Iolb_util.Budget.Exhausted when the budget runs out. *)
val classical_deepest :
  ?budget:Iolb_util.Budget.t -> Iolb_ir.Program.t -> t list

(** Result of the graceful-degradation ladder: the bounds of the deepest
    rung reached, and - when any rung was skipped or aborted - a
    human-readable account of why. [degradation = None] means the full
    pipeline ran. *)
type outcome = { bounds : t list; degradation : string option }

(** [ladder ~budget ~verify_params p] is the resilient entry point and the
    one place that detects hourglasses: attempt the hourglass derivation,
    fall back to the classical Brascamp-Lieb bound when the hourglass rung
    exhausts its budget (or detects nothing), and fall back to the
    {!trivial} input-footprint bound when both partitioning rungs fail.
    Returns the patterns the hourglass rung verified
    ({!Hourglass.detect_verified} at [verify_params]) with the outcome;
    the list is [[]] when that rung aborts or is skipped before
    verification completes, and is kept when it aborts later, while
    deriving the patterns' bounds.  Never raises: budget exhaustion that
    not even the trivial rung survives (a passed wall-clock deadline) and
    internal failures come back as typed errors. *)
val ladder :
  ?budget:Iolb_util.Budget.t ->
  verify_params:(string * int) list ->
  Iolb_ir.Program.t ->
  (Hourglass.t list * outcome, Iolb_util.Engine_error.t) result

(** [analyze_ladder ~budget ~verify_params p] is {!ladder} without the
    verified patterns. *)
val analyze_ladder :
  ?budget:Iolb_util.Budget.t ->
  verify_params:(string * int) list ->
  Iolb_ir.Program.t ->
  (outcome, Iolb_util.Engine_error.t) result

(** [eval b ~params ~s] evaluates the bound numerically ([sqrtS] is bound
    to [sqrt s]). *)
val eval : t -> params:(string * int) list -> s:int -> float

(** [optimize_split b ~param ~candidates ~params ~s] instantiates the free
    split parameter [param] of a bound (e.g. GEHD2's loop-split point, cf
    Section 5.3 of the paper) at each candidate value and returns the one
    maximising the bound, with its value.  Returns [None] if no candidate
    gives a positive bound.  Candidates are evaluated in process, in list
    order.

    {b Tie-breaking is part of the contract}: the first candidate (in list
    order) attaining the maximum wins.  Pinned by a regression test with
    equal-value candidates. *)
val optimize_split :
  t ->
  param:string ->
  candidates:int list ->
  params:(string * int) list ->
  s:int ->
  (int * float) option

(** [best ~params ~s bounds] picks the bound evaluating highest at the given
    point, restricted to those applicable there (small-cache bounds require
    [S <= W]). *)
val best : params:(string * int) list -> s:int -> t list -> t option

(** A maximal integer cache-size range on which one bound (or none) wins
    {!best}. *)
type winner_range = { s_from : int; s_to : int; winner : t option }

(** [best_regions ~params ~lo ~hi bounds] partitions the integer range
    [[lo, hi]] of cache sizes into maximal ranges by winning bound: the
    regime table (e.g. Thm 5's [S <= M/2] vs [M/2 <= S] hand split) read
    off mechanically.  The range is cut at every applicability edge (each
    bound's [s_hi] at [params]), and each piece is refined by bisection
    wherever the winners at its ends differ.  Whatever the formulas, a
    switch that both appears and reverts strictly inside a piece whose
    ends agree is missed.  Ranges are contiguous, ascending, and cover
    [[lo, hi]]. *)
val best_regions :
  params:(string * int) list ->
  lo:int ->
  hi:int ->
  t list ->
  winner_range list

val pp : Format.formatter -> t -> unit
