(** Exact real-root isolation for univariate polynomials over
    {!Iolb_util.Rat}, via (generalised) Sturm sequences.

    This is the root-finding half of the regime analysis: the crossing
    points of two bound formulas in [S] are the roots of
    [num1 den2 - num2 den1], and isolating them exactly gives the change
    points of the winning bound (see {!Iolb.Derive.best_regions}).

    Everything is exact.  Remainder sequences are content-normalised
    (scaled to coprime integer coefficients) at every step, which keeps
    coefficients small in practice but can still overflow the 63-bit
    rationals on adversarial inputs: callers must be prepared for
    {!Iolb_util.Rat.Overflow} as well as {!Gave_up}, and fall back to a
    non-symbolic path. *)

(** Raised when the input leaves the supported fragment (multivariate
    polynomial, the zero polynomial, or an isolation that fails to
    converge within the depth cap). *)
exception Gave_up

(** Dense univariate polynomial; index = degree. *)
type t

(** Lowest-degree coefficient first. *)
val of_coeffs : Iolb_util.Rat.t list -> t

(** View a {!Polynomial.t} as univariate in [var].
    @raise Gave_up if any other variable occurs. *)
val of_polynomial : var:string -> Polynomial.t -> t

(** [-1] for the zero polynomial. *)
val degree : t -> int

val eval : t -> Iolb_util.Rat.t -> Iolb_util.Rat.t

(** Disjoint intervals [(a, b]], in increasing order, each of width at
    most 1 and containing exactly one distinct real root of [p], covering
    every root in [[lo, hi]] (the probed interval is widened slightly, so
    roots at the endpoints are found and a few roots just outside may
    also be reported — harmless for change-point hints).
    @raise Gave_up on the zero polynomial or non-convergence.
    @raise Invalid_argument if [lo > hi]. *)
val isolate_roots :
  t ->
  lo:Iolb_util.Rat.t ->
  hi:Iolb_util.Rat.t ->
  (Iolb_util.Rat.t * Iolb_util.Rat.t) list
