(** Multivariate polynomials with exact rational coefficients.

    This is the symbolic substrate of the lower-bound engine: iteration-domain
    cardinalities, hourglass widths and the final bound formulas are all
    represented as polynomials (or ratios of polynomials, see {!Ratfun}) in
    the program parameters (e.g. [M], [N], [S]).

    Polynomials are kept in canonical form: a map from monomials to non-zero
    rational coefficients, so structural equality is semantic equality. *)

type t

val zero : t
val one : t
val of_rat : Iolb_util.Rat.t -> t
val of_int : int -> t

(** [var x] is the polynomial consisting of the single variable [x]. *)
val var : string -> t

val monomial : Iolb_util.Rat.t -> Monomial.t -> t

(** [terms p] lists (coefficient, monomial) pairs; coefficients are non-zero
    and monomials distinct, in increasing monomial order. *)
val terms : t -> (Iolb_util.Rat.t * Monomial.t) list

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val scale : Iolb_util.Rat.t -> t -> t

(** [pow p n] for non-negative [n]. @raise Invalid_argument if [n < 0]. *)
val pow : t -> int -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val is_zero : t -> bool

(** [is_constant p] is [Some c] iff [p] is the constant polynomial [c]. *)
val is_constant : t -> Iolb_util.Rat.t option

val degree : t -> int
val degree_in : string -> t -> int
val vars : t -> string list

(** [eval env p] evaluates [p]; @raise Not_found on unbound variables. *)
val eval : (string -> Iolb_util.Rat.t) -> t -> Iolb_util.Rat.t

(** [eval_int bindings p] evaluates with integer values for the variables
    and returns the exact rational result. *)
val eval_int : (string * int) list -> t -> Iolb_util.Rat.t

(** [eval_float bindings p] evaluates in floating point; use for large
    parameter values where the exact evaluation could overflow native ints. *)
val eval_float : (string * int) list -> t -> float

(** [eval_float_env env p] evaluates in floating point with an arbitrary
    variable environment (e.g. to bind [sqrtS] to a non-integer value). *)
val eval_float_env : (string -> float) -> t -> float

(** [subst x q p] substitutes polynomial [q] for every occurrence of [x]. *)
val subst : string -> t -> t -> t

(** [as_univariate x p] views [p] as a polynomial in [x]: returns the list
    [(c_0, c_1, ..., c_d)] of coefficient polynomials (not containing [x])
    such that [p = sum c_i * x^i]. *)
val as_univariate : string -> t -> t list

(** [sum_over x ~lo ~hi p] is the closed-form polynomial equal to
    [sum_{x = lo}^{hi} p] (Faulhaber summation), where [lo] and [hi] are
    polynomials not containing [x].  The result is the standard polynomial
    extension used in polyhedral counting: it agrees with the concrete sum
    whenever [hi >= lo - 1] (in particular it is 0 when [hi = lo - 1]). *)
val sum_over : string -> lo:t -> hi:t -> t -> t

(** [faulhaber m] is the polynomial [F_m] in the variable ["n"] with
    [F_m(n) = sum_{k=0}^{n} k^m] for all integers [n >= -1]. *)
val faulhaber : int -> t

(** Leading term of [p] when every variable goes to infinity at the same
    rate: the terms of maximal total degree. *)
val leading_terms : t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( ~- ) : t -> t
end
