(** Exact rational arithmetic over native 63-bit integers.

    All values are kept in canonical form: the denominator is positive and
    [gcd (abs num) den = 1].  Arithmetic is overflow-checked; an operation
    whose exact result does not fit in a native [int] raises {!Overflow}.
    The coefficients arising in the I/O lower-bound derivations (Brascamp-Lieb
    exponents, polynomial coefficients of the bound formulas) are tiny, so
    native precision is ample; the check guards against silent corruption. *)

type t

exception Overflow

exception Division_by_zero

val zero : t
val one : t
val minus_one : t
val two : t
val half : t

(** [make num den] is the canonical rational [num/den].
    @raise Division_by_zero if [den = 0]. *)
val make : int -> int -> t

(** [of_int n] is the rational [n/1]. *)
val of_int : int -> t

val num : t -> int
val den : t -> int

(** [is_integer q] holds iff the denominator of [q] is [1]. *)
val is_integer : t -> bool

(** [to_int q] is the integer value of [q].
    @raise Invalid_argument if [q] is not an integer. *)
val to_int : t -> int

val to_float : t -> float

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [sub_mul a f p] is [sub a (mul f p)], the elimination step of the
    simplex tableau, allocating only its result (nothing when [f] or [p]
    is zero, which returns [a]).  It raises {!Overflow} exactly when
    [sub a (mul f p)] does. *)
val sub_mul : t -> t -> t -> t

(** @raise Division_by_zero if the divisor is zero. *)
val div : t -> t -> t

val neg : t -> t
val abs : t -> t

(** [inv q] is [1/q]. @raise Division_by_zero if [q] is zero. *)
val inv : t -> t

(** [pow q n] is [q] raised to the (possibly negative) power [n]. *)
val pow : t -> int -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val sign : t -> int
val is_zero : t -> bool
val min : t -> t -> t
val max : t -> t -> t

(** [floor q] ([ceil q]) is the greatest (least) integer below (above) [q]. *)
val floor : t -> int

val ceil : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Overflow-checked native [int] arithmetic, shared with integer
    callers (the loop-nest access counts, Sturm's content normalisation)
    that must keep exactly the same overflow behaviour.
    @raise Overflow when the exact result does not fit in an [int]. *)

val add_exn : int -> int -> int

val mul_exn : int -> int -> int

(** [gcd_int a b] is the non-negative gcd of [abs a] and [abs b]. *)
val gcd_int : int -> int -> int

(** Infix aliases, intended for local [open Rat.Infix]. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
