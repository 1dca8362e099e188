(** Affine expressions with integer coefficients over named variables.

    A variable may be an iteration dimension (e.g. [i], [j], [k]) or a
    program parameter (e.g. [M], [N]); the distinction is made by the
    context of use, not by the representation. *)

type t

val zero : t
val const : int -> t
val var : string -> t

(** [term c x] is the expression [c * x]. *)
val term : int -> string -> t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : int -> t -> t

(** [coeff x e] is the coefficient of variable [x] in [e] (0 if absent). *)
val coeff : string -> t -> int

val constant : t -> int

(** [vars e] is the sorted list of variables with non-zero coefficient. *)
val vars : t -> string list

(** [is_constant e] is [Some c] iff [e] has no variables. *)
val is_constant : t -> int option

val equal : t -> t -> bool
val compare : t -> t -> int

(** [eval env e] with [env] total on [vars e]. @raise Not_found otherwise. *)
val eval : (string -> int) -> t -> int

(** [subst x e' e] replaces variable [x] by expression [e']. *)
val subst : string -> t -> t -> t

(** Exact conversion to a symbolic polynomial (degree <= 1). *)
val to_polynomial : t -> Iolb_symbolic.Polynomial.t

(** [of_terms terms const] builds [sum c_i * x_i + const]. *)
val of_terms : (int * string) list -> int -> t

(** Inverse view of {!of_terms}: the terms in increasing variable order. *)
val terms : t -> (int * string) list

val pp : Format.formatter -> t -> unit
val to_string : t -> string
