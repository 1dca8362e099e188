(** Affine constraints: [e >= 0] or [e = 0] for an affine expression [e]. *)

type kind = Ge | Eq

type t = { expr : Affine.t; kind : kind }

(** [ge e] is the constraint [e >= 0]. *)
val ge : Affine.t -> t

(** [le_of a b] is [a <= b]; [ge_of a b] is [a >= b]; [eq_of a b] is [a = b]. *)
val le_of : Affine.t -> Affine.t -> t

val ge_of : Affine.t -> Affine.t -> t
val eq_of : Affine.t -> Affine.t -> t

(** [lt_of a b] is the integer strictness rewrite [a <= b - 1]. *)
val lt_of : Affine.t -> Affine.t -> t

val satisfied : (string -> int) -> t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
