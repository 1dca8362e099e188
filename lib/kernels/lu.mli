(** Right-looking LU factorisation without pivoting.

    Another no-hourglass baseline: the classical K-partition bound
    Theta(N^3 / sqrt S) is asymptotically tight for it. *)

(** [factor a] factors in place-style: returns [(l, u)] with unit-diagonal
    [l], for a matrix with non-vanishing leading minors (e.g. diagonally
    dominant).  @raise Invalid_argument on a zero pivot. *)
val factor : Matrix.t -> Matrix.t * Matrix.t

(** Deterministic diagonally-dominant test matrix. *)
val random_dd : ?seed:int -> int -> Matrix.t
