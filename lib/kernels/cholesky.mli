(** Left-looking Cholesky factorisation (A = L L^T, lower triangular).

    A baseline kernel without an hourglass pattern: its single update
    statement cannot pair with a distinct reduction statement, so the
    engine must fall back to the classical Theta(N^3 / sqrt S) bound -
    which is known to be tight (blocked Cholesky achieves it). *)

(** [factor a] returns the lower-triangular [l] with [a = l * l^T], for a
    symmetric positive-definite [a].  @raise Invalid_argument if a pivot is
    non-positive (not SPD). *)
val factor : Matrix.t -> Matrix.t

(** Deterministic SPD test matrix: [A^T A + n I] from a random [A]. *)
val random_spd : ?seed:int -> int -> Matrix.t
