(** Reduction of an [m x n] ([m >= n]) matrix to upper bidiagonal form by
    alternating left/right Householder reflections (LAPACK [GEBD2]).

    The paper derives for this kernel the hourglass bound
    [M N^2 (M-N+1) / (8 (S + M - N + 1)) <= Q] (Theorem 8). *)

type result = {
  a : Matrix.t;  (** bidiagonal in place, reflector tails below/right *)
  tauq : float array;  (** column (left) reflector scalars, length n *)
  taup : float array;  (** row (right) reflector scalars, length n *)
}

(** [reduce a] for [m >= n >= 1]. *)
val reduce : Matrix.t -> result

(** [bidiagonal_of r] extracts the [n x n] upper bidiagonal factor B. *)
val bidiagonal_of : result -> Matrix.t

(** [q_of r] accumulates the left orthogonal factor Q ([m x m]). *)
val q_of : result -> Matrix.t

(** [p_of r] accumulates the right orthogonal factor P ([n x n]), such that
    [A = Q * [B; 0] * P^T]. *)
val p_of : result -> Matrix.t
