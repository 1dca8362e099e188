(** Reduction of an [n x n] matrix to upper Hessenberg form (LAPACK
    [GEHD2]), following the paper's Figure 7 verbatim.

    The paper derives the hourglass bound [N^4 / (12 (N + 2S)) <= Q]
    (Theorem 9); the hourglass width at outer iteration [j] is [N - 2 - j],
    handled by splitting the outer loop at a parameter [M]
    ([examples/kernels/gehd2.iolb], the registry program): the first half
    ([j < M]) keeps the hourglass property with width at least [N - M - 1]
    and the second half is analysed classically.  Splitting does not change
    the dependences (Section 5.3), so a bound for the first half is a bound
    for the program. *)

type result = {
  a : Matrix.t;  (** Hessenberg in place, reflector tails below *)
  taus : float array;  (** reflector scalars (scalar [tau] in the listing) *)
}

(** [reduce a] for square [a] with [n >= 1]. *)
val reduce : Matrix.t -> result

(** [hessenberg_of r] extracts H (zeroing the reflector tails). *)
val hessenberg_of : result -> Matrix.t

(** [q_of r] accumulates Q with [A = Q * H * Q^T]. *)
val q_of : result -> Matrix.t
