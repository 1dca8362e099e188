(** Symmetric rank-k update: C (lower) += A * A^T for an [n x k] A.

    Studied by Beaumont, Eyraud-Dubois, Langou and Verite (SPAA'22, the
    paper's reference [4]) with a specialised tight proof; here it serves
    as a classical-path kernel: three 2-D projections, rho = 3/2. *)

(** [run a] computes the full symmetric [n x n] product [a * a^T]. *)
val run : Matrix.t -> Matrix.t
