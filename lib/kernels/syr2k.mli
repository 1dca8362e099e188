(** Symmetric rank-2k update: C (lower) += A B^T + B A^T, from the
    Polybench suite the paper's IOLB reference evaluates on.  Classical
    Theta(N^2 K / sqrt S) kernel, no hourglass. *)

(** [run a b] computes the full symmetric [n x n] result. *)
val run : Matrix.t -> Matrix.t -> Matrix.t
