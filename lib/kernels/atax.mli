(** ATAX (Polybench): y = A^T (A x).  A 2-D kernel with no superlinear data
    reuse: the best Brascamp-Lieb exponent is 1, so the K-partitioning
    method yields no S-dependent bound (the I/O is just Theta(inputs)).
    Serves as the matvec-class negative control for the engine. *)

(** [run a x] computes [A^T (A x)]. *)
val run : Matrix.t -> float array -> float array
