(** Triangular matrix multiplication (Polybench flavour): B := A * B with
    unit-lower-triangular A, computed as
    [B(i,j) += sum_{k > i} A(k,i) * B(k,j)].  Classical
    Theta(M^2 N / sqrt S) kernel, no hourglass (the update never feeds a
    later temporal iteration of itself through a reduction). *)

(** [run a b] with [a] unit lower triangular [m x m], [b] of size [m x n]. *)
val run : Matrix.t -> Matrix.t -> Matrix.t
