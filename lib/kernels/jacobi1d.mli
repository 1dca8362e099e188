(** Jacobi 1-D stencil (two-array variant), a negative control for the
    engine: stencil dependence graphs defeat the K-partitioning method (the
    self-array access already spans all dimensions, so the best
    Brascamp-Lieb exponent is 1 and no useful bound follows) - they are the
    domain of the wavefront technique the paper cites [10], which is out of
    scope for this reproduction. *)

(** [run ~steps src] applies [steps] three-point smoothing sweeps to the
    float array (boundaries held fixed). *)
val run : steps:int -> float array -> float array
