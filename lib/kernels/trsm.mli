(** Triangular solve with multiple right-hand sides: X = L^-1 B for a unit
    or non-unit lower-triangular [n x n] L and an [n x m] B, column by
    column.  Classical-path baseline. *)

(** [solve l b] returns X with [l * x = b]; [l] must be lower triangular
    with non-zero diagonal. *)
val solve : Matrix.t -> Matrix.t -> Matrix.t
