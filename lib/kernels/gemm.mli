(** Dense matrix multiplication [C = A * B], the classical baseline
    ([examples/kernels/gemm.iolb]): its K-partition bound
    (Theta(MNK / sqrt(S))) has no hourglass improvement.  This module holds
    its cubic-blocked ordering, which ends with the same [C] as the
    registry program (the term check in [test/test_kernel_errors.ml]). *)

(** [tiled_spec ~m ~n ~k ~b] is the classic cubic-blocked ordering as a
    concrete program for trace generation (all of [b] must divide the
    corresponding sizes).  With [3 b^2 <= S] its I/O is
    [~ 2 m n k / b + m n], matching the classical lower bound's
    [Theta(m n k / sqrt S)] shape. *)
val tiled_spec : m:int -> n:int -> k:int -> b:int -> Iolb_ir.Program.t
