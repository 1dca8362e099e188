(** Modified Gram-Schmidt (MGS).

    The right-looking polyhedral program of the paper (Figure 1), input to
    the lower-bound engine, is [examples/kernels/mgs.iolb].  This module
    holds the executable views:
    - {!factor}: the right-looking factorisation;
    - {!factor_tiled} / {!tiled_spec}: the left-looking tiled ordering of
      Appendix A.1 (Figure 8), whose I/O matches the new lower bound when
      [(M+1)*B < S]. *)

(** [factor a] returns [(q, r)] with [a = q * r], [q] having orthonormal
    columns, for a full-column-rank [m x n] matrix with [m >= n]. *)
val factor : Matrix.t -> Matrix.t * Matrix.t

(** [factor_tiled ~b a]: the Figure 8 left-looking tiled ordering with block
    size [b >= 1].  Results are numerically equivalent to {!factor} up to
    rounding. *)
val factor_tiled : b:int -> Matrix.t -> Matrix.t * Matrix.t

(** [tiled_spec ~m ~n ~b] is the Figure 8 ordering as a concrete
    (parameter-free) program, for trace generation and cache simulation.
    Requires [1 <= b]. *)
val tiled_spec : m:int -> n:int -> b:int -> Iolb_ir.Program.t

(** [tiled_right_spec ~m ~n ~b] is the right-looking tiled variant the
    paper's Appendix A.1 remarks on: same asymptotic I/O, but the trailing
    matrix is read {e and written} once per block, so the constant is
    higher and dominated by writes.  For the left-vs-right ablation. *)
val tiled_right_spec : m:int -> n:int -> b:int -> Iolb_ir.Program.t
