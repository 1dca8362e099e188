(** Modified Gram-Schmidt (MGS): the tiled orderings of Appendix A.1.

    The right-looking polyhedral program of the paper (Figure 1), input to
    the lower-bound engine, is [examples/kernels/mgs.iolb].  The orderings
    here are concrete (parameter-free) programs over the same statements,
    for trace generation and cache simulation.  They normalise in place:
    their [A] ends where the registry program's [Q] does, and their [R]
    where its [R] does, which the term check in
    [test/test_kernel_errors.ml] verifies cell by cell. *)

(** [tiled_spec ~m ~n ~b] is the Figure 8 left-looking ordering, whose I/O
    matches the new lower bound when [(M+1)*B < S].  Requires [1 <= b] and
    [b] dividing [n]. *)
val tiled_spec : m:int -> n:int -> b:int -> Iolb_ir.Program.t

(** [tiled_right_spec ~m ~n ~b] is the right-looking tiled variant the
    paper's Appendix A.1 remarks on: same asymptotic I/O, but the trailing
    matrix is read {e and written} once per block, so the constant is
    higher and dominated by writes.  For the left-vs-right ablation. *)
val tiled_right_spec : m:int -> n:int -> b:int -> Iolb_ir.Program.t
