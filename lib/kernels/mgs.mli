(** Modified Gram-Schmidt (MGS): the tiled ordering of Appendix A.1.

    The right-looking polyhedral program of the paper (Figure 1), input to
    the lower-bound engine, is [examples/kernels/mgs.iolb].  The ordering
    here is a concrete (parameter-free) program over the same statements,
    for trace generation and cache simulation.  It normalises in place:
    its [A] ends where the registry program's [Q] does, and its [R] where
    the program's [R] does, which the term check in
    [test/test_kernel_errors.ml] verifies cell by cell. *)

(** [tiled_spec ~m ~n ~b] is the Figure 8 left-looking ordering, whose I/O
    matches the new lower bound when [(M+1)*B < S].  Requires [1 <= b] and
    [b] dividing [n]. *)
val tiled_spec : m:int -> n:int -> b:int -> Iolb_ir.Program.t
