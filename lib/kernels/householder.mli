(** Householder QR: the tiled left-looking A2V ordering of Appendix A.2
    (Figure 9).  The A2V (LAPACK [GEQR2], Figure 3) and V2Q ([ORG2R],
    Figure 6) polyhedral programs are [examples/kernels/qr_hh_a2v.iolb] and
    [qr_hh_v2q.iolb]; the ordering here ends with the same [A] and [tau]
    as the A2V program, which the term check in
    [test/test_kernel_errors.ml] verifies cell by cell. *)

(** [tiled_spec ~m ~n ~b]: the Figure 9 ordering as a concrete program for
    trace generation; requires [b >= 1] and [b] dividing [n]. *)
val tiled_spec : m:int -> n:int -> b:int -> Iolb_ir.Program.t
