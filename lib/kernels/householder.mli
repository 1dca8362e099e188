(** Householder QR: the A2V factor-extraction pass (LAPACK [GEQR2],
    Figure 3) and the V2Q orthogonal-factor construction (LAPACK [ORG2R],
    Figure 6), plus the tiled left-looking A2V ordering of Appendix A.2
    (Figure 9). *)

(** The A2V polyhedral program over [M] (rows) and [N] (columns), [M > N];
    the hourglass is between statements [SR] and [SU] with width [M - 1 - k]
    (minimum [M - N]). *)
val a2v_spec : Iolb_ir.Program.t

(** The V2Q polyhedral program (outer loop descending). *)
val v2q_spec : Iolb_ir.Program.t

(** [generate_reflector a k] runs the Figure 3 reflector generator on
    column [k] of [a] (rows [k..m-1]) in place and returns [tau]:
    afterwards [a(k,k)] holds the R diagonal entry and [a(i,k)], [i > k],
    the normalised reflector tail.  Shared with {!Gebd2}. *)
val generate_reflector : Matrix.t -> int -> float

(** [apply_reflector a ~k ~tau j] applies the reflector stored in column [k]
    (implicit unit at [k]) to column [j], rows [k..m-1]. *)
val apply_reflector : Matrix.t -> k:int -> tau:float -> int -> unit

type factors = {
  vr : Matrix.t;  (** V below the diagonal (unit implicit), R on and above *)
  tau : float array;
}

(** [geqr2 a] computes the in-place Householder QR of an [m x n] matrix
    with [m >= n], following Figure 3. *)
val geqr2 : Matrix.t -> factors

(** [org2r f ~rows] expands the reflectors of [f] into the [rows x n]
    orthonormal factor, following Figure 6. *)
val org2r : factors -> rows:int -> Matrix.t

(** [r_of f] extracts the upper-triangular [n x n] factor. *)
val r_of : factors -> Matrix.t

(** [qr a] is the convenience composition: [(q, r)] with [a = q * r]. *)
val qr : Matrix.t -> Matrix.t * Matrix.t

(** [geqr2_tiled ~b a]: the Figure 9 left-looking tiled ordering. *)
val geqr2_tiled : b:int -> Matrix.t -> factors

(** [tiled_spec ~m ~n ~b]: the Figure 9 ordering as a concrete program for
    trace generation; requires [b >= 1] and [b] dividing [n]. *)
val tiled_spec : m:int -> n:int -> b:int -> Iolb_ir.Program.t
