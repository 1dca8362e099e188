(** Derivation of the projection set Phi of a statement.

    Following the K-partitioning method (Section 2 of the paper), every read
    access of a statement starts a dependence path out of a K-bounded set
    [E]; when the access is a coordinate selection of the iteration vector
    (the only shape occurring in the paper's kernels), the path maps [E]
    onto the projection of [E] on the selected dimensions, whose image can
    be charged to [InSet(E)].  The set of these coordinate projections is
    the input of the Brascamp-Lieb step. *)

type t = {
  dims : string list;  (** the projected-onto dimensions, sorted *)
  source : string;  (** the array access that induced it (for reports) *)
}

(** [of_statement p info] is the deduplicated list of projections induced
    by the read accesses of the statement.  Each projection's dimensions are
    the access's selected (cell) dimensions, extended by {e version
    pinning}: when the value is produced by other statements, it is also
    identified by the iteration of the loops shared with every producer, so
    those loop dimensions are added (e.g. the [tau[j]] read of the A2V
    update statement yields phi_{k,j}).  Pinning is refused when it would
    produce a full-dimensional projection, which would assert [|E| <= K]
    outright - unsupported by per-statement charging; the bare cell
    projection is kept instead.  Reads that pin no dimension at all induce
    the empty projection and are dropped.  Reads whose index expressions
    are not coordinate selections are rejected.

    @raise Iolb_util.Engine_error.Error [Unsupported] on a
    non-coordinate access, with its text. *)
val of_statement :
  ?version_pinning:bool ->
  Iolb_ir.Program.t ->
  Iolb_ir.Program.stmt_info ->
  t list
(** [version_pinning] defaults to [true]; pass [false] to get the raw
    access projections (the ablation shows this weakens e.g. the A2V
    classical exponent from 3/2 to 2). *)

(** [mem dim p] tests whether [dim] is projected on. *)
val mem : string -> t -> bool

val pp : Format.formatter -> t -> unit
