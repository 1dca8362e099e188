(** Memory access traces.

    A trace is the sequence of cell reads/writes performed by a concrete
    schedule of a program.  Traces are what the cache simulator consumes;
    they can come from {!Iolb_ir.Program.iter_instances} (the untiled
    program order) or from hand-scheduled tiled algorithms (Appendix A of
    the paper).

    Representation: events are stored as flat arrays of interned cell ids
    and read/write flags, with the {!Iolb_ir.Interner} built once at
    construction.  Simulators index straight into the arrays - no
    per-invocation interning, no polymorphic hashing, and O(1)
    {!length}/{!footprint}.  A trace is immutable after construction and
    safe to share read-only across a {!Iolb_util.Pool} fan-out. *)

type cell = string * int array

type event = Read of cell | Write of cell

type t

(** [of_program ~params p] is the trace of the program executed in textual
    order: for each instance, its reads then its writes.  Instantiation is
    accounted against the budget's [Cdag_build] stage (one checkpoint per
    instance, node cap on the instance count).
    @raise Iolb_util.Budget.Exhausted when the budget runs out. *)
val of_program :
  ?budget:Iolb_util.Budget.t ->
  params:(string * int) list ->
  Iolb_ir.Program.t ->
  t

(** [instance_gate budget] is the budget hook of trace production, to be
    called once per statement instance: a [Cdag_build] checkpoint,
    counted against the node cap.  A no-op on an unlimited budget.
    Shared by {!of_program} and the program sweeps. *)
val instance_gate : Iolb_util.Budget.t -> unit -> unit

(** [of_events evs] interns an explicit event sequence (hand-written traces
    in tests and experiments). *)
val of_events : event list -> t

(** [dense_plan ~params p] is the compiled dense-address producer
    ({!Iolb_ir.Cplan}) for [p] at [params] when the program compiles and
    its address space fits the flat remap-table memory policy (2^23
    addresses) - the shared gate for every consumer that remaps addresses
    through a flat table ({!of_program}, the sharded sweep).  [None]
    means: interpret the program ({!Iolb_ir.Program.iter_accesses}) and
    intern its cells. *)
val dense_plan :
  params:(string * int) list -> Iolb_ir.Program.t -> Iolb_ir.Cplan.t option

(** Number of events. O(1). *)
val length : t -> int

(** Number of distinct cells touched by the trace. O(1). *)
val footprint : t -> int

(** {1 Indexed access (used by the simulators)} *)

(** [cell_id t i] is the dense id of the cell accessed by event [i];
    ids lie in [0 .. footprint t - 1]. *)
val cell_id : t -> int -> int

(** [is_write t i]: is event [i] a write? *)
val is_write : t -> int -> bool

(** Raw event storage, borrowed read-only by the simulators' inner loops
    (a cross-module accessor call per event is measurable there).  Only
    indices [0 .. length t - 1] are meaningful - the arrays may be
    oversized.  Never mutate them. *)
val cells : t -> int array

val write_flags : t -> bool array
