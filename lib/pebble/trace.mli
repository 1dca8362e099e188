(** Memory access traces.

    A trace is the sequence of cell reads/writes performed by a concrete
    schedule of a program.  Traces are what the cache simulator consumes;
    they can come from a program's compiled plan ({!Iolb_ir.Cplan}, the
    untiled program order) or from hand-scheduled tiled algorithms
    (Appendix A of the paper).

    Representation: events are stored as flat arrays of cell ids and
    read/write flags.  Ids number the cells by first occurrence, as
    {!Iolb_ir.Cplan.iter} emits them, so a trace keeps no cell table:
    only its footprint.  Simulators index straight into the arrays - no
    per-invocation interning, no polymorphic hashing, and O(1)
    {!length}/{!footprint}.  A trace is immutable after construction and
    safe to share read-only across a {!Iolb_util.Pool} fan-out. *)

type cell = string * int array

type event = Read of cell | Write of cell

type t

(** [of_program ~params p] is the trace of the program executed in textual
    order: for each instance, its reads then its writes, one
    {!Iolb_ir.Cplan.iter} walk.  Instantiation is accounted against the
    budget's [Cdag_build] stage (one checkpoint per instance); on a
    budget that is not unlimited, the node cap is checked once, against
    the closed-form instance count ({!Iolb_ir.Cplan.n_instances}), before
    the event arrays are allocated.
    @raise Iolb_util.Budget.Exhausted when the budget runs out.
    @raise Iolb_util.Engine_error.Error with [Invalid_input] when the
    access count exceeds [max_int]. *)
val of_program :
  ?budget:Iolb_util.Budget.t ->
  params:(string * int) list ->
  Iolb_ir.Program.t ->
  t

(** [of_events evs] interns an explicit event sequence (hand-written traces
    in tests and experiments). *)
val of_events : event list -> t

(** Number of events. O(1). *)
val length : t -> int

(** Number of distinct cells touched by the trace. O(1). *)
val footprint : t -> int

(** {1 Indexed access (used by the simulators)} *)

(** [cell_id t i] is the dense id of the cell accessed by event [i]:
    ids lie in [0 .. footprint t - 1] and number the cells in order of
    first occurrence. *)
val cell_id : t -> int -> int

(** [is_write t i]: is event [i] a write? *)
val is_write : t -> int -> bool

(** Raw event storage, borrowed read-only by the simulators' inner loops
    (a cross-module accessor call per event is measurable there): both
    arrays have {!length} entries.  Never mutate them. *)
val cells : t -> int array

val write_flags : t -> bool array
