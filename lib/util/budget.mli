(** Resource budgets for the derivation engine.

    The engine's hot paths (CDAG instantiation, pebble-game and cache
    simulation, bound derivation) are potentially
    exponential or memory-hungry on adversarial inputs.  A [Budget.t] turns
    runaway work into a controlled outcome: the hot loops call {!checkpoint}
    at each unit of work, and the checkpoint raises {!Exhausted} once a step
    cap, a wall-clock deadline, or a node cap is hit.  Public entry points
    catch the exception and surface it as a typed {!Engine_error.t}; the
    derivation ladder uses it to fall back to cheaper (weaker) bounds.

    A budget is a mutable, single-use witness of one engine invocation.
    Share one budget across the stages of a pipeline so the caps apply to
    the whole run; create a fresh one per run.  Counters are atomic, so a
    budget may also be shared by the domains of a {!Pool} fan-out: the caps
    then bound the combined work of all workers, and the fault hook fires
    exactly once. *)

(** The instrumented engine stages, in pipeline order. *)
type stage =
  | Cdag_build  (** [Cdag.of_program] / [Trace.of_program] instantiation *)
  | Pebble_game  (** [Game.run_plan] *)
  | Cache_sim  (** [Sweep] and the [Cache] simulators *)
  | Derivation  (** hourglass detection/verification and bound derivation *)

val stage_name : stage -> string

type t

(** Raised by {!checkpoint} (and friends) when the budget is exhausted.
    Reaches the user only as [Engine_error.Budget_exhausted]. *)
exception Exhausted of stage

(** A shared budget with no limits and no fault hook: checkpoints on it
    never raise.  Do not install faults on it. *)
val unlimited : t

(** [make ()] is a fresh budget.
    @param max_steps cap on the total number of checkpoints across stages.
    @param timeout_ms wall-clock deadline, measured from [make].
    @param max_nodes cap on the size of any single instantiated CDAG/trace.
    @param fault fault-injection hook: [(stage, k)] forces {!Exhausted} at
      the [k]-th checkpoint of [stage] (1-based), regardless of the caps.
      Later checkpoints of that stage are unaffected (one-shot), so
      degradation paths can be exercised deterministically. *)
val make :
  ?max_steps:int ->
  ?timeout_ms:int ->
  ?max_nodes:int ->
  ?fault:stage * int ->
  unit ->
  t

(** [without_node_cap t] is [t] without its node cap, sharing its
    deadline, step cap, fault hook and counters. *)
val without_node_cap : t -> t

(** [checkpoint t stage] accounts one unit of work.  Raises {!Exhausted} if
    the step cap is exceeded, the deadline has passed, or the fault hook
    fires.  Step, node and fault caps are exact; the wall clock is only
    polled once every {!deadline_stride} steps (amortising the
    [gettimeofday] call out of the innermost loops), so deadline detection
    inside a hot loop lags by at most one stride.  Paths that must detect a
    deadline promptly regardless of step count (e.g. between ladder rungs)
    call {!check_deadline} directly.  O(1), safe in innermost loops. *)
val checkpoint : t -> stage -> unit

(** Steps between two wall-clock polls in {!checkpoint} (a power of two). *)
val deadline_stride : int

(** [check_deadline t stage] checks only the wall-clock deadline,
    unconditionally.  Used by last-resort fallback paths that must stay
    cheap but still honour a timeout, and between ladder rungs. *)
val check_deadline : t -> stage -> unit

(** [check_node_cap t stage count] raises {!Exhausted} when [count] exceeds
    the [max_nodes] cap.  [count] is the caller's local structure size (a
    per-structure cap, not a cumulative counter). *)
val check_node_cap : t -> stage -> int -> unit

(** Total checkpoints accounted so far (all stages). *)
val steps : t -> int

(** Checkpoints accounted for one stage (used by the fault-injection
    tests to prove a stage was actually exercised). *)
val stage_steps : t -> stage -> int

val is_unlimited : t -> bool
