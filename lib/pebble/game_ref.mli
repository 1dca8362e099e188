(** Reference implementation of the red-white pebble game: the pre-compiled
    engine, kept as the differential oracle for {!Game} (the
    [game-compiled] check property).  Same semantics, same API, same
    results - {!Game} is the one to use; this one exists to be compared
    against.

    Inputs start with white pebbles; computing a node requires red pebbles
    on all its predecessors and places a white and a red pebble on it; red
    pebbles may be discarded at any time (spills are free, only {b Load}
    steps are counted, as in the paper).  For a fixed compute order the
    minimum number of loads is achieved by clairvoyant (Belady) discarding
    of red pebbles. *)

type result = {
  loads : int;  (** red pebbles placed on already-white nodes *)
  peak_red : int;  (** maximum number of simultaneous red pebbles *)
}

exception Infeasible of string
(** Raised when some node needs more than [s] red pebbles at once. *)

(** [run cdag ~s ~schedule] plays the game with fast-memory size [s] over
    the compute nodes in [schedule] order.  One [Pebble_game] budget
    checkpoint is accounted per scheduled node.
    @raise Infeasible if [s] is too small for some node's fan-in.
    @raise Iolb_util.Budget.Exhausted when the budget runs out.
    @raise Invalid_argument if [schedule] is not a valid topological order
    of the compute nodes. *)
val run :
  ?budget:Iolb_util.Budget.t -> Iolb_cdag.Cdag.t -> s:int -> schedule:int array -> result

(** A validated schedule with its use-position tables precomputed.  S-sweeps
    over a fixed schedule (the validation grids) pay the topological check
    and the use-position construction once instead of per cache size.  A
    plan is immutable; {!run_plan} keeps all per-run state private, so one
    plan can be run concurrently from several domains. *)
type plan

(** [plan cdag ~schedule] validates [schedule] and precomputes its
    use-position tables.
    @raise Invalid_argument if [schedule] is not a valid topological order
    of the compute nodes. *)
val plan : Iolb_cdag.Cdag.t -> schedule:int array -> plan

(** [run_plan plan ~s] is [run] on the plan's CDAG and schedule; same
    budget accounting and exceptions (except the schedule check, already
    done by {!plan}). *)
val run_plan : ?budget:Iolb_util.Budget.t -> plan -> s:int -> result

(** The compute nodes in program order (always a valid schedule). *)
val program_schedule : Iolb_cdag.Cdag.t -> int array

(** [is_topological cdag schedule]: [schedule] lists each compute node
    once, after its compute predecessors. *)
val is_topological : Iolb_cdag.Cdag.t -> int array -> bool

(** [random_topological ?seed cdag] draws a uniform-ish random topological
    order of the compute nodes (random tie-breaking among ready nodes). *)
val random_topological : ?seed:int -> Iolb_cdag.Cdag.t -> int array
