(** The red-white pebble game of the paper (Section 2), executed for a given
    schedule.

    Inputs start with white pebbles; computing a node requires red pebbles
    on all its predecessors and places a white and a red pebble on it; red
    pebbles may be discarded at any time (spills are free, only {b Load}
    steps are counted, as in the paper).  For a fixed compute order the
    minimum number of loads is achieved by clairvoyant (Belady) discarding
    of red pebbles, which is what [run] implements.

    This is the compiled engine: a {!plan} holds next-use tables, and a
    {!runner} keeps the red pebbles in a {!Next_use_heap} of at most S
    entries, O(log S) per access.  Its results equal the reference engine
    {!Game_ref}'s: the two may discard different pebbles with equal next
    uses, which changes neither [loads] nor [peak_red] (checked by the
    [game-compiled] oracle property). *)

type result = {
  loads : int;  (** red pebbles placed on already-white nodes *)
  peak_red : int;  (** maximum number of simultaneous red pebbles *)
}

(** [run cdag ~s ~schedule] plays the game with fast-memory size [s] over
    the compute nodes in [schedule] order.  One [Pebble_game] budget
    checkpoint is accounted per scheduled node.
    @raise Iolb_util.Engine_error.Error with [Invalid_input] if [s] is too
    small for some node's fan-in (an infeasible S).
    @raise Iolb_util.Budget.Exhausted when the budget runs out.
    @raise Invalid_argument if [schedule] is not a valid topological order
    of the compute nodes. *)
val run :
  ?budget:Iolb_util.Budget.t -> Iolb_cdag.Cdag.t -> s:int -> schedule:int array -> result

(** A validated schedule with its next-use tables precomputed.  S-sweeps
    over a fixed schedule (the validation grids) pay the topological check
    and the tables once instead of per cache size.  A plan is immutable;
    {!run_plan} keeps all per-run state private, so one plan can be run
    concurrently from several domains. *)
type plan

(** [plan cdag ~schedule] validates [schedule] and precomputes, for every
    predecessor each step reads, the next step reading it again.
    @raise Invalid_argument if [schedule] is not a valid topological order
    of the compute nodes. *)
val plan : Iolb_cdag.Cdag.t -> schedule:int array -> plan

(** [run_plan plan ~s] is [run] on the plan's CDAG and schedule; same
    budget accounting and exceptions (except the schedule check, already
    done by {!plan}).  Allocates a fresh {!runner} per call, which is what
    keeps it safe to call concurrently; S-sweeps over one plan from a
    single domain should build one runner and use {!run_runner}. *)
val run_plan : ?budget:Iolb_util.Budget.t -> plan -> s:int -> result

(** Reusable per-run state (the pebble bitset and heap) for one plan.  A
    grid of games over the same plan - the validation S-sweeps - resets
    these buffers per run instead of reallocating them.
    Not thread-safe: use one runner per domain. *)
type runner

val runner : plan -> runner

(** [run_runner runner ~s] is {!run_plan} on the runner's plan, reusing
    the runner's buffers.  Same results, budget accounting and
    exceptions. *)
val run_runner : ?budget:Iolb_util.Budget.t -> runner -> s:int -> result

(** The compute nodes in program order (always a valid schedule). *)
val program_schedule : Iolb_cdag.Cdag.t -> int array

(** [is_topological cdag schedule]: [schedule] lists each compute node
    once, after its compute predecessors. *)
val is_topological : Iolb_cdag.Cdag.t -> int array -> bool

(** [random_topological ?seed cdag] draws a uniform-ish random topological
    order of the compute nodes (random tie-breaking among ready nodes). *)
val random_topological : ?seed:int -> Iolb_cdag.Cdag.t -> int array

(** [priority_topological cdag ~priority] builds the topological order that
    always executes the ready compute node with the smallest [priority]
    (Kahn's algorithm with a priority queue).  With a locality-aware
    priority - e.g. grouping a statement's instances by column block - this
    produces tiled-like schedules whose pebble-game I/O approaches the
    lower bound from above. *)
val priority_topological :
  Iolb_cdag.Cdag.t -> priority:(stmt:string -> vec:int array -> int) -> int array
