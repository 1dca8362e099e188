(** Fully-associative cache simulator at cell granularity.

    This realises the paper's two-level memory model: a fast memory holding
    at most [size] data elements in front of an unbounded slow memory.
    Reads of absent cells count as loads; writes allocate in fast memory
    without a fetch (every write in the paper's kernels fully overwrites the
    cell); evictions of dirty cells (and the final flush) count as stores.

    Two replacement policies are provided: LRU, and Belady's OPT (evict the
    line whose next {e read} is farthest, treating lines that are
    overwritten before being re-read as dead).  OPT is the model-faithful
    policy for measuring a schedule's intrinsic I/O; LRU shows what a real
    cache would do.

    Simulators consume pre-interned {!Trace.t} values and run entirely on
    dense int cell ids and flat arrays: no hashing in the simulation loops,
    and simulating the same trace at many cache sizes reuses one
    interning. *)

type stats = {
  loads : int;  (** reads that missed *)
  stores : int;  (** dirty evictions, plus the final flush if requested *)
  read_hits : int;
  accesses : int;
}

(** Total data movement [loads + stores]. *)
val io : stats -> int

(** [lru ~size ?flush trace]. [flush] (default [true]) counts dirty lines
    remaining at the end as stores.  One [Cache_sim] budget checkpoint per
    trace event. @raise Invalid_argument if [size < 1].
    @raise Iolb_util.Budget.Exhausted when the budget runs out. *)
val lru :
  ?budget:Iolb_util.Budget.t -> size:int -> ?flush:bool -> Trace.t -> stats

(** [opt ~size ?flush trace]: Belady's clairvoyant policy.  Budget as
    {!lru}.  Equivalent to {!opt_plan} followed by {!opt_run}. *)
val opt :
  ?budget:Iolb_util.Budget.t -> size:int -> ?flush:bool -> Trace.t -> stats

(** Size-independent part of an OPT simulation: the backward next-read scan
    over the trace.  Build it once per trace and share it, read-only,
    across the per-size runs of a sweep (including a {!Iolb_util.Pool}
    fan-out), like [Game.plan] shares its next-use scan. *)
type opt_plan

(** [opt_plan trace] precomputes each access's eviction key, in one
    backward scan (one [Cache_sim] budget checkpoint per trace event): the
    position of the accessed cell's next read, or, when the cell is
    overwritten or never touched again before that, [n + i] for access [i]
    of a trace of length [n].  Dead values thus rank above live ones, the
    most recently dead first, and no two keys are equal. *)
val opt_plan : ?budget:Iolb_util.Budget.t -> Trace.t -> opt_plan

(** The trace a plan was built from. *)
val opt_plan_trace : opt_plan -> Trace.t

(** [opt_run ~size ?flush plan] is [opt ~size ?flush] on the plan's trace,
    reusing the precomputed scan.  The cached cells sit in a
    {!Next_use_heap} of [min size footprint] slots, so a run costs
    O(log size) per access and allocates nothing proportional to [size]:
    a hit re-keys the cell, a miss at capacity evicts the top.  Every
    key is unique, so [loads], [read_hits] and [stores] are functions of
    the trace and [size] alone.
    @raise Invalid_argument if [size < 1]. *)
val opt_run :
  ?budget:Iolb_util.Budget.t -> size:int -> ?flush:bool -> opt_plan -> stats

(** [opt_heap_peak ~size ?flush trace] is the eviction heap's high-water
    mark over a full OPT run: its final occupancy, since a cell leaves
    only to make room for another, so at most [min size footprint]
    (diagnostics; tests pin it to [size]). *)
val opt_heap_peak : size:int -> ?flush:bool -> Trace.t -> int

(** [cold trace] is the compulsory-miss statistics (infinite cache). *)
val cold : Trace.t -> stats

val pp_stats : Format.formatter -> stats -> unit
