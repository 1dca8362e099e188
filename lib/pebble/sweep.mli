(** Single-pass LRU cache sweeps over all sizes at once.

    LRU is a stack algorithm (Mattson et al. 1970): the cache of size S
    always holds the S most recently used distinct cells, so a read hits at
    size S iff its reuse (stack) distance d - the number of distinct other
    cells accessed since the previous access of the same cell - satisfies
    d < S.  One pass over the trace, computing every access's distance
    from a bitset of live last-access marks compacted to the footprint and
    a Fenwick tree over its 32-position words' counts (O(T log F) time,
    O(F) space for F distinct cells), therefore yields
    exact {!Cache.stats} for {e every} size simultaneously, including
    write-back stores (recovered from a parallel dirty-epoch interval
    construction; see the implementation header).  This is what makes
    validating bounds across a whole grid of cache sizes - the validation
    tables, the Appendix sweeps - cost one trace pass instead of one
    simulation per size.

    The exact entry points share one shard driver: the trace is cut into
    [jobs] contiguous time segments, swept in parallel and merged
    deterministically, so results are {e equal, field by field}, for any
    segment count (byte-identical output at every [--jobs] width), and
    agree exactly with {!Cache.lru} at every size.  Like every simulator
    here, a sweep ends with the final flush: cells still dirty in cache
    count as stores.  A sequential sweep is the one-segment case.

    Budget exhaustion raises; callers that need the no-raise boundary wrap
    the call in {!Iolb_util.Engine_error.guard}. *)

type t

(** [run ?jobs trace] sweeps a materialized trace in [jobs] segments
    (default 1: sequential) across domains.  One [Cache_sim] budget
    checkpoint per trace event, plus per distinct cell per segment at the
    merge and per distinct cell when closing the dirty epochs; every
    segment also polls the deadline at entry.
    @raise Invalid_argument if [jobs < 1].
    @raise Iolb_util.Budget.Exhausted when the budget runs out (possibly
    inside a shard domain). *)
val run : ?budget:Iolb_util.Budget.t -> ?jobs:int -> Trace.t -> t

(** [stats t ~size] is [Cache.lru ~size] on the swept trace, answered in
    O(1) from the precomputed histograms.
    @raise Invalid_argument if [size < 1]. *)
val stats : t -> size:int -> Cache.stats

(** Number of distinct cells of the swept trace; sizes [>= footprint]
    all behave like [footprint] (nothing ever evicts). *)
val footprint : t -> int

(** Number of trace events swept. *)
val accesses : t -> int

(** [distance_histogram t] is a copy of the reuse-distance histogram:
    entry [d] counts the reads with finite stack distance [d] (cold reads
    are not counted; they miss at every size). *)
val distance_histogram : t -> int array

(** [parse_sizes spec] parses the size-list syntax shared by the CLI and
    the bench: either a comma-separated list ["a,b,c"] or an inclusive
    range ["lo:hi:step"].  All sizes must be positive, and a range may
    name at most 1,000,000 sizes. *)
val parse_sizes : string -> (int list, string) result

(** {1 Program sweeps}

    These never materialize the trace: segments are produced straight out
    of the program, so memory follows the footprint, not the trace
    length.  [jobs] defaults to {!Iolb_util.Pool.default_jobs}. *)

(** [run_program ~params p] sweeps the access trace of program [p] at
    concrete [params]: each of [jobs] domains produces its own contiguous
    slice of the trace in place through the compiled plan's numbered walk
    ({!Iolb_ir.Cplan.iter}) - on a laid-out plan, flat integer address
    arithmetic with an O(depth) seek to the slice start, no hashing - and
    {!Iolb_ir.Cplan.globalize} numbers the slices' cells globally.  Equal
    to [run (Trace.of_program ~params p)] in every field.  Budget
    semantics combine the trace-build stage ([Cdag_build] checkpoints per
    statement instance) and the sweep stage ([Cache_sim] per event).  The
    node cap is checked once, against the whole stream's instance count
    ({!Iolb_ir.Cplan.n_instances}), before the fan-out, as
    {!Trace.of_program} checks it: a capped sweep fails or passes at
    every [jobs] width alike. *)
val run_program :
  ?budget:Iolb_util.Budget.t ->
  ?jobs:int ->
  params:(string * int) list ->
  Iolb_ir.Program.t ->
  t

(** [run_program_stream] is {!run_program}, kept under its former name
    for the bench's frozen golden writer. *)
val run_program_stream :
  ?budget:Iolb_util.Budget.t ->
  ?jobs:int ->
  params:(string * int) list ->
  Iolb_ir.Program.t ->
  t

(** {1 Sampled sweeps}

    SHARDS-style spatial sampling: a cell is kept iff
    [Iolb_ir.Cplan.sample_hash ~seed name index < rate * 2^62], so the
    kept set is a pure function of (seed, cell) and reuse distances of
    the kept subsequence scale by [rate].  A sweep of the sampled trace
    evaluated at size [round (S * rate)], scaled back by [1/rate],
    estimates the exact sweep at size [S].  The kept hash window is
    further split into 8 disjoint sub-windows - independent samples at
    [rate/8] - whose estimate spread yields the reported
    error bars.  The scan runs on the compiled plan
    ({!Iolb_ir.Cplan.iter_sampled}): every plan serves, and a dropped
    access costs a few nanoseconds at most - nothing on the long
    innermost loops of a dense address layout, whose kept accesses come
    from the kept addresses alone - which is what makes billion-access
    validation runs feasible.  Kept cells are told apart by array (name
    and rank) and hash, so one array name at two ranks keeps two cells
    where their hashes coincide. *)

type sampled

(** Point estimate with its confidence interval, [lo <= est <= hi].
    Exact results (rate 1) have zero width. *)
type estimate = { est : float; lo : float; hi : float }

(** The smallest sampling rate, 2^-62: the resolution of the 62-bit
    sampling hash, below which no keep threshold matches the rate. *)
val min_rate : float

(** [check_rate rate] is [Ok ()] when [rate] is a sampling rate: in
    (0, 1] and at least {!min_rate}.  Otherwise it is the rule [rate]
    breaks, worded to follow the rate's name: ["must be in (0, 1]"] or
    ["must be at least 2^-62, the sampling hash resolution"]. *)
val check_rate : float -> (unit, string) result

(** [run_sampled ~rate ~seed ~params p] scans the trace of [p] once,
    keeping cells at the given [rate], and sweeps the union sample plus
    8 disjoint sub-samples.  [rate >= 1] falls back to the exact
    {!run_program}, node cap check included.
    @raise Invalid_argument when {!check_rate} rejects [rate]. *)
val run_sampled :
  ?budget:Iolb_util.Budget.t ->
  rate:float ->
  seed:int ->
  params:(string * int) list ->
  Iolb_ir.Program.t ->
  sampled

(** [sampled_stats s ~size] estimates [(loads, read hits, stores)] of the
    exact sweep at [size].  Centres come from the union sample, capped at
    the total access count (no count can exceed it); interval
    half-widths are [max (4 * se, 2/rate + 2% of centre)] where [se] is
    the standard error across the per-group estimates.  When the sample
    is too thin to support a spread estimate ({!sampled_degenerate}),
    the interval degrades to the trivially-safe [0, total accesses].
    @raise Invalid_argument if [size < 1]. *)
val sampled_stats : sampled -> size:int -> estimate * estimate * estimate

(** [true] iff the requested rate reached 1 and the underlying sweep is
    exact ({!sampled_stats} then has zero-width intervals). *)
val sampled_exact : sampled -> bool

(** Length of the full (unsampled) trace. *)
val sampled_total_accesses : sampled -> int

(** Number of accesses the union window kept. *)
val sampled_kept_accesses : sampled -> int

(** The sweep of the union sample (footprint = sampled footprint). *)
val sampled_union : sampled -> t

(** Cells the sampled sweep holds: the union sample's footprint plus the
    groups' footprints (the footprint alone at rate 1).  Each cell keeps
    three words of per-size tallies, so this sizes a kept sweep. *)
val sampled_cells : sampled -> int

(** [true] when the sample cannot support error bars (union footprint
    under 32 cells or fewer than two populated groups): intervals are
    then [0, total accesses]. *)
val sampled_degenerate : sampled -> bool
