(** Kernel registry and end-to-end analyses: ties together the kernel
    programs, the derivation engine and the paper's published formulas.
    This is the layer the CLI and the benchmark harness print.

    Every registry program is defined once, by its source under
    [examples/kernels] ([NAME.iolb], NAME being the paper kernel's
    {!Paper_formulas.kernel_name} or the baseline's name).  The sources
    are embedded at build time and parsed when this module initialises;
    verify sizes come from each source's [verify] clause. *)

type entry = {
  kernel : Paper_formulas.kernel;
  display : string;
  program : Iolb_ir.Program.t;
  verify_params : (string * int) list;
      (** small concrete sizes for empirical hourglass verification *)
  grid : (int * int * int) list;
      (** representative (m, n, s) evaluation points *)
  finalize : Iolb_symbolic.Ratfun.t -> Iolb_symbolic.Ratfun.t;
      (** post-processing of derived formulas (e.g. GEHD2 instantiates the
          loop-split parameter at M = N/2 - 1, as in Theorem 9's proof) *)
}

(** The five kernels of the paper, in Figure 4/5 order.  GEHD2's program
    is Figure 7 with its outer loop split at a parameter [M]. *)
val registry : entry list

(** Baseline kernels outside the paper's evaluation (GEMM, Cholesky, LU,
    SYRK, SYR2K, TRSM, TRMM, ATAX, Jacobi-1D): name, program, and concrete
    verification parameters.  None of them has a (verified) hourglass;
    they exercise the classical path and the negative controls. *)
val baselines : (string * Iolb_ir.Program.t * (string * int) list) list

(** [find name] looks up a paper kernel by kernel/display/program name.
    Baselines are not entries (they have no paper formulas attached; see
    {!baselines}).
    @raise Iolb_util.Engine_error.Error with [Invalid_input] for any other
    name; the message lists the paper kernels and the baselines and
    suggests [--file]. *)
val find : string -> entry

type analysis = {
  entry : entry;
  hourglasses : Hourglass.t list;
      (** the patterns the ladder's hourglass rung verified *)
  bounds : Derive.t list;  (** finalized derived bounds *)
  degradation : string option;
      (** [None] when the full pipeline ran; otherwise which ladder rungs
          were skipped or aborted and why (see {!Derive.ladder}) *)
}

(** Resilient analysis through {!Derive.ladder}, in one derivation pass:
    the pattern list and the bounds come from the same hourglass
    detection, so a step cap pays for it once.  Under budget pressure it
    falls back to weaker (but sound) bounds, recording the degradation.
    Under the default unlimited budget it never degrades and behaves as
    the original full pipeline.  Callers that need the no-raise boundary
    wrap it in {!Iolb_util.Engine_error.guard}.
    @raise Iolb_util.Engine_error.Error when no rung answers (e.g. a passed
    deadline). *)
val analyze : ?budget:Iolb_util.Budget.t -> entry -> analysis

(** [analyze_cached entry] is [analyze entry] memoized per process, keyed
    by [entry.display].  Invariants: only registry entries (whose display
    names are unique and whose analyses are deterministic) should go
    through the cache, and always at the unlimited budget - budgeted or
    degraded analyses are never cached.  Thread-safe: may be called
    concurrently from a {!Iolb_util.Pool} fan-out. *)
val analyze_cached : entry -> analysis

(** Observability counters for {!analyze_cached}: lookups served from the
    memo ([hits]), analyses actually run ([misses], racing duplicates
    included), and the current table size ([entries]).  Monotone over the
    process lifetime; consumed by the bound service's [stats] endpoint
    and by the memoization tests. *)
type cache_stats = { hits : int; misses : int; entries : int }

val cache_stats : unit -> cache_stats

(** [analyze_all ()] analyses the whole registry through
    {!analyze_cached}, fanning out across [jobs] domains (default
    {!Iolb_util.Pool.default_jobs}); result order follows {!registry}. *)
val analyze_all : ?jobs:int -> unit -> analysis list

(** Concrete instantiation parameters for CDAG building / trace simulation
    at size (m, n).  GEHD2 is square: [m] is ignored, [n >= 4] is required,
    and the loop split is pinned at [M = n/2 - 1] (Theorem 9's choice).
    All other kernels require [m, n >= 1] and map to [("M", m); ("N", n)]. *)
val concrete_params :
  entry ->
  m:int ->
  n:int ->
  ((string * int) list, Iolb_util.Engine_error.t) result

(** Best derived bound of a given technique class, evaluated at a point.
    [`Hourglass] considers both the main and small-cache variants and
    returns the best applicable. *)
val eval_best :
  analysis ->
  technique:[ `Classical | `Hourglass ] ->
  m:int ->
  n:int ->
  s:int ->
  float option

val pp_analysis : Format.formatter -> analysis -> unit
