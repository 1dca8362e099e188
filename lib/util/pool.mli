(** Fixed-size domain pool for fanning out independent engine work.

    The empirical layer (registry analyses, pebble-game validation grids,
    cache-simulation sweeps, split searches) is embarrassingly parallel:
    many independent tasks whose results are only combined at the end.
    [Pool.map] runs such task lists across OCaml 5 domains with a work-
    stealing index, preserving input order in the output so callers keep
    byte-identical (deterministic) results regardless of the worker count.

    Tasks must not share unsynchronised mutable state.  Everything the
    engine fans out satisfies this: analyses build private structures,
    {!Budget} counters are atomic, and [Budget.unlimited] checkpoints are
    no-ops. *)

(** Worker count used when [?jobs] is omitted: the [IOLB_JOBS] environment
    variable if set (a positive integer), else
    [Domain.recommended_domain_count ()].
    @raise Invalid_argument if [IOLB_JOBS] is set but not a positive
    integer. *)
val default_jobs : unit -> int

(** [map ?jobs f xs] is [List.map f xs], computed by at most [jobs] domains
    (default {!default_jobs}).  Output order follows input order.  With
    [jobs = 1] (or on lists of fewer than two elements) no domain is
    spawned and the evaluation is exactly sequential.

    If one or more applications of [f] raise, every task still completes
    (or fails), {e every} spawned domain is joined, and only then is the
    exception of the {e earliest} failed index re-raised with its
    backtrace - failures are deterministic and can neither leak a domain
    nor deadlock the joiner.  A failing [Domain.spawn] (domain limit,
    resource exhaustion) degrades the fan-out width instead of failing
    the call: the calling domain works through the remaining tasks
    itself.
    @raise Invalid_argument if [jobs < 1]. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [iter ?jobs f xs] is [ignore (map ?jobs f xs)]. *)
val iter : ?jobs:int -> ('a -> unit) -> 'a list -> unit

(** [split ~shards n] partitions [\[0, n)] into at most [shards] contiguous
    half-open ranges [(lo, hi)], in order, with sizes differing by at most
    one (earlier ranges get the extra elements).  The bounds are a pure
    function of [(shards, n)] — the same partition at any worker count —
    which is what lets sharded consumers merge deterministically.  Returns
    fewer than [shards] ranges when [n < shards]; [(0, 0)] when [n = 0].
    @raise Invalid_argument if [shards < 1] or [n < 0]. *)
val split : shards:int -> int -> (int * int) list

(** Bounded multi-producer multi-consumer queue: the admission-control
    primitive of the bound service.  Producers never block - [try_push]
    refuses once the capacity is reached so the caller can shed load
    (e.g. answer [overloaded]) instead of queueing without limit;
    consumers block in [pop] until an item or {!close}. *)
module Bounded_queue : sig
  type 'a t

  (** @raise Invalid_argument if [capacity < 1]. *)
  val create : capacity:int -> 'a t

  (** [try_push t x] enqueues [x] and returns [true], or returns [false]
      without blocking when the queue is at capacity or closed. *)
  val try_push : 'a t -> 'a -> bool

  (** [pop t] blocks until an item is available and dequeues it, or
      returns [None] once the queue is closed {e and} drained (items
      enqueued before [close] are still delivered). *)
  val pop : 'a t -> 'a option

  (** [close t] rejects future pushes and wakes all blocked consumers;
      idempotent. *)
  val close : 'a t -> unit

  val length : 'a t -> int
  val capacity : 'a t -> int
end

(** A group of long-running worker domains with crash isolation: each
    worker runs [body i] (typically a [Bounded_queue.pop] loop).  A body
    that returns normally ends that worker; a body that {e raises} has
    crashed - the exception is reported to [on_crash] and a fresh domain
    is spawned into the same slot, so one poisoned request cannot take
    the group down. *)
module Workers : sig
  type t

  (** [spawn ~jobs body] starts [jobs] domains running [body 0 .. body
      (jobs-1)].  [on_crash ~worker e] is called (in the dying domain)
      before the slot is respawned; exceptions it raises are ignored.
      @raise Invalid_argument if [jobs < 1]. *)
  val spawn :
    jobs:int -> ?on_crash:(worker:int -> exn -> unit) -> (int -> unit) -> t

  (** Number of crash respawns so far. *)
  val respawns : t -> int

  (** [join t] disables further respawns and joins every domain the group
      ever spawned (crashed predecessors included).  Close the queue the
      bodies consume from {e before} calling [join], or it will block
      until the bodies return. *)
  val join : t -> unit
end
