(** The bound-service daemon: a crash-tolerant engine server speaking the
    newline-delimited JSON {!Protocol} over a Unix or TCP socket.

    Architecture: one accept domain admits connections (up to
    [max_connections]; beyond that the peer gets one [overloaded] line
    and is closed); one reader domain per connection parses request
    lines, answers the cheap ops ([ping], [list], [stats], [shutdown])
    inline, and pushes engine ops onto a bounded
    {!Iolb_util.Pool.Bounded_queue} - a full queue sheds the request with
    a typed [overloaded] response and a 100 ms retry-after hint instead of
    queueing without limit; a {!Iolb_util.Pool.Workers} group drains the
    queue.  Responses for complete (non-degraded, non-fault) analyses,
    and every answer computed with no budget at all (degraded or not:
    it is the same on every call), are cached in a content-addressed
    {!Lru}, so repeated requests for the same spec are served as
    byte-identical string splices.  Kernel names
    resolve as on the command line ({!Iolb_front.Driver.lookup}): a
    baseline's [analyze] answers its ladder outcome in the [source]
    payload shape, and its [eval] is [unsupported].  An [eval]
    point outside the kernel's domain ({!Iolb_front.Driver.point}, the
    CLI's check) is answered [invalid_input] before the cache is
    consulted, and is never cached.

    Failure semantics: engine failures and per-request budget exhaustion
    come back as typed error responses through the PR 1 degradation
    ladder; a worker that {e raises} (an engine bug, or the [crash] op
    under [allow_crash]) answers its own poisoned request with a typed
    [internal] error, dies, and is respawned - one request can never take
    the daemon down. *)

type address = Unix_sock of string | Tcp of string * int

(** [sockaddr address] is the socket domain and OS address of [address],
    the one resolver of the daemon and {!Client}: a TCP host is an IP
    literal or a name [gethostbyname] resolves.
    @raise Invalid_argument when the port is outside 0..65535 or the host
    does not resolve. *)
val sockaddr : address -> Unix.socket_domain * Unix.sockaddr

(** [unix:PATH] or [tcp:HOST:PORT], as the log and {!Client} name it. *)
val pp_address : Format.formatter -> address -> unit

type config = {
  address : address;
  jobs : int;  (** worker domains draining the request queue *)
  queue_capacity : int;  (** admission-control bound on queued requests *)
  cache_capacity : int;  (** LRU response-cache entries; [0] disables *)
  max_connections : int;  (** concurrent connections admitted *)
  default_timeout_ms : int option;
      (** deadline applied to requests that do not set their own *)
  allow_crash : bool;  (** honour the [crash] op (fault testing only) *)
  log : string -> unit;
}

(** jobs 2, queue 64, cache 128, connections 32, no default deadline,
    crash injection off, silent log. *)
val default_config : address:address -> config

(** The exception the [crash] op raises inside a worker domain. *)
exception Injected_crash

type t

(** Bind, spawn the worker group and the accept domain, return
    immediately.  @raise Invalid_argument on nonsensical config values
    and when the address cannot be resolved or bound (the message names
    the address and the OS reason). *)
val start : config -> t

(** Request a graceful stop (idempotent, callable from any domain or a
    signal handler). *)
val stop : t -> unit

(** Block until a stop is requested (the [shutdown] op or {!stop}), then
    tear down: stop accepting, drain the queued requests through the
    workers, flush in-flight responses, join every domain, release the
    socket (unlinking a Unix-socket path). *)
val join : t -> unit

(** Worker-domain crash respawns so far (also in the [stats] op). *)
val respawns : t -> int
