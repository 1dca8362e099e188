module Json = Iolb_util.Json
module Pool = Iolb_util.Pool
module Budget = Iolb_util.Budget
module Engine_error = Iolb_util.Engine_error
module Report = Iolb.Report
module Derive = Iolb.Derive
module Front = Iolb_front.Front
module Driver = Iolb_front.Driver
module Diag = Iolb_front.Diag
module Sweep = Iolb_pebble.Sweep

type address = Unix_sock of string | Tcp of string * int

let pp_address fmt = function
  | Unix_sock path -> Format.fprintf fmt "unix:%s" path
  | Tcp (host, port) -> Format.fprintf fmt "tcp:%s:%d" host port

type config = {
  address : address;
  jobs : int;
  queue_capacity : int;
  cache_capacity : int;
  max_connections : int;
  default_timeout_ms : int option;
  allow_crash : bool;
  log : string -> unit;
}

let default_config ~address =
  {
    address;
    jobs = 2;
    queue_capacity = 64;
    cache_capacity = 128;
    max_connections = 32;
    default_timeout_ms = None;
    allow_crash = false;
    log = ignore;
  }

(* The back-off hint carried by [overloaded] responses. *)
let retry_after_ms = 100

exception Injected_crash

(* ------------------------------------------------------------------ *)
(* Connections.                                                        *)

(* One accepted socket.  [oc] is shared by the reader domain (inline
   responses) and the worker domains (engine responses), serialised by
   [oc_mutex].  [outstanding] counts requests handed to the queue whose
   response has not been written yet, so the reader can drain in-flight
   work before closing the socket on EOF. *)
type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  oc_mutex : Mutex.t;
  flight_mutex : Mutex.t;
  flight_done : Condition.t;
  mutable outstanding : int;
  mutable finished : bool; (* the reader is done; under [conns_mutex] *)
}

let make_conn fd =
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    oc_mutex = Mutex.create ();
    flight_mutex = Mutex.create ();
    flight_done = Condition.create ();
    outstanding = 0;
    finished = false;
  }

(* Writes to a peer that vanished (EPIPE, reset) are dropped: the
   request is the peer's loss, the server must not care. *)
let write_line conn line =
  Mutex.protect conn.oc_mutex (fun () ->
      try
        output_string conn.oc line;
        output_char conn.oc '\n';
        flush conn.oc
      with Sys_error _ | Unix.Unix_error _ -> ())

let flight_incr conn =
  Mutex.protect conn.flight_mutex (fun () ->
      conn.outstanding <- conn.outstanding + 1)

let flight_decr conn =
  Mutex.protect conn.flight_mutex (fun () ->
      conn.outstanding <- conn.outstanding - 1;
      if conn.outstanding = 0 then Condition.broadcast conn.flight_done)

let flight_wait conn =
  Mutex.protect conn.flight_mutex (fun () ->
      while conn.outstanding > 0 do
        Condition.wait conn.flight_done conn.flight_mutex
      done)

(* ------------------------------------------------------------------ *)
(* Server state.                                                       *)

type counters = {
  served_ok : int Atomic.t;
  served_error : int Atomic.t;
  shed : int Atomic.t;
  bad_lines : int Atomic.t;
  crashes : int Atomic.t;
}

type job = { request : Protocol.request; conn : conn }

(* The sweep cache's capacity, in cells ({!Sweep.sampled_cells}).  Each
   cell keeps three words of per-size tallies, so 2^18 cells are about
   6 MB of kept sweeps.  A kept sweep also has a fixed part (nine sweep
   records and their arrays' headers, its key and its cache node: about
   145 words), charged as [sweep_entry_cells] more, so that sweeps of a
   few cells cannot hold more than the budget in fixed parts. *)
let sweep_cache_cells = 1 lsl 18
let sweep_entry_cells = 48

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  queue : job Pool.Bounded_queue.t;
  cache : string Lru.t;  (* rendered responses, weight 1 *)
  sweeps : Sweep.sampled Lru.t;  (* empirical sweeps, weighed in cells *)
  counters : counters;
  conns_mutex : Mutex.t;
  mutable conns : conn list;
  mutable conn_domains : (conn * unit Domain.t) list; (* not joined yet *)
  mutable workers : Pool.Workers.t option;
  mutable accept_domain : unit Domain.t option;
  stop_flag : bool Atomic.t;
  stop_mutex : Mutex.t;
  stop_cond : Condition.t;
}

let request_stop t =
  if not (Atomic.exchange t.stop_flag true) then
    Mutex.protect t.stop_mutex (fun () -> Condition.broadcast t.stop_cond)

let stopping t = Atomic.get t.stop_flag

(* ------------------------------------------------------------------ *)
(* Request handling (worker side).                                     *)

let make_budget t (b : Protocol.budget_spec) =
  let timeout_ms =
    match b.timeout_ms with
    | Some _ as req -> req
    | None -> t.config.default_timeout_ms
  in
  Engine_error.guard (fun () ->
      Budget.make ?timeout_ms ?max_steps:b.max_steps ?max_nodes:b.max_nodes
        ?fault:b.fault ())

(* No budget at all: neither the request nor the daemon's default sets
   one, so the answer is the same on every call. *)
let unbudgeted t budget =
  Protocol.is_unlimited budget && t.config.default_timeout_ms = None

(* Analysis for one request: unbudgeted requests ride the process-wide
   [Report.analyze_cached] memo (this is the per-process layer the LRU
   lifts across requests); anything budgeted or fault-injected runs the
   resilient ladder afresh. *)
let analysis_for t entry (budget : Protocol.budget_spec) =
  if unbudgeted t budget then
    Engine_error.guard (fun () -> Report.analyze_cached entry)
  else
    Result.bind (make_budget t budget) (fun b ->
        Engine_error.guard (fun () -> Report.analyze ~budget:b entry))

let respond_ok t ~id ~op result_string =
  Atomic.incr t.counters.served_ok;
  Protocol.ok_response_raw ~id ~op result_string

let respond_error t ~id err =
  Atomic.incr t.counters.served_error;
  Protocol.error_response ~id err

(* The empirical rider of an eval: a sampled (or, at rate 1, exact
   streaming) cache sweep of the kernel at the evaluation point, under
   the same request budget (including its fault hook) as the analysis.
   The sweep is a pure function of (kernel, params, rate, seed) -
   sampling is hash-based, not randomized - and answers every S, so the
   sweep cache keeps it under {!Protocol.sweep_key} and an eval at a new
   S reads only [sampled_stats].  The cache follows the response
   cache's rule: no lookup or insert under a fault hook (fault-injected
   requests must exercise the real sweep), and only completed sweeps
   are stored. *)
let empirical_for t entry ~params ~s (budget : Protocol.budget_spec)
    (e : Protocol.empirical_spec) =
  let ( let* ) = Result.bind in
  let key = Protocol.sweep_key ~display:entry.Report.display ~params e in
  let cached = if budget.fault = None then Lru.find t.sweeps key else None in
  let* sampled =
    match cached with
    | Some sampled -> Ok sampled
    | None ->
        let* b = make_budget t budget in
        let* sampled =
          Engine_error.guard (fun () ->
              Sweep.run_sampled ~budget:b ~rate:e.rate ~seed:e.seed ~params
                entry.Report.program)
        in
        if budget.fault = None then
          Lru.add t.sweeps key sampled
            ~weight:(Sweep.sampled_cells sampled + sweep_entry_cells);
        Ok sampled
  in
  let estimate (a : Sweep.estimate) =
    Json.Obj
      [
        ("est", Json.Float a.est);
        ("lo", Json.Float a.lo);
        ("hi", Json.Float a.hi);
      ]
  in
  let loads, read_hits, stores = Sweep.sampled_stats sampled ~size:s in
  Ok
    (Json.Obj
       [
         ("rate", Json.Float e.rate);
         ("seed", Json.Int e.seed);
         ("exact", Json.Bool (Sweep.sampled_exact sampled));
         ("total_accesses", Json.Int (Sweep.sampled_total_accesses sampled));
         ("kept_accesses", Json.Int (Sweep.sampled_kept_accesses sampled));
         ("degenerate", Json.Bool (Sweep.sampled_degenerate sampled));
         ("loads", estimate loads);
         ("read_hits", estimate read_hits);
         ("stores", estimate stores);
       ])

(* Kernel names resolve as on the command line ([Driver.lookup] or
   [Driver.eval_entry]); a name that does not resolve is answered with the
   resolver's error. *)
let with_resolved t ~id resolved k =
  match resolved with
  | Error e -> respond_error t ~id (Protocol.Engine e)
  | Ok x -> k x

(* The graceful-degradation ladder on a program, in the [source] payload
   shape (the kernel is the program's name). *)
let ladder_result t ~spec budget (source : Front.source) =
  let ( let* ) = Result.bind in
  let* b = make_budget t budget in
  let* hgs, o =
    Derive.ladder ~budget:b ~verify_params:source.Front.verify
      source.Front.program
  in
  Ok
    ( Protocol.source_result ~spec
        ~kernel:source.Front.program.Iolb_ir.Program.name
        ~hourglasses:(List.length hgs) o,
      o.Derive.degradation )

(* The one cached-response path of the engine ops.  The LRU answers
   unless a fault hook is in play (fault-injected requests must exercise
   the real path); [compute] gets the spec hash and returns the payload
   with its degradation note.  A complete answer with no fault hook is
   cached, and so is any unbudgeted answer, degraded or not: it is the
   same on every call.  A degradation under a budget is budget-specific
   and is not cached. *)
let cached t (req : Protocol.request) ~op ~display
    (budget : Protocol.budget_spec) compute =
  let key = Option.get (Protocol.spec_key req.op ~display) in
  let lookup = if budget.fault = None then Lru.find t.cache key else None in
  match lookup with
  | Some result -> respond_ok t ~id:req.id ~op result
  | None -> (
      match compute (Protocol.spec_hash key) with
      | Error e -> respond_error t ~id:req.id (Protocol.Engine e)
      | Ok (payload, degradation) ->
          let result = Json.to_string payload in
          if (budget.fault = None && degradation = None) || unbudgeted t budget
          then
            Lru.add t.cache key result;
          respond_ok t ~id:req.id ~op result)

(* Engine ops (analyze / source / eval / crash).  Returns the full
   response line.  Unexpected exceptions escape to the worker shell on
   purpose: the worker loop answers the poisoned request with a typed
   [internal] error and then lets the domain die, to be respawned. *)
let handle_engine t (req : Protocol.request) =
  let ( let* ) = Result.bind in
  let id = req.id in
  match req.op with
  | Protocol.Crash ->
      if t.config.allow_crash then raise Injected_crash
      else
        respond_error t ~id
          (Protocol.Engine
             (Engine_error.Unsupported
                "crash injection disabled (start the server with \
                 --allow-crash)"))
  | Protocol.Analyze { kernel; budget } -> (
      with_resolved t ~id (Driver.lookup kernel) @@ function
      | Driver.Paper entry ->
          cached t req ~op:"analyze" ~display:entry.display budget
          @@ fun spec ->
          let* a = analysis_for t entry budget in
          Ok (Protocol.analysis_result ~spec a, a.degradation)
      | Driver.Program source ->
          (* a baseline: its ladder outcome, as for its source text *)
          cached t req ~op:"analyze" ~display:kernel budget @@ fun spec ->
          ladder_result t ~spec budget source)
  | Protocol.Source { src; budget } -> (
      (* Inline DSL source: parse, then run the graceful-degradation
         ladder.  Parse failures are Invalid_input with the diagnostic's
         line:col position; the cache key is the source text itself. *)
      match Front.parse_string ~file:"<source>" src with
      | Error d ->
          respond_error t ~id (Protocol.Engine (Diag.to_engine_error d))
      | Ok source ->
          cached t req ~op:"source" ~display:"" budget @@ fun spec ->
          ladder_result t ~spec budget source)
  | Protocol.Eval { kernel; m; n; s; empirical; budget } -> (
      with_resolved t ~id (Driver.eval_entry kernel) @@ fun entry ->
      (* The CLI's domain check: an impossible point is invalid input,
         answered before the cache sees it. *)
      match Driver.point ~s (Driver.Paper entry) ~m ~n with
      | Error e -> respond_error t ~id (Protocol.Engine e)
      | Ok params ->
          cached t req ~op:"eval" ~display:entry.display budget @@ fun spec ->
          let* a = analysis_for t entry budget in
          let* measured =
            match empirical with
            | None -> Ok None
            | Some e ->
                Result.map Option.some (empirical_for t entry ~params ~s budget e)
          in
          Ok
            ( Protocol.eval_result ?empirical:measured ~spec a ~m ~n ~s,
              a.degradation ))
  | Protocol.Ping | Protocol.List_kernels | Protocol.Stats | Protocol.Shutdown
    ->
      (* Inline ops never reach the queue. *)
      respond_error t ~id
        (Protocol.Engine (Engine_error.Internal "inline op queued"))

let worker_loop t _worker =
  let rec loop () =
    match Pool.Bounded_queue.pop t.queue with
    | None -> ()
    | Some job ->
        (match handle_engine t job.request with
        | line ->
            write_line job.conn line;
            flight_decr job.conn
        | exception e ->
            (* The poisoned request still gets a typed answer; then the
               domain dies and the Workers group respawns it.  One bad
               request never outlives its own response. *)
            Atomic.incr t.counters.crashes;
            Atomic.incr t.counters.served_error;
            write_line job.conn
              (Protocol.error_response ~id:job.request.id
                 (Protocol.Engine (Engine_error.of_exn e)));
            flight_decr job.conn;
            raise e);
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Inline ops (reader side).                                           *)

let list_result () =
  Json.Obj
    [
      ( "kernels",
        Json.List
          (List.map
             (fun (e : Report.entry) -> Json.String e.display)
             Report.registry) );
      ( "baselines",
        Json.List
          (List.map (fun (name, _, _) -> Json.String name) Report.baselines)
      );
    ]

let stats_result t =
  let cache = Lru.stats t.cache in
  let sweeps = Lru.stats t.sweeps in
  let memo = Report.cache_stats () in
  let respawns =
    match t.workers with Some w -> Pool.Workers.respawns w | None -> 0
  in
  Json.Obj
    [
      ( "server",
        Json.Obj
          [
            ("jobs", Json.Int t.config.jobs);
            ("respawns", Json.Int respawns);
            ("queue_capacity", Json.Int t.config.queue_capacity);
            ("queue_length", Json.Int (Pool.Bounded_queue.length t.queue));
            ("connections", Json.Int (List.length t.conns));
          ] );
      ( "cache",
        Json.Obj
          [
            ("capacity", Json.Int cache.capacity);
            ("entries", Json.Int cache.entries);
            ("hits", Json.Int cache.hits);
            ("misses", Json.Int cache.misses);
            ("evictions", Json.Int cache.evictions);
          ] );
      ( "sweeps",
        Json.Obj
          [
            ("entries", Json.Int sweeps.entries);
            ("cells", Json.Int sweeps.weight);
            ("hits", Json.Int sweeps.hits);
            ("misses", Json.Int sweeps.misses);
            ("evictions", Json.Int sweeps.evictions);
          ] );
      ( "memo",
        Json.Obj
          [
            ("hits", Json.Int memo.hits);
            ("misses", Json.Int memo.misses);
            ("entries", Json.Int memo.entries);
          ] );
      ( "requests",
        Json.Obj
          [
            ("ok", Json.Int (Atomic.get t.counters.served_ok));
            ("errors", Json.Int (Atomic.get t.counters.served_error));
            ("shed", Json.Int (Atomic.get t.counters.shed));
            ("bad_lines", Json.Int (Atomic.get t.counters.bad_lines));
            ("crashes", Json.Int (Atomic.get t.counters.crashes));
          ] );
    ]

let handle_line t conn line =
  match Protocol.parse_request line with
  | Error (id, msg) ->
      Atomic.incr t.counters.bad_lines;
      Atomic.incr t.counters.served_error;
      write_line conn (Protocol.error_response ~id (Protocol.Bad_request msg))
  | Ok req -> (
      let id = req.id in
      match req.op with
      | Protocol.Ping ->
          write_line conn
            (respond_ok t ~id ~op:"ping"
               (Json.to_string (Json.Obj [ ("pong", Json.Bool true) ])))
      | Protocol.List_kernels ->
          write_line conn
            (respond_ok t ~id ~op:"list" (Json.to_string (list_result ())))
      | Protocol.Stats ->
          write_line conn
            (respond_ok t ~id ~op:"stats" (Json.to_string (stats_result t)))
      | Protocol.Shutdown ->
          write_line conn
            (respond_ok t ~id ~op:"shutdown"
               (Json.to_string (Json.Obj [ ("stopping", Json.Bool true) ])));
          request_stop t
      | Protocol.Analyze _ | Protocol.Source _ | Protocol.Eval _
      | Protocol.Crash ->
          (* Admission control: the queue either takes the request or the
             client is told to back off now - the queue cannot grow
             beyond its capacity and the reader never blocks. *)
          flight_incr conn;
          if not (Pool.Bounded_queue.try_push t.queue { request = req; conn })
          then begin
            Atomic.incr t.counters.shed;
            Atomic.incr t.counters.served_error;
            write_line conn
              (Protocol.error_response ~id
                 (Protocol.Overloaded { retry_after_ms }));
            flight_decr conn
          end)

(* [input_line] with a length cap.  It scans the channel's buffer with
   the primitive behind [Stdlib.input_line]: a positive [n] is a line of
   [n - 1] bytes and its newline, all in the buffer; a negative one is
   [-n] bytes of a line that goes on (a full buffer), or its last bytes
   before end of file; 0 is end of file.  So a long line arrives a
   buffer at a time.  The cap is a whole number of buffers (64 KiB each),
   so a line still open at the cap is exactly at it, and its next byte
   decides: a newline ends it, anything else is past the cap. *)
external input_scan_line : in_channel -> int = "caml_ml_input_scan_line"

let read_line ic =
  let joined parts = String.concat "" (List.rev parts) in
  (* [parts]: the line's earlier parts, last first; [len]: their length *)
  let rec scan parts len =
    if len >= Protocol.max_line_bytes then
      match input_char ic with
      | '\n' | (exception End_of_file) -> `Line (joined parts)
      | _ -> `Too_long
    else
      let n = input_scan_line ic in
      if n = 0 then if parts = [] then `Eof else `Line (joined parts)
      else
        let part = really_input_string ic (if n > 0 then n - 1 else -n) in
        let len = len + String.length part in
        if len > Protocol.max_line_bytes then `Too_long
        else if n < 0 then scan (part :: parts) len
        else begin
          ignore (input_char ic);
          if parts = [] then `Line part else `Line (joined (part :: parts))
        end
  in
  scan [] 0

(* After an over-cap line the client's unread bytes are still queued,
   and closing a socket with unread data sends a reset: the client would
   see its write fail and lose the response.  So the reader shuts its
   send side (the client reads the response, then EOF) and discards what
   still arrives before it closes: at most [drain_bytes], and no read
   starts after [drain_timeout_s] or waits longer than that. *)
let drain_bytes = 4 lsl 20
let drain_timeout_s = 1.0

let drain conn =
  let deadline = Unix.gettimeofday () +. drain_timeout_s in
  let buf = Bytes.create 65536 in
  let rec go left =
    if left > 0 && Unix.gettimeofday () < deadline then
      match Unix.read conn.fd buf 0 (min left (Bytes.length buf)) with
      | 0 -> ()
      | n -> go (left - n)
  in
  try
    Unix.shutdown conn.fd SHUTDOWN_SEND;
    Unix.setsockopt_float conn.fd SO_RCVTIMEO drain_timeout_s;
    go drain_bytes
  with Unix.Unix_error _ -> ()

let conn_loop t conn =
  (* [loop ()] is true when the reader stops at an over-cap line. *)
  let rec loop () =
    match read_line conn.ic with
    | exception (End_of_file | Sys_error _) -> false
    | `Eof -> false
    | `Too_long ->
        Atomic.incr t.counters.bad_lines;
        Atomic.incr t.counters.served_error;
        write_line conn
          (Protocol.error_response ~id:Json.Null
             (Protocol.Bad_request
                (Printf.sprintf "request line longer than %d bytes"
                   Protocol.max_line_bytes)));
        true
    | `Line line ->
        if String.trim line <> "" then handle_line t conn line;
        loop ()
  in
  let over_cap = ref false in
  Fun.protect
    ~finally:(fun () ->
      (* Let in-flight responses drain, then release the socket.  [ic]
         and [oc] share the fd; closing one side closes it. *)
      flight_wait conn;
      Mutex.protect t.conns_mutex (fun () ->
          t.conns <- List.filter (fun c -> c != conn) t.conns);
      if !over_cap then drain conn;
      close_out_noerr conn.oc;
      Mutex.protect t.conns_mutex (fun () -> conn.finished <- true))
    (fun () -> over_cap := loop ())

(* ------------------------------------------------------------------ *)
(* Accept loop.                                                        *)

let refuse_connection fd =
  let oc = Unix.out_channel_of_descr fd in
  (try
     output_string oc
       (Protocol.error_response ~id:Json.Null
          (Protocol.Overloaded { retry_after_ms }));
     output_char oc '\n';
     flush oc
   with Sys_error _ | Unix.Unix_error _ -> ());
  close_out_noerr oc

(* Joins the finished readers, so the handles kept follow the live
   connections.  A reader finishes as its last act, after its drain and
   close: the join waits only for its domain to exit. *)
let reap t =
  Mutex.protect t.conns_mutex (fun () ->
      let gone, live =
        List.partition (fun (c, _) -> c.finished) t.conn_domains
      in
      t.conn_domains <- live;
      gone)
  |> List.iter (fun (_, d) -> try Domain.join d with _ -> ())

let accept_loop t () =
  let rec loop () =
    reap t;
    if not (stopping t) then
      match Unix.select [ t.listen_fd ] [] [] 0.25 with
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.accept ~cloexec:true t.listen_fd with
          | exception Unix.Unix_error ((EBADF | EINVAL), _, _) -> ()
          | exception Unix.Unix_error _ -> loop ()
          | fd, _ ->
              let admitted =
                Mutex.protect t.conns_mutex (fun () ->
                    List.length t.conns < t.config.max_connections)
              in
              if not (admitted && not (stopping t)) then refuse_connection fd
              else begin
                let conn = make_conn fd in
                Mutex.protect t.conns_mutex (fun () ->
                    t.conns <- conn :: t.conns);
                match Domain.spawn (fun () -> conn_loop t conn) with
                | d ->
                    Mutex.protect t.conns_mutex (fun () ->
                        t.conn_domains <- (conn, d) :: t.conn_domains)
                | exception _ ->
                    (* Domain limit: shed this connection instead of
                       dying. *)
                    Mutex.protect t.conns_mutex (fun () ->
                        t.conns <- List.filter (fun c -> c != conn) t.conns);
                    refuse_connection fd
              end;
              loop ())
      | exception Unix.Unix_error ((EBADF | EINVAL), _, _) -> ()
      | exception Unix.Unix_error (EINTR, _, _) -> loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                          *)

let sockaddr = function
  | Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (_, port) when port < 0 || port > 65535 ->
      invalid_arg (Printf.sprintf "port %d is outside 0..65535" port)
  | Tcp (host, port) ->
      let unresolved () =
        invalid_arg (Printf.sprintf "cannot resolve host %S" host)
      in
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.gethostbyname host with
          | { h_addr_list = [||]; _ } | (exception Not_found) -> unresolved ()
          | { h_addr_list; _ } -> h_addr_list.(0))
      in
      (Unix.PF_INET, Unix.ADDR_INET (addr, port))

(* An address the OS refuses is the caller's input, not an engine fault:
   it is reported like an unresolvable host. *)
let bind_listener address =
  let domain, addr = sockaddr address in
  let what, prepare =
    match address with
    | Unix_sock path ->
        (path, fun _ -> if Sys.file_exists path then Unix.unlink path)
    | Tcp (host, port) ->
        ( Printf.sprintf "%s:%d" host port,
          fun fd -> Unix.setsockopt fd SO_REUSEADDR true )
  in
  let fd = Unix.socket ~cloexec:true domain SOCK_STREAM 0 in
  match
    prepare fd;
    Unix.bind fd addr;
    Unix.listen fd 64
  with
  | () -> fd
  | exception Unix.Unix_error (err, _, _) ->
      Unix.close fd;
      invalid_arg
        (Printf.sprintf "cannot listen on %s: %s" what (Unix.error_message err))

let start config =
  if config.jobs < 1 then invalid_arg "Server.start: jobs < 1";
  if config.max_connections < 1 then
    invalid_arg "Server.start: max_connections < 1";
  (* A peer closing mid-response must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = bind_listener config.address in
  let t =
    {
      config;
      listen_fd;
      queue = Pool.Bounded_queue.create ~capacity:config.queue_capacity;
      cache = Lru.create ~capacity:config.cache_capacity;
      sweeps =
        Lru.create
          ~capacity:(if config.cache_capacity = 0 then 0 else sweep_cache_cells);
      counters =
        {
          served_ok = Atomic.make 0;
          served_error = Atomic.make 0;
          shed = Atomic.make 0;
          bad_lines = Atomic.make 0;
          crashes = Atomic.make 0;
        };
      conns_mutex = Mutex.create ();
      conns = [];
      conn_domains = [];
      workers = None;
      accept_domain = None;
      stop_flag = Atomic.make false;
      stop_mutex = Mutex.create ();
      stop_cond = Condition.create ();
    }
  in
  t.workers <-
    Some
      (Pool.Workers.spawn ~jobs:config.jobs
         ~on_crash:(fun ~worker e ->
           config.log
             (Printf.sprintf "worker %d crashed (%s); respawning" worker
                (Printexc.to_string e)))
         (worker_loop t));
  t.accept_domain <- Some (Domain.spawn (accept_loop t));
  config.log (Format.asprintf "listening on %a" pp_address config.address);
  t

let stop = request_stop

(* [join t] blocks until a stop is requested (shutdown op, {!stop}, or a
   signal handler calling {!stop}), then tears the server down in
   dependency order: stop accepting, stop taking new work, drain the
   queued work through the workers, unblock the readers, release the
   socket. *)
let join t =
  Mutex.protect t.stop_mutex (fun () ->
      while not (Atomic.get t.stop_flag) do
        Condition.wait t.stop_cond t.stop_mutex
      done);
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Option.iter Domain.join t.accept_domain;
  (* No new jobs; already-queued jobs still drain through [pop]. *)
  Pool.Bounded_queue.close t.queue;
  (* Wake readers blocked in [read_line]; SHUT_RD keeps the write side
     open so in-flight responses still reach the peer. *)
  Mutex.protect t.conns_mutex (fun () ->
      List.iter
        (fun conn ->
          try Unix.shutdown conn.fd SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        t.conns);
  Option.iter Pool.Workers.join t.workers;
  let conn_domains =
    Mutex.protect t.conns_mutex (fun () -> t.conn_domains)
  in
  List.iter (fun (_, d) -> try Domain.join d with _ -> ()) conn_domains;
  (match t.config.address with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  t.config.log "server stopped"

let respawns t =
  match t.workers with Some w -> Pool.Workers.respawns w | None -> 0
