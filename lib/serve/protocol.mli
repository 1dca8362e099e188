(** Wire protocol of the bound service: newline-delimited JSON.

    Each request is one line, a JSON object [{"id": ..., "op": ...,
    ...}]; each response is one line echoing the request [id].  Success
    responses are [{"id", "ok": true, "op", "result"}]; failures are
    [{"id", "ok": false, "error": {"code", "exit_code", ..., "message"}}]
    with error codes mirroring the CLI exit-code taxonomy
    ([invalid_input]/2, [budget_exhausted]/3 with its engine [stage],
    [unsupported]/4, [internal]/5) plus the service-level [bad_request]/2
    (unparsable or ill-typed request line) and [overloaded]/6 (bounded
    queue full, with a [retry_after_ms] hint).

    Rendering is compact and field order fixed, so a response is a pure
    function of the request - the property behind the byte-identical
    cached responses the soak test asserts. *)

module Json = Iolb_util.Json
module Budget = Iolb_util.Budget
module Engine_error = Iolb_util.Engine_error

(** Per-request resource budget, including the fault-injection hook used
    by the soak tests (all fields optional on the wire). *)
type budget_spec = {
  timeout_ms : int option;
  max_steps : int option;
  max_nodes : int option;
  fault : (Budget.stage * int) option;
}

val no_budget : budget_spec
val is_unlimited : budget_spec -> bool

(** Optional empirical rider on an [eval] request (wire field
    ["empirical": {"rate": r, "seed": k}]): run a sampled ([rate < 1])
    or exact streaming ([rate = 1]) cache sweep of the kernel at the
    evaluation point and report measured loads next to the bounds.
    [rate] must pass {!Iolb_pebble.Sweep.check_rate}: in (0, 1] and at
    least 2^-62; [seed] defaults to 42. *)
type empirical_spec = { rate : float; seed : int }

type op =
  | Ping
  | List_kernels
  | Analyze of { kernel : string; budget : budget_spec }
  | Source of { src : string; budget : budget_spec }
      (** an inline DSL program ([src] is the full source text; the JSON
          string escaping keeps it one wire line), analysed through the
          graceful-degradation ladder *)
  | Eval of {
      kernel : string;
      m : int;
      n : int;
      s : int;
      empirical : empirical_spec option;
      budget : budget_spec;
    }
  | Stats
  | Crash
      (** deliberately kills the worker domain handling it; only honoured
          when the server was started with crash injection enabled *)
  | Shutdown

type request = { id : Json.t; op : op }

(** Wire names of the budget stages ([cdag_build], [pebble_game],
    [cache_sim], [derivation]). *)
val wire_of_stage : Budget.stage -> string

val stage_of_wire : string -> Budget.stage option

(** The longest request line the daemon reads: 1 MiB (1,048,576 bytes),
    not counting its newline.  A longer line is answered with one
    [bad_request] response with a [null] id, and the daemon then closes
    that connection; it keeps at most the cap plus one channel buffer
    (64 KiB) of the line. *)
val max_line_bytes : int

(** [encode_request r] is one request line (no trailing newline) that
    {!parse_request} decodes to [r]: every float in [r] (a [Json.Float]
    id, the empirical rate) is written with
    {!Iolb_util.Json.to_string_exact}, so it reads back bit for bit
    (non-finite floats excepted: JSON writes them as [null]). *)
val encode_request : request -> string

(** [parse_request line] decodes one request line.  The error carries the
    request [id] when the line parsed far enough to contain one
    ([Json.Null] otherwise) so the typed [bad_request] response stays
    correlatable. *)
val parse_request : string -> (request, Json.t * string) result

type error =
  | Engine of Engine_error.t
  | Bad_request of string
  | Overloaded of { retry_after_ms : int }

(** Wire code, one per constructor: [invalid_input], [budget_exhausted],
    [unsupported], [internal], [bad_request], [overloaded]. *)
val error_code : error -> string

(** Numeric code carried next to {!error_code}: engine errors use their
    CLI exit codes (2/3/4/5), [bad_request] 2, [overloaded] 6. *)
val error_exit_code : error -> int

val error_message : error -> string
val error_json : error -> Json.t

(** One complete response line (no trailing newline). *)
val error_response : id:Json.t -> error -> string

val ok_response : id:Json.t -> op:string -> Json.t -> string

(** [ok_response_raw ~id ~op result] splices an already-rendered result
    fragment (e.g. a cached payload) into the success envelope,
    byte-identical to {!ok_response} on the parsed equivalent. *)
val ok_response_raw : id:Json.t -> op:string -> string -> string

(** Deterministic result payloads. *)

val analysis_result : spec:string -> Iolb.Report.analysis -> Json.t

(** [source_result ~spec ~kernel ~hourglasses o] renders an inline-source
    ladder outcome; {!analysis_result} is this payload for the analysis's
    display name, pattern count and outcome. *)
val source_result :
  spec:string ->
  kernel:string ->
  hourglasses:int ->
  Iolb.Derive.outcome ->
  Json.t

(** [eval_result ?empirical ...] renders the eval payload; [empirical],
    when given, is an already-rendered measurement object appended as the
    ["empirical"] field (plain evals keep their exact historical bytes). *)
val eval_result :
  ?empirical:Json.t ->
  spec:string ->
  Iolb.Report.analysis ->
  m:int ->
  n:int ->
  s:int ->
  Json.t

(** Canonical content key of a cacheable request ([None] for the ops that
    are never cached): the resolved kernel display name plus, for [eval],
    the evaluation point and, when present, the empirical rider's rate
    and seed; [source] requests are keyed by their source text and ignore
    [display].  Budgets are excluded - a complete result is the same
    answer whatever budget produced it. *)
val spec_key : op -> display:string -> string option

(** Hex content hash (the [spec] field of result payloads). *)
val spec_hash : string -> string

(** Client-side view of one response line. *)
type parsed_response = {
  resp_id : Json.t;
  ok : bool;
  body : Json.t;
  exit_code : int;
}

val parse_response : string -> (parsed_response, string) result
