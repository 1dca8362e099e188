module Json = Iolb_util.Json
module Budget = Iolb_util.Budget
module Engine_error = Iolb_util.Engine_error
module R = Iolb_symbolic.Ratfun
module Report = Iolb.Report
module Derive = Iolb.Derive

(* ------------------------------------------------------------------ *)
(* Requests.                                                           *)

type budget_spec = {
  timeout_ms : int option;
  max_steps : int option;
  max_nodes : int option;
  fault : (Budget.stage * int) option;
}

let no_budget =
  { timeout_ms = None; max_steps = None; max_nodes = None; fault = None }

let is_unlimited b =
  b.timeout_ms = None && b.max_steps = None && b.max_nodes = None
  && b.fault = None

(* Optional empirical validation rider on an eval: run a sampled
   (rate < 1) or exact streaming (rate = 1) cache sweep of the kernel at
   the evaluation point and report measured loads next to the bounds. *)
type empirical_spec = { rate : float; seed : int }

type op =
  | Ping
  | List_kernels
  | Analyze of { kernel : string; budget : budget_spec }
  (* A DSL program shipped inline: [src] is the full source text (the
     JSON string escaping keeps it one wire line). *)
  | Source of { src : string; budget : budget_spec }
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
  | Shutdown

type request = { id : Json.t; op : op }

(* Wire names for the budget stages (the CLI spells them with spaces;
   the wire uses stable snake_case tokens). *)
let stage_wire_names =
  [
    (Budget.Cdag_build, "cdag_build");
    (Budget.Pebble_game, "pebble_game");
    (Budget.Cache_sim, "cache_sim");
    (Budget.Derivation, "derivation");
  ]

let wire_of_stage s = List.assoc s stage_wire_names

let stage_of_wire name =
  List.find_map
    (fun (s, n) -> if n = name then Some s else None)
    stage_wire_names

(* ------------------------------------------------------------------ *)
(* Request parsing.                                                    *)

let opt_int_field json key =
  match Json.member key json with
  | None | Some Json.Null -> Ok None
  | Some (Json.Int i) -> Ok (Some i)
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" key)

let int_field_default json key default =
  match opt_int_field json key with
  | Ok None -> Ok default
  | Ok (Some i) -> Ok i
  | Error _ as e -> e

let parse_fault json =
  match Json.member "fault" json with
  | None | Some Json.Null -> Ok None
  | Some (Json.Obj _ as f) -> (
      match (Json.member "stage" f, Json.member "k" f) with
      | Some (Json.String name), Some (Json.Int k) -> (
          match stage_of_wire name with
          | Some stage -> Ok (Some (stage, k))
          | None ->
              Error
                (Printf.sprintf
                   "unknown fault stage %S (cdag_build, pebble_game, \
                    cache_sim, derivation)"
                   name))
      | _ -> Error "field \"fault\" must be {\"stage\": <name>, \"k\": <int>}")
  | Some _ -> Error "field \"fault\" must be an object"

let parse_empirical json =
  let ( let* ) = Result.bind in
  match Json.member "empirical" json with
  | None | Some Json.Null -> Ok None
  | Some (Json.Obj _ as e) ->
      let* rate =
        match Json.member "rate" e with
        | Some (Json.Float r) -> Ok r
        | Some (Json.Int i) -> Ok (float_of_int i)
        | Some _ -> Error "field \"empirical.rate\" must be a number"
        | None -> Error "missing field \"empirical.rate\""
      in
      let* () =
        Result.map_error
          (fun rule -> "field \"empirical.rate\" " ^ rule)
          (Iolb_pebble.Sweep.check_rate rate)
      in
      let* seed = int_field_default e "seed" 42 in
      Ok (Some { rate; seed })
  | Some _ -> Error "field \"empirical\" must be an object"

let parse_budget json =
  let ( let* ) = Result.bind in
  let* timeout_ms = opt_int_field json "timeout_ms" in
  let* max_steps = opt_int_field json "max_steps" in
  let* max_nodes = opt_int_field json "max_nodes" in
  let* fault = parse_fault json in
  Ok { timeout_ms; max_steps; max_nodes; fault }

let kernel_field json =
  match Json.member "kernel" json with
  | Some (Json.String k) -> Ok k
  | Some _ -> Error "field \"kernel\" must be a string"
  | None -> Error "missing field \"kernel\""

(* [parse_request line] decodes one wire line.  Errors carry the request
   id whenever the line parsed far enough to have one, so even a
   malformed request gets a correlatable typed response. *)
let max_line_bytes = 1 lsl 20

let parse_request line : (request, Json.t * string) result =
  let ( let* ) = Result.bind in
  match Json.of_string line with
  | Error msg -> Error (Json.Null, Printf.sprintf "invalid JSON: %s" msg)
  | Ok (Json.Obj _ as json) -> (
      let id = Option.value (Json.member "id" json) ~default:Json.Null in
      let fail msg = Error (id, msg) in
      match Json.member "op" json with
      | Some (Json.String op) -> (
          let with_op r =
            match r with Ok op -> Ok { id; op } | Error msg -> fail msg
          in
          match op with
          | "ping" -> Ok { id; op = Ping }
          | "list" -> Ok { id; op = List_kernels }
          | "stats" -> Ok { id; op = Stats }
          | "crash" -> Ok { id; op = Crash }
          | "shutdown" -> Ok { id; op = Shutdown }
          | "analyze" ->
              with_op
                (let* kernel = kernel_field json in
                 let* budget = parse_budget json in
                 Ok (Analyze { kernel; budget }))
          | "source" ->
              with_op
                (let* src =
                   match Json.member "src" json with
                   | Some (Json.String s) -> Ok s
                   | Some _ -> Error "field \"src\" must be a string"
                   | None -> Error "missing field \"src\""
                 in
                 let* budget = parse_budget json in
                 Ok (Source { src; budget }))
          | "eval" ->
              with_op
                (let* kernel = kernel_field json in
                 let* m = int_field_default json "m" 64 in
                 let* n = int_field_default json "n" 32 in
                 let* s = int_field_default json "s" 256 in
                 let* empirical = parse_empirical json in
                 let* budget = parse_budget json in
                 Ok (Eval { kernel; m; n; s; empirical; budget }))
          | other -> fail (Printf.sprintf "unknown op %S" other))
      | Some _ -> fail "field \"op\" must be a string"
      | None -> fail "missing field \"op\"")
  | Ok _ -> Error (Json.Null, "request must be a JSON object")

(* ------------------------------------------------------------------ *)
(* Request encoding (client side): the inverse of [parse_request].     *)

(* Every field the decoder defaults is written out; an absent budget
   field or rider is left out.  Floats (a rate, a float id) are written
   so that they read back exactly. *)
let encode_request { id; op } =
  let budget b =
    let int key = Option.map (fun i -> (key, Json.Int i)) in
    let fault (stage, k) =
      ( "fault",
        Json.Obj
          [ ("stage", Json.String (wire_of_stage stage)); ("k", Json.Int k) ] )
    in
    List.filter_map Fun.id
      [
        int "timeout_ms" b.timeout_ms;
        int "max_steps" b.max_steps;
        int "max_nodes" b.max_nodes;
        Option.map fault b.fault;
      ]
  in
  let rider { rate; seed } =
    ( "empirical",
      Json.Obj [ ("rate", Json.Float rate); ("seed", Json.Int seed) ] )
  in
  let name, fields =
    match op with
    | Ping -> ("ping", [])
    | List_kernels -> ("list", [])
    | Stats -> ("stats", [])
    | Crash -> ("crash", [])
    | Shutdown -> ("shutdown", [])
    | Analyze { kernel; budget = b } ->
        ("analyze", ("kernel", Json.String kernel) :: budget b)
    | Source { src; budget = b } ->
        ("source", ("src", Json.String src) :: budget b)
    | Eval { kernel; m; n; s; empirical; budget = b } ->
        ( "eval",
          ("kernel", Json.String kernel)
          :: ("m", Json.Int m) :: ("n", Json.Int n) :: ("s", Json.Int s)
          :: (Option.to_list (Option.map rider empirical) @ budget b) )
  in
  Json.to_string_exact
    (Json.Obj (("id", id) :: ("op", Json.String name) :: fields))

(* ------------------------------------------------------------------ *)
(* Errors.                                                             *)

type error =
  | Engine of Engine_error.t
  | Bad_request of string
  | Overloaded of { retry_after_ms : int }

let error_code = function
  | Engine (Engine_error.Invalid_input _) -> "invalid_input"
  | Engine (Engine_error.Budget_exhausted _) -> "budget_exhausted"
  | Engine (Engine_error.Unsupported _) -> "unsupported"
  | Engine (Engine_error.Internal _) -> "internal"
  | Bad_request _ -> "bad_request"
  | Overloaded _ -> "overloaded"

let error_exit_code = function
  | Engine e -> Engine_error.exit_code e
  | Bad_request _ -> 2
  | Overloaded _ -> 6

let error_message = function
  | Engine e -> Engine_error.to_string e
  | Bad_request msg -> msg
  | Overloaded { retry_after_ms } ->
      Printf.sprintf "server overloaded (request queue full); retry in %d ms"
        retry_after_ms

let error_json err =
  Json.Obj
    ([
       ("code", Json.String (error_code err));
       ("exit_code", Json.Int (error_exit_code err));
     ]
    @ (match err with
      | Engine (Engine_error.Budget_exhausted stage) ->
          [ ("stage", Json.String (wire_of_stage stage)) ]
      | Overloaded { retry_after_ms } ->
          [ ("retry_after_ms", Json.Int retry_after_ms) ]
      | _ -> [])
    @ [ ("message", Json.String (error_message err)) ])

(* ------------------------------------------------------------------ *)
(* Responses.  Compact rendering with a fixed field order keeps every
   response a pure function of the request, which is what makes cached
   responses byte-identical across cache states and worker counts. *)

let error_response ~id err =
  Json.to_string
    (Json.Obj
       [ ("id", id); ("ok", Json.Bool false); ("error", error_json err) ])

(* [ok_response_raw] splices an already-rendered result fragment into the
   envelope, byte-identical to [Json.to_string] of the equivalent object:
   this is how a cache hit reuses the stored payload without reparsing. *)
let ok_response_raw ~id ~op result =
  Printf.sprintf {|{"id":%s,"ok":true,"op":"%s","result":%s}|}
    (Json.to_string id) op result

let ok_response ~id ~op result =
  ok_response_raw ~id ~op (Json.to_string result)

(* ------------------------------------------------------------------ *)
(* Result payloads.                                                    *)

let technique_name = function
  | Derive.Classical -> "classical"
  | Derive.Hourglass -> "hourglass"
  | Derive.Hourglass_small_s -> "hourglass_small_s"
  | Derive.Trivial -> "trivial"

let degradation_json = function
  | None -> Json.Null
  | Some why -> Json.String why

let bound_json (b : Derive.t) =
  Json.Obj
    [
      ("stmt", Json.String b.stmt);
      ("technique", Json.String (technique_name b.technique));
      ("formula", Json.String (R.to_string b.formula));
      ("validity", Json.String b.validity);
      ( "s_max",
        match b.s_max with
        | None -> Json.Null
        | Some r -> Json.String (R.to_string r) );
    ]

(* Result of an inline-source analysis, with the parsed kernel's own
   name; a registry analysis has the same shape. *)
let source_result ~spec ~kernel ~hourglasses (o : Derive.outcome) =
  Json.Obj
    [
      ("kernel", Json.String kernel);
      ("spec", Json.String spec);
      ("hourglasses", Json.Int hourglasses);
      ("degradation", degradation_json o.degradation);
      ("bounds", Json.List (List.map bound_json o.bounds));
    ]

let analysis_result ~spec (a : Report.analysis) =
  source_result ~spec ~kernel:a.entry.display
    ~hourglasses:(List.length a.hourglasses)
    { Derive.bounds = a.bounds; degradation = a.degradation }

let eval_result ?empirical ~spec (a : Report.analysis) ~m ~n ~s =
  let best tech =
    match Report.eval_best a ~technique:tech ~m ~n ~s with
    | Some v -> Json.Float v
    | None -> Json.Null
  in
  Json.Obj
    ([
       ("kernel", Json.String a.entry.display);
       ("spec", Json.String spec);
       ("m", Json.Int m);
       ("n", Json.Int n);
       ("s", Json.Int s);
       ("degradation", degradation_json a.degradation);
       ("classical", best `Classical);
       ("hourglass", best `Hourglass);
       ( "paper",
         Json.Float
           (Iolb.Paper_formulas.eval_at
              (Iolb.Paper_formulas.theorem_main a.entry.kernel)
              ~m ~n ~s) );
     ]
    @ match empirical with None -> [] | Some e -> [ ("empirical", e) ])

(* ------------------------------------------------------------------ *)
(* Content addressing.                                                 *)

(* The canonical spec string of a cacheable request: the resolved kernel
   display name (so "mgs", "MGS" and the program name address the same
   content) plus, for eval, the evaluation point.  Budgets are excluded
   on purpose - a complete (non-degraded) result is the same answer
   whatever budget produced it. *)
let spec_key op ~display =
  match op with
  | Analyze _ -> Some (Printf.sprintf "analyze\x00%s" display)
  (* A source request is addressed by its text: two byte-identical
     programs share a cache entry whatever [display] resolves to. *)
  | Source { src; _ } -> Some (Printf.sprintf "source\x00%s" src)
  | Eval { m; n; s; empirical; _ } ->
      (* The empirical rider is part of the content only when present:
         plain evals keep their pre-existing keys (and cached bytes),
         and two evals sampled differently never collide. *)
      let suffix =
        match empirical with
        | None -> ""
        | Some e -> Printf.sprintf "\x00empirical\x00%h\x00%d" e.rate e.seed
      in
      Some (Printf.sprintf "eval\x00%s\x00%d\x00%d\x00%d%s" display m n s suffix)
  | Ping | List_kernels | Stats | Crash | Shutdown -> None

(* The key of an eval's empirical sweep: what the sweep depends on - the
   kernel, its concrete parameters, the exact rate and the seed - and not
   S, which only reads the sweep.  Keyed by the parameters rather than by
   [m] and [n], so GEHD2 points that differ only in the [m] it ignores
   share a sweep. *)
let sweep_key ~display ~params { rate; seed } =
  let binding (p, v) = Printf.sprintf "%s=%d" p v in
  Printf.sprintf "sweep\x00%s\x00%s\x00%h\x00%d" display
    (String.concat "\x00" (List.map binding params))
    rate seed

let spec_hash key = Digest.to_hex (Digest.string key)

(* ------------------------------------------------------------------ *)
(* Response parsing (client side).                                     *)

type parsed_response = {
  resp_id : Json.t;
  ok : bool;
  body : Json.t;  (** the [result] of an ok response, the [error] object
                      otherwise *)
  exit_code : int;  (** 0 for ok responses, the error's exit code (5 when
                        the field is missing) otherwise *)
}

let parse_response line =
  match Json.of_string line with
  | Error msg -> Error (Printf.sprintf "invalid response JSON: %s" msg)
  | Ok json -> (
      let resp_id = Option.value (Json.member "id" json) ~default:Json.Null in
      match Json.member "ok" json with
      | Some (Json.Bool true) ->
          Ok
            {
              resp_id;
              ok = true;
              body = Option.value (Json.member "result" json) ~default:Json.Null;
              exit_code = 0;
            }
      | Some (Json.Bool false) ->
          let body =
            Option.value (Json.member "error" json) ~default:Json.Null
          in
          let exit_code =
            match Json.member "exit_code" body with
            | Some (Json.Int c) -> c
            | _ -> 5
          in
          Ok { resp_id; ok = false; body; exit_code }
      | _ -> Error "response has no boolean \"ok\" field")
