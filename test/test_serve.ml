(* The bound service: wire protocol, error taxonomy, response LRU, and
   the daemon's contract - crash isolation, admission control, graceful
   degradation, byte-identical cached responses - exercised end to end
   over real sockets, including the fault-injected soak. *)

module Json = Iolb_util.Json
module Budget = Iolb_util.Budget
module Engine_error = Iolb_util.Engine_error
module Protocol = Iolb_serve.Protocol
module Lru = Iolb_serve.Lru
module Server = Iolb_serve.Server
module Client = Iolb_serve.Client

(* ------------------------------------------------------------------ *)
(* Protocol: request parsing.                                          *)

let parse_ok line =
  match Protocol.parse_request line with
  | Ok r -> r
  | Error (_, msg) -> Alcotest.failf "%S: unexpected parse error: %s" line msg

let parse_err line =
  match Protocol.parse_request line with
  | Ok _ -> Alcotest.failf "%S: expected a parse error" line
  | Error (id, msg) -> (id, msg)

let test_parse_request () =
  let r = parse_ok {|{"id":7,"op":"ping"}|} in
  Alcotest.(check bool) "ping id echoed" true (r.Protocol.id = Json.Int 7);
  Alcotest.(check bool) "ping op" true (r.Protocol.op = Protocol.Ping);
  List.iter
    (fun (line, op) ->
      Alcotest.(check bool) line true ((parse_ok line).Protocol.op = op))
    [
      ({|{"op":"list"}|}, Protocol.List_kernels);
      ({|{"op":"stats"}|}, Protocol.Stats);
      ({|{"op":"crash"}|}, Protocol.Crash);
      ({|{"op":"shutdown"}|}, Protocol.Shutdown);
    ];
  Alcotest.(check bool) "missing id defaults to null" true
    ((parse_ok {|{"op":"ping"}|}).Protocol.id = Json.Null);
  (* analyze with a full budget, fault hook included *)
  let r =
    parse_ok
      {|{"id":1,"op":"analyze","kernel":"mgs","timeout_ms":5,"max_steps":10,"max_nodes":3,"fault":{"stage":"pebble_game","k":2}}|}
  in
  (match r.Protocol.op with
  | Protocol.Analyze { kernel; budget } ->
      Alcotest.(check string) "kernel" "mgs" kernel;
      Alcotest.(check (option int)) "timeout" (Some 5) budget.timeout_ms;
      Alcotest.(check (option int)) "steps" (Some 10) budget.max_steps;
      Alcotest.(check (option int)) "nodes" (Some 3) budget.max_nodes;
      Alcotest.(check bool) "fault" true
        (budget.fault = Some (Budget.Pebble_game, 2));
      Alcotest.(check bool) "budgeted" false (Protocol.is_unlimited budget)
  | _ -> Alcotest.fail "expected analyze");
  (* a bare analyze is unlimited *)
  (match (parse_ok {|{"op":"analyze","kernel":"mgs"}|}).Protocol.op with
  | Protocol.Analyze { budget; _ } ->
      Alcotest.(check bool) "no budget fields means unlimited" true
        (Protocol.is_unlimited budget)
  | _ -> Alcotest.fail "expected analyze");
  (* eval point defaults *)
  (match (parse_ok {|{"op":"eval","kernel":"gemm"}|}).Protocol.op with
  | Protocol.Eval { kernel; m; n; s; empirical; _ } ->
      Alcotest.(check string) "kernel" "gemm" kernel;
      Alcotest.(check (list int)) "default point" [ 64; 32; 256 ] [ m; n; s ];
      Alcotest.(check bool) "no empirical rider" true (empirical = None)
  | _ -> Alcotest.fail "expected eval");
  (* empirical rider: seed defaults, rate validated at parse time *)
  (match
     (parse_ok {|{"op":"eval","kernel":"mgs","empirical":{"rate":0.25}}|})
       .Protocol.op
   with
  | Protocol.Eval { empirical = Some e; _ } ->
      Alcotest.(check (float 0.0)) "rate" 0.25 e.Protocol.rate;
      Alcotest.(check int) "default seed" 42 e.Protocol.seed
  | _ -> Alcotest.fail "expected eval with empirical rider");
  (* malformed lines: typed errors, id recovered when present *)
  List.iter
    (fun line -> ignore (parse_err line))
    [
      "";
      "not json";
      "[1,2]";
      {|{"id":1}|};
      {|{"op":42}|};
      {|{"op":"frobnicate"}|};
      {|{"op":"analyze"}|};
      {|{"op":"analyze","kernel":7}|};
      {|{"op":"analyze","kernel":"mgs","timeout_ms":"soon"}|};
      {|{"op":"analyze","kernel":"mgs","fault":{"stage":"nope","k":1}}|};
      {|{"op":"analyze","kernel":"mgs","fault":{"stage":"poly_projection","k":1}}|};
      {|{"op":"analyze","kernel":"mgs","fault":3}|};
      {|{"op":"eval","kernel":"mgs","empirical":{"rate":1.5}}|};
      {|{"op":"eval","kernel":"mgs","empirical":{"rate":0}}|};
      {|{"op":"eval","kernel":"mgs","empirical":{"rate":4.9e-324}}|};
      {|{"op":"eval","kernel":"mgs","empirical":{}}|};
      {|{"op":"eval","kernel":"mgs","empirical":"yes"}|};
      {|{"op":"eval","kernel":"mgs","empirical":{"rate":0.5,"seed":"x"}}|};
    ];
  let id, _ = parse_err {|{"id":9,"op":"frobnicate"}|} in
  Alcotest.(check bool) "id recovered from a bad request" true (id = Json.Int 9);
  let id, _ = parse_err "not json" in
  Alcotest.(check bool) "unparsable line has null id" true (id = Json.Null)

(* [encode_request] inverts [parse_request] on random requests of every
   op.  Rates and float ids are drawn at full precision - any finite
   float for an id, any rate from 2^-62 to 1 - with the extremes 2^-62
   (the sampling floor), 1 - 2^-53 and 1 pinned; texts mix in the
   characters the encoder must escape. *)
let request_gen =
  let open QCheck2.Gen in
  let text =
    string_size (int_range 0 12)
      ~gen:
        (oneofl
           [ 'a'; 'Z'; ' '; '/'; '"'; '\\'; '\n'; '\r'; '\t'; '\001'; '\xc3' ])
  in
  let finite =
    let+ bits = int64 in
    let f = Int64.float_of_bits bits in
    if Float.is_finite f then f else Float.of_int (Int64.to_int bits)
  in
  let rate =
    oneof
      [
        oneofl [ Float.ldexp 1.0 (-62); Float.pred 1.0; 1.0 ];
        (let+ m = float_bound_exclusive 1.0 and+ e = int_range 1 62 in
         Float.ldexp (1.0 +. m) (-e));
      ]
  in
  let id =
    fix
      (fun id depth ->
        let leaves =
          [
            pure Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Int i) int;
            map (fun x -> Json.Float x) finite;
            map (fun s -> Json.String s) text;
          ]
        in
        let items gen = list_size (int_range 0 3) gen in
        if depth = 0 then oneof leaves
        else
          oneof
            (map (fun l -> Json.List l) (items (id (depth - 1)))
            :: map (fun fs -> Json.Obj fs) (items (pair text (id (depth - 1))))
            :: leaves))
      2
  in
  let budget =
    let stage =
      oneofl
        Budget.[ Cdag_build; Pebble_game; Cache_sim; Derivation ]
    in
    let+ timeout_ms = option int
    and+ max_steps = option int
    and+ max_nodes = option int
    and+ fault = option (pair stage int) in
    { Protocol.timeout_ms; max_steps; max_nodes; fault }
  in
  let empirical =
    let+ rate and+ seed = int in
    { Protocol.rate; seed }
  in
  let op =
    oneof
      [
        oneofl Protocol.[ Ping; List_kernels; Stats; Crash; Shutdown ];
        (let+ kernel = text and+ budget in
         Protocol.Analyze { kernel; budget });
        (let+ src = text and+ budget in
         Protocol.Source { src; budget });
        (let+ kernel = text
         and+ m = int
         and+ n = int
         and+ s = int
         and+ empirical = option empirical
         and+ budget in
         Protocol.Eval { kernel; m; n; s; empirical; budget });
      ]
  in
  let+ id and+ op in
  { Protocol.id; op }

let test_encode_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"protocol: parse_request inverts encode_request"
       ~count:500 ~print:Protocol.encode_request request_gen (fun r ->
         Protocol.parse_request (Protocol.encode_request r) = Ok r))

let test_stage_wire_roundtrip () =
  let stages =
    [ Budget.Cdag_build; Budget.Pebble_game; Budget.Cache_sim; Budget.Derivation ]
  in
  let names = List.map Protocol.wire_of_stage stages in
  Alcotest.(check (list string))
    "stable wire names"
    [ "cdag_build"; "pebble_game"; "cache_sim"; "derivation" ]
    names;
  List.iter2
    (fun stage name ->
      Alcotest.(check bool) (name ^ " round-trips") true
        (Protocol.stage_of_wire name = Some stage))
    stages names;
  Alcotest.(check bool) "unknown stage rejected" true
    (Protocol.stage_of_wire "warp_drive" = None);
  Alcotest.(check bool) "retired poly_projection stage rejected" true
    (Protocol.stage_of_wire "poly_projection" = None)

(* Satellite: every Engine_error constructor maps to a distinct wire
   code whose numeric exit code matches the CLI taxonomy, and the
   service-level errors extend it without colliding. *)
let test_error_codes_match_cli () =
  let engine_cases =
    Engine_error.
      [
        Invalid_input "bad"; Budget_exhausted Budget.Cdag_build;
        Budget_exhausted Budget.Pebble_game; Budget_exhausted Budget.Cache_sim;
        Budget_exhausted Budget.Derivation;
        Unsupported "scope"; Internal "bug";
      ]
  in
  List.iter
    (fun e ->
      let err = Protocol.Engine e in
      Alcotest.(check int)
        (Protocol.error_code err ^ " matches the CLI exit code")
        (Engine_error.exit_code e)
        (Protocol.error_exit_code err))
    engine_cases;
  let all =
    List.map (fun e -> Protocol.Engine e) engine_cases
    @ [ Protocol.Bad_request "junk"; Protocol.Overloaded { retry_after_ms = 5 } ]
  in
  let codes = List.sort_uniq compare (List.map Protocol.error_code all) in
  Alcotest.(check (list string))
    "six distinct wire codes"
    [
      "bad_request"; "budget_exhausted"; "internal"; "invalid_input";
      "overloaded"; "unsupported";
    ]
    codes;
  Alcotest.(check int) "bad_request is an input error" 2
    (Protocol.error_exit_code (Protocol.Bad_request "junk"));
  Alcotest.(check int) "overloaded extends the taxonomy" 6
    (Protocol.error_exit_code (Protocol.Overloaded { retry_after_ms = 5 }));
  (* the structured payload carries the stage / retry hint *)
  Alcotest.(check bool) "budget_exhausted names its stage" true
    (Json.member "stage"
       (Protocol.error_json (Protocol.Engine (Engine_error.Budget_exhausted Budget.Cache_sim)))
    = Some (Json.String "cache_sim"));
  Alcotest.(check bool) "overloaded carries retry_after_ms" true
    (Json.member "retry_after_ms"
       (Protocol.error_json (Protocol.Overloaded { retry_after_ms = 25 }))
    = Some (Json.Int 25))

let test_response_envelopes () =
  let id = Json.Int 3 in
  let result = Json.Obj [ ("pong", Json.Bool true) ] in
  let rendered = Protocol.ok_response ~id ~op:"ping" result in
  Alcotest.(check string) "raw splice is byte-identical" rendered
    (Protocol.ok_response_raw ~id ~op:"ping" (Json.to_string result));
  (match Protocol.parse_response rendered with
  | Ok r ->
      Alcotest.(check bool) "id echoed" true (r.Protocol.resp_id = id);
      Alcotest.(check bool) "ok" true r.Protocol.ok;
      Alcotest.(check int) "success exit code" 0 r.Protocol.exit_code
  | Error m -> Alcotest.failf "ok response does not parse: %s" m);
  let err =
    Protocol.error_response ~id:(Json.String "x")
      (Protocol.Engine (Engine_error.Budget_exhausted Budget.Derivation))
  in
  (match Protocol.parse_response err with
  | Ok r ->
      Alcotest.(check bool) "error id echoed" true
        (r.Protocol.resp_id = Json.String "x");
      Alcotest.(check bool) "not ok" false r.Protocol.ok;
      Alcotest.(check int) "exit code surfaced" 3 r.Protocol.exit_code
  | Error m -> Alcotest.failf "error response does not parse: %s" m);
  (match Protocol.parse_response "garbage" with
  | Ok _ -> Alcotest.fail "garbage parsed as a response"
  | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Lru: recency bumping, eviction order, stats, disabled cache.        *)

let test_lru () =
  let c = Lru.create ~capacity:2 in
  Alcotest.(check (option string)) "miss" None (Lru.find c "a");
  Lru.add c "a" "1";
  Lru.add c "b" "2";
  Alcotest.(check (option string)) "hit a" (Some "1") (Lru.find c "a");
  (* b is now least recently used; adding c evicts it *)
  Lru.add c "c" "3";
  Alcotest.(check (option string)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option string)) "a survived the bump" (Some "1")
    (Lru.find c "a");
  Alcotest.(check (option string)) "c present" (Some "3") (Lru.find c "c");
  Lru.add c "a" "1'";
  Alcotest.(check (option string)) "refresh updates in place" (Some "1'")
    (Lru.find c "a");
  let s = Lru.stats c in
  Alcotest.(check int) "entries" 2 s.Lru.entries;
  Alcotest.(check int) "capacity" 2 s.Lru.capacity;
  Alcotest.(check int) "evictions" 1 s.Lru.evictions;
  Alcotest.(check int) "hits" 4 s.Lru.hits;
  Alcotest.(check int) "misses" 2 s.Lru.misses;
  (* capacity 0 disables the cache entirely *)
  let off = Lru.create ~capacity:0 in
  Lru.add off "k" "v";
  Alcotest.(check (option string)) "disabled cache never hits" None
    (Lru.find off "k");
  Alcotest.(check int) "disabled cache stays empty" 0 (Lru.stats off).Lru.entries;
  Alcotest.(check bool) "negative capacity rejected" true
    (try
       ignore (Lru.create ~capacity:(-1));
       false
     with Invalid_argument _ -> true)

(* The weighted form behind the sweep cache: eviction follows weight,
   not entry count. *)
let test_lru_weighted () =
  let c = Lru.create ~capacity:10 in
  let check_stats what (entries, weight, evictions) =
    let s = Lru.stats c in
    Alcotest.(check (list int))
      (what ^ ": entries, weight, evictions")
      [ entries; weight; evictions ]
      [ s.Lru.entries; s.Lru.weight; s.Lru.evictions ]
  in
  Lru.add c "a" 1 ~weight:4;
  Lru.add c "b" 2 ~weight:4;
  Alcotest.(check (option int)) "hit a" (Some 1) (Lru.find c "a");
  (* 12 > 10: the least recently used b goes, a stays *)
  Lru.add c "c" 3 ~weight:4;
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find c "a");
  check_stats "after c" (2, 8, 1);
  (* heavier than the capacity: not stored, and nothing is evicted *)
  Lru.add c "d" 4 ~weight:11;
  Alcotest.(check (option int)) "over-capacity value not stored" None
    (Lru.find c "d");
  check_stats "after d" (2, 8, 1);
  (* one heavy entry evicts both light ones *)
  Lru.add c "e" 5 ~weight:10;
  check_stats "after e" (1, 10, 3);
  Alcotest.(check (option int)) "e stored at the capacity" (Some 5)
    (Lru.find c "e");
  (* a refresh carries its new weight *)
  Lru.add c "e" 6 ~weight:2;
  check_stats "after refreshing e" (1, 2, 3);
  (* capacity 0 stores nothing, whatever the weight *)
  let off = Lru.create ~capacity:0 in
  Lru.add off "k" 1 ~weight:1;
  Lru.add off "z" 2 ~weight:0;
  Alcotest.(check (option int)) "disabled cache never hits" None
    (Lru.find off "z");
  Alcotest.(check (list int)) "disabled cache stays empty" [ 0; 0 ]
    [ (Lru.stats off).Lru.entries; (Lru.stats off).Lru.weight ]

(* ------------------------------------------------------------------ *)
(* Server end to end: real sockets, real domains.                      *)

let fresh_address () =
  let path = Filename.temp_file "iolb-serve" ".sock" in
  Sys.remove path;
  Server.Unix_sock path

let with_server ?(jobs = 2) ?(queue = 64) ?(cache = 128) ?(conns = 32)
    ?(allow_crash = false) ?(address = fresh_address ()) f =
  let config =
    {
      (Server.default_config ~address) with
      Server.jobs;
      queue_capacity = queue;
      cache_capacity = cache;
      max_connections = conns;
      allow_crash;
    }
  in
  let t = Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Server.join t)
    (fun () -> f t address)

(* An address the OS refuses is invalid input (exit 2 behind
   Engine_error.guard), named with the OS reason - not an internal error. *)
let test_unusable_address () =
  let path = "/nonexistent/d/s.sock" in
  match Server.start (Server.default_config ~address:(Server.Unix_sock path)) with
  | t ->
      Server.stop t;
      Server.join t;
      Alcotest.fail "bind under a missing directory succeeded"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "names the path and the reason"
        ("cannot listen on " ^ path ^ ": No such file or directory")
        msg

let with_client address f =
  let c = Client.connect ~attempts:50 ~delay_s:0.05 address in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let rpc c ?id ~op fields =
  match Client.rpc c ?id ~op fields with
  | Ok r -> r
  | Error m -> Alcotest.failf "op %s: unparsable response: %s" op m

(* One lock-step raw exchange: send a line, read its response line. *)
let raw_line c line =
  Client.send_line c line;
  match Client.recv_line c with
  | Some l -> l
  | None -> Alcotest.failf "connection closed after %S" line

let parsed line =
  match Protocol.parse_response line with
  | Ok r -> r
  | Error m -> Alcotest.failf "unparsable response %S: %s" line m

let wait_for ?(timeout_s = 10.0) what pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else (
      Unix.sleepf 0.005;
      go ())
  in
  go ()

let test_server_end_to_end () =
  with_server ~allow_crash:true (fun t address ->
      with_client address (fun c ->
          (* ping echoes an arbitrary id *)
          let r = rpc c ~id:(Json.Int 42) ~op:"ping" [] in
          Alcotest.(check bool) "ping ok" true r.Protocol.ok;
          Alcotest.(check bool) "ping id" true (r.Protocol.resp_id = Json.Int 42);
          (* list names the paper kernels *)
          let r = rpc c ~op:"list" [] in
          (match Json.member "kernels" r.Protocol.body with
          | Some (Json.List ks) ->
              Alcotest.(check int) "five paper kernels" 5 (List.length ks)
          | _ -> Alcotest.fail "list: missing kernels field");
          (* the same analyze twice: byte-identical, and the second is a
             cache hit *)
          let line = {|{"id":1,"op":"analyze","kernel":"mgs"}|} in
          let a = raw_line c line in
          let b = raw_line c line in
          Alcotest.(check string) "cached response byte-identical" a b;
          Alcotest.(check bool) "analysis ok" true (parsed a).Protocol.ok;
          let r = rpc c ~op:"stats" [] in
          (match Json.member "cache" r.Protocol.body with
          | Some cache ->
              Alcotest.(check bool) "stats counts the cache hit" true
                (match Json.member "hits" cache with
                | Some (Json.Int h) -> h >= 1
                | _ -> false)
          | None -> Alcotest.fail "stats: missing cache section");
          (* eval with the default point *)
          let r = rpc c ~op:"eval" [ ("kernel", Json.String "mgs") ] in
          Alcotest.(check bool) "eval ok" true r.Protocol.ok;
          Alcotest.(check bool) "eval echoes the point" true
            (Json.member "m" r.Protocol.body = Some (Json.Int 64));
          Alcotest.(check bool) "plain eval has no empirical field" true
            (Json.member "empirical" r.Protocol.body = None);
          (* the empirical rider: a sampled sweep at the evaluation point,
             byte-reproducible (sampling is hash-based) and bracketing the
             exact measured loads *)
          let line =
            {|{"id":11,"op":"eval","kernel":"mgs","m":24,"n":12,"s":64,"empirical":{"rate":0.5,"seed":1}}|}
          in
          let a = raw_line c line in
          Alcotest.(check string) "empirical eval byte-reproducible" a
            (raw_line c line);
          let r = parsed a in
          Alcotest.(check bool) "empirical eval ok" true r.Protocol.ok;
          (match Json.member "empirical" r.Protocol.body with
          | Some emp ->
              let num key =
                match Json.member key emp with
                | Some (Json.Int i) -> float_of_int i
                | Some (Json.Float f) -> f
                | _ -> Alcotest.failf "empirical: missing %s" key
              in
              Alcotest.(check (float 0.0)) "rate echoed" 0.5 (num "rate");
              Alcotest.(check bool) "partial sample" true
                (num "kept_accesses" < num "total_accesses");
              let exact =
                let module Sweep = Iolb_pebble.Sweep in
                let module Trace = Iolb_pebble.Trace in
                let entry = Iolb.Report.find "mgs" in
                let params =
                  Result.get_ok (Iolb.Report.concrete_params entry ~m:24 ~n:12)
                in
                let sw = Sweep.run (Trace.of_program ~params entry.program) in
                float_of_int (Sweep.stats sw ~size:64).Iolb_pebble.Cache.loads
              in
              let lo, hi =
                match Json.member "loads" emp with
                | Some l ->
                    ( (match Json.member "lo" l with
                      | Some (Json.Float f) -> f
                      | _ -> Alcotest.fail "loads.lo"),
                      match Json.member "hi" l with
                      | Some (Json.Float f) -> f
                      | _ -> Alcotest.fail "loads.hi" )
                | None -> Alcotest.fail "empirical: missing loads"
              in
              Alcotest.(check bool)
                (Printf.sprintf "interval [%g, %g] covers exact loads %g" lo
                   hi exact)
                true
                (lo -. (hi -. lo) <= exact && exact <= hi +. (hi -. lo))
          | None -> Alcotest.fail "empirical field missing");
          (* rate 1 rides the exact streaming sweep *)
          let r =
            parsed
              (raw_line c
                 {|{"id":12,"op":"eval","kernel":"mgs","m":24,"n":12,"s":64,"empirical":{"rate":1}}|})
          in
          Alcotest.(check bool) "rate-1 empirical ok" true r.Protocol.ok;
          (match Json.member "empirical" r.Protocol.body with
          | Some emp ->
              Alcotest.(check bool) "rate 1 is exact" true
                (Json.member "exact" emp = Some (Json.Bool true))
          | None -> Alcotest.fail "rate-1 empirical field missing");
          (* a malformed line gets a typed bad_request; the connection and
             the server survive *)
          let r = parsed (raw_line c "this is not json") in
          Alcotest.(check bool) "malformed not ok" false r.Protocol.ok;
          Alcotest.(check int) "malformed exit code" 2 r.Protocol.exit_code;
          Alcotest.(check bool) "server alive after bad line" true
            (rpc c ~op:"ping" []).Protocol.ok;
          (* unknown kernel: invalid_input *)
          let r =
            parsed (raw_line c {|{"id":2,"op":"analyze","kernel":"nope"}|})
          in
          Alcotest.(check int) "unknown kernel is invalid_input" 2
            r.Protocol.exit_code;
          (* over-deadline request degrades into a typed budget error, not
             a hang *)
          let r =
            parsed
              (raw_line c
                 {|{"id":3,"op":"analyze","kernel":"gehd2","timeout_ms":1}|})
          in
          Alcotest.(check int) "over-deadline is budget_exhausted" 3
            r.Protocol.exit_code;
          Alcotest.(check bool) "budget error names a stage" true
            (Json.member "stage" r.Protocol.body <> None);
          (* crash: the poisoned request gets a typed internal error, the
             worker is respawned, the daemon survives *)
          let r = rpc c ~op:"crash" [] in
          Alcotest.(check bool) "crash not ok" false r.Protocol.ok;
          Alcotest.(check int) "crash is internal" 5 r.Protocol.exit_code;
          wait_for "the worker respawn" (fun () -> Server.respawns t >= 1);
          Alcotest.(check bool) "server alive after crash" true
            (rpc c ~op:"ping" []).Protocol.ok);
      (* graceful shutdown over the wire: the op acknowledges, then join
         (in the with_server finally) completes *)
      with_client address (fun c ->
          let r = rpc c ~op:"shutdown" [] in
          Alcotest.(check bool) "shutdown acknowledged" true r.Protocol.ok))

(* eval applies the CLI's domain check: a point outside the kernel's
   assumptions, or s < 1, is invalid_input on its own id and never enters
   the cache; an in-domain point answers the registry analysis. *)
let test_eval_domain_check () =
  with_server (fun _ address ->
      with_client address (fun c ->
          let entries () =
            match Json.member "cache" (rpc c ~op:"stats" []).Protocol.body with
            | Some cache -> (
                match Json.member "entries" cache with
                | Some (Json.Int n) -> n
                | _ -> Alcotest.fail "stats: missing cache entries")
            | None -> Alcotest.fail "stats: missing cache section"
          in
          List.iter
            (fun (id, point, violated) ->
              let line =
                Printf.sprintf {|{"id":%d,"op":"eval","kernel":"mgs",%s}|} id
                  point
              in
              (* twice: the second would be a cache hit if the first had
                 been cached *)
              for _ = 1 to 2 do
                let r = parsed (raw_line c line) in
                Alcotest.(check bool) (point ^ ": not ok") false r.Protocol.ok;
                Alcotest.(check int) (point ^ ": invalid_input") 2
                  r.Protocol.exit_code;
                Alcotest.(check bool) (point ^ ": own id") true
                  (r.Protocol.resp_id = Json.Int id);
                match Json.member "message" r.Protocol.body with
                | Some (Json.String m) ->
                    Alcotest.(check bool)
                      (Printf.sprintf "%s: message %S names %S" point m
                         violated)
                      true
                      (Test_check.has_substring ~sub:violated m)
                | _ -> Alcotest.fail "error without a message"
              done;
              Alcotest.(check int) (point ^ ": nothing cached") 0 (entries ()))
            [
              (21, {|"m":3,"n":5,"s":16|}, "M - N >= 0");
              (22, {|"m":8,"n":4,"s":0|}, "s >= 1");
            ];
          let line =
            raw_line c
              {|{"id":23,"op":"eval","kernel":"mgs","m":128,"n":64,"s":256}|}
          in
          Alcotest.(check bool) "in-domain eval ok" true (parsed line).Protocol.ok;
          let a = Iolb.Report.analyze_cached (Iolb.Report.find "mgs") in
          List.iter
            (fun (field, technique) ->
              let want =
                Iolb.Report.eval_best a ~technique ~m:128 ~n:64 ~s:256
                |> Option.get
              in
              let sub =
                Printf.sprintf {|"%s":%s|} field (Json.to_string (Json.Float want))
              in
              Alcotest.(check bool) (field ^ " bound as before") true
                (Test_check.has_substring ~sub line))
            [ ("classical", `Classical); ("hourglass", `Hourglass) ];
          Alcotest.(check int) "in-domain eval cached" 1 (entries ())))

(* Kernel names resolve as on the command line: a baseline's analyze is
   its ladder outcome in the source payload shape - the same bounds as the
   source op on its shipped text, cached like any complete answer - and
   its eval is unsupported, with the CLI's message. *)
let test_baseline_names () =
  with_server (fun _ address ->
      with_client address (fun c ->
          let field key (r : Protocol.parsed_response) =
            match Json.member key r.body with
            | Some v -> Json.to_string v
            | None -> Alcotest.failf "missing field %s" key
          in
          let line = {|{"id":31,"op":"analyze","kernel":"gemm"}|} in
          let a = raw_line c line in
          Alcotest.(check string) "cached response byte-identical" a
            (raw_line c line);
          let analyze = parsed a in
          Alcotest.(check bool) "analyze gemm ok" true analyze.ok;
          Alcotest.(check string) "kernel is the baseline's name" {|"gemm"|}
            (field "kernel" analyze);
          let src =
            In_channel.with_open_bin "../examples/kernels/gemm.iolb"
              In_channel.input_all
          in
          let source = rpc c ~op:"source" [ ("src", Json.String src) ] in
          Alcotest.(check bool) "source ok" true source.ok;
          List.iter
            (fun key ->
              Alcotest.(check string)
                (key ^ " as for the source text")
                (field key source) (field key analyze))
            [ "kernel"; "hourglasses"; "degradation"; "bounds" ];
          let r = rpc c ~op:"eval" [ ("kernel", Json.String "atax") ] in
          Alcotest.(check int) "eval atax exits 4" 4 r.exit_code;
          Alcotest.(check string) "eval atax is unsupported" {|"unsupported"|}
            (field "code" r);
          Alcotest.(check string) "the CLI's message"
            (match Iolb_front.Driver.eval_entry "atax" with
            | Error e -> Json.to_string (Json.String (Engine_error.to_string e))
            | Ok _ -> Alcotest.fail "eval_entry resolved a baseline")
            (field "message" r)))

let test_crash_gated_by_default () =
  with_server (fun t address ->
      with_client address (fun c ->
          let r = rpc c ~op:"crash" [] in
          Alcotest.(check int) "crash refused as unsupported" 4
            r.Protocol.exit_code;
          Alcotest.(check int) "no respawn happened" 0 (Server.respawns t)))

(* A request line past [Protocol.max_line_bytes] gets one bad_request
   with a null id, then the daemon closes that connection; a fresh
   connection is served as before, long lines under the cap included. *)
let test_over_cap_line () =
  with_server (fun _ address ->
      with_client address (fun c ->
          Client.send_line c (String.make (Protocol.max_line_bytes + 1) '[');
          (match Client.recv_line c with
          | None -> Alcotest.fail "no response to an over-cap line"
          | Some line ->
              let r = parsed line in
              Alcotest.(check bool) "over-cap not ok" false r.Protocol.ok;
              Alcotest.(check bool) "null id" true
                (r.Protocol.resp_id = Json.Null);
              Alcotest.(check bool) "bad_request" true
                (Json.member "code" r.Protocol.body
                = Some (Json.String "bad_request"));
              Alcotest.(check int) "exit code" 2 r.Protocol.exit_code);
          (* The daemon reads nothing more from this connection, so a
             ping on it is never answered. *)
          (try Client.send_line c {|{"op":"ping"}|} with Sys_error _ -> ());
          Alcotest.(check (option string)) "then the connection closes" None
            (Client.recv_line c));
      with_client address (fun c ->
          Alcotest.(check bool) "a fresh connection answers ping" true
            (rpc c ~op:"ping" []).Protocol.ok;
          (* lines under the cap and at it, read over many buffers, are
             served whole *)
          let id = String.init 200_000 (fun i -> Char.chr (97 + (i mod 26))) in
          let r = rpc c ~id:(Json.String id) ~op:"ping" [] in
          Alcotest.(check bool) "a 200 kB line answers on its own id" true
            (r.Protocol.ok && r.Protocol.resp_id = Json.String id);
          let envelope id =
            Json.to_string
              (Json.Obj [ ("id", Json.String id); ("op", Json.String "ping") ])
          in
          let id =
            String.init
              (Protocol.max_line_bytes - String.length (envelope ""))
              (fun i -> Char.chr (97 + (i mod 26)))
          in
          Alcotest.(check int) "the line is exactly the cap"
            Protocol.max_line_bytes (String.length (envelope id));
          let r = parsed (raw_line c (envelope id)) in
          Alcotest.(check bool) "a line at the cap answers on its own id" true
            (r.Protocol.ok && r.Protocol.resp_id = Json.String id);
          match
            Json.member "requests" (rpc c ~op:"stats" []).Protocol.body
            |> Option.map (Json.member "bad_lines")
          with
          | Some (Some (Json.Int n)) ->
              Alcotest.(check int) "counted as a bad line" 1 n
          | _ -> Alcotest.fail "stats has no requests.bad_lines"))

(* One write of 3 MiB with no newline, three times the cap, on the Unix
   socket and on TCP: the write completes (the daemon discards what it
   will not read instead of resetting the connection), and the client
   reads the bad_request with a null id, then EOF. *)
let test_over_cap_stream () =
  let loopback_port () =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, 0));
        match Unix.getsockname fd with
        | ADDR_INET (_, port) -> port
        | ADDR_UNIX _ -> Alcotest.fail "loopback socket without a port")
  in
  List.iter
    (fun address ->
      with_server ~address (fun _ address ->
          let domain, sockaddr =
            match address with
            | Server.Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
            | Server.Tcp (host, port) ->
                (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
          in
          let fd = Unix.socket domain SOCK_STREAM 0 in
          let ic = Unix.in_channel_of_descr fd in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              Unix.setsockopt_float fd SO_SNDTIMEO 30.;
              Unix.setsockopt_float fd SO_RCVTIMEO 30.;
              Unix.connect fd sockaddr;
              let payload = Bytes.make (3 lsl 20) '[' in
              Alcotest.(check int) "the whole write completes"
                (Bytes.length payload)
                (Unix.write fd payload 0 (Bytes.length payload));
              let r = parsed (input_line ic) in
              Alcotest.(check bool) "not ok" false r.Protocol.ok;
              Alcotest.(check bool) "null id" true
                (r.Protocol.resp_id = Json.Null);
              Alcotest.(check bool) "bad_request" true
                (Json.member "code" r.Protocol.body
                = Some (Json.String "bad_request"));
              Alcotest.(check bool) "then EOF" true
                (match input_line ic with
                | _ -> false
                | exception End_of_file -> true))))
    [ fresh_address (); Server.Tcp ("127.0.0.1", loopback_port ()) ]

(* The same request sequence against different worker widths must come
   back byte-for-byte identical - the cache and the fan-out must not
   leak into the payload. *)
let determinism_lines =
  [
    {|{"id":0,"op":"list"}|};
    {|{"id":1,"op":"analyze","kernel":"mgs"}|};
    {|{"id":2,"op":"analyze","kernel":"qr hh a2v"}|};
    {|{"id":3,"op":"eval","kernel":"mgs"}|};
    {|{"id":4,"op":"analyze","kernel":"gemm"}|};
    {|{"id":5,"op":"analyze","kernel":"nope"}|};
    {|{"id":6,"op":"analyze","kernel":"mgs"}|};
    {|{"id":7,"op":"eval","kernel":"atax","m":128,"n":64,"s":512}|};
  ]

let responses_at_width jobs =
  with_server ~jobs (fun _ address ->
      with_client address (fun c -> List.map (raw_line c) determinism_lines))

let test_byte_identical_across_widths () =
  let narrow = responses_at_width 1 in
  let wide = responses_at_width 4 in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string) (Printf.sprintf "request %d" i) a b)
    (List.combine narrow wide)

(* Admission control: a pipelined burst against a one-slot queue and a
   single busy worker sheds with typed [overloaded] responses, and every
   request id is answered exactly once. *)
let test_overload_sheds () =
  with_server ~jobs:1 ~queue:1 ~cache:0 (fun _ address ->
      with_client address (fun c ->
          let burst () =
            let n = 24 in
            (* A heavyweight uncached analysis parks the only worker... *)
            Client.send_line c
              {|{"id":0,"op":"analyze","kernel":"gehd2","max_steps":1000000000}|};
            (* ...and the rest of the burst overflows the one-slot queue. *)
            for i = 1 to n do
              Client.send_line c
                (Printf.sprintf
                   {|{"id":%d,"op":"analyze","kernel":"mgs","max_steps":1000000000}|}
                   i)
            done;
            let responses =
              List.init (n + 1) (fun _ ->
                  match Client.recv_line c with
                  | Some l -> parsed l
                  | None -> Alcotest.fail "connection closed mid-burst")
            in
            let ids =
              List.sort compare
                (List.map
                   (fun r ->
                     match r.Protocol.resp_id with
                     | Json.Int i -> i
                     | _ -> Alcotest.fail "response with a foreign id")
                   responses)
            in
            Alcotest.(check (list int))
              "every request answered exactly once"
              (List.init (n + 1) Fun.id)
              ids;
            let shed =
              List.filter (fun r -> r.Protocol.exit_code = 6) responses
            in
            Alcotest.(check bool) "some requests were served" true
              (List.exists (fun r -> r.Protocol.ok) responses);
            List.iter
              (fun r ->
                Alcotest.(check bool) "overloaded carries a retry hint" true
                  (match Json.member "retry_after_ms" r.Protocol.body with
                  | Some (Json.Int ms) -> ms >= 0
                  | _ -> false))
              shed;
            List.length shed
          in
          (* The burst outruns the worker by construction; retry a few
             times anyway so a pathological scheduler cannot flake us. *)
          let rec go tries =
            if burst () = 0 then
              if tries > 1 then go (tries - 1)
              else Alcotest.fail "bounded queue never shed a pipelined burst"
          in
          go 5))

(* ------------------------------------------------------------------ *)
(* The soak: one daemon, four connections, 520 mixed requests - valid,  *)
(* malformed, over-budget, fault-injected, and worker-killing - with    *)
(* zero daemon crashes and a typed response for every single one.       *)

(* The soak analyzes the paper entries (a baseline's analyze is its
   ladder outcome, covered by its own test).  gehd2 is reserved for the
   over-budget branch: a complete analysis is cached with the budget
   excluded from its key (a complete answer is the same answer whatever
   budget produced it), so analyzing it unbudgeted anywhere else would
   let the over-deadline requests be answered from the cache instead of
   exercising the budget path. *)
let soak_kernels = [| "mgs"; "qr hh a2v"; "qr hh v2q"; "gebd2" |]

(* [eval] resolves paper kernels only (a baseline's eval is unsupported:
   it has no theorem formula to evaluate); eval specs live in a separate
   key space, so evaling gehd2 does not feed the analyze cache. *)
let soak_eval_kernels = [| "mgs"; "qr hh a2v"; "qr hh v2q"; "gebd2"; "gehd2" |]

let soak_stages = [| "cdag_build"; "pebble_game"; "cache_sim"; "derivation" |]

let soak_garbage =
  [| "{"; "[]"; "not json"; {|{"op":42}|}; {|{"op":"analyze"}|}; "\"str\"" |]

let test_soak () =
  with_server ~jobs:3 ~queue:16 ~cache:32 ~allow_crash:true (fun t address ->
      let conns =
        Array.init 4 (fun _ -> Client.connect ~attempts:50 ~delay_s:0.05 address)
      in
      Fun.protect
        ~finally:(fun () -> Array.iter Client.close conns)
        (fun () ->
          let n = 520 in
          let crashes = ref 0 and oks = ref 0 and typed_errors = ref 0 in
          let duplicate_responses = ref [] in
          for i = 0 to n - 1 do
            let c = conns.(i mod Array.length conns) in
            (* [check_id]: the response must echo the request id.
               [expect]: [`Ok], a fixed exit [`Code], any [`Typed]
               outcome (fault injection degrades or errors depending on
               where the hook lands), or [`Dup] (byte-compared at the
               end). *)
            let check_id, expect, line =
              match i mod 13 with
              | 0 ->
                  ( false,
                    `Code 2,
                    soak_garbage.(i / 13 mod Array.length soak_garbage) )
              | 1 ->
                  incr crashes;
                  (true, `Code 5, Printf.sprintf {|{"id":%d,"op":"crash"}|} i)
              | 2 ->
                  ( true,
                    `Code 3,
                    Printf.sprintf
                      {|{"id":%d,"op":"analyze","kernel":"gehd2","timeout_ms":1}|}
                      i )
              | 3 ->
                  ( true,
                    `Code 2,
                    Printf.sprintf
                      {|{"id":%d,"op":"analyze","kernel":"no-such-kernel"}|} i )
              | 4 ->
                  let stage = soak_stages.(i / 13 mod Array.length soak_stages) in
                  ( true,
                    `Typed,
                    Printf.sprintf
                      {|{"id":%d,"op":"analyze","kernel":"mgs","fault":{"stage":"%s","k":%d}}|}
                      i stage
                      (1 + (i mod 40)) )
              | 5 ->
                  ( true,
                    `Ok,
                    Printf.sprintf {|{"id":%d,"op":"eval","kernel":"%s"}|} i
                      soak_eval_kernels.(i mod Array.length soak_eval_kernels) )
              | 6 -> (true, `Ok, Printf.sprintf {|{"id":%d,"op":"stats"}|} i)
              | 7 -> (false, `Dup, {|{"id":"dup","op":"analyze","kernel":"gebd2"}|})
              | _ ->
                  ( true,
                    `Ok,
                    Printf.sprintf {|{"id":%d,"op":"analyze","kernel":"%s"}|} i
                      soak_kernels.(i mod Array.length soak_kernels) )
            in
            Client.send_line c line;
            match Client.recv_line c with
            | None -> Alcotest.failf "request %d: connection closed" i
            | Some resp -> (
                let r = parsed resp in
                if r.Protocol.ok then incr oks else incr typed_errors;
                if check_id then
                  Alcotest.(check bool)
                    (Printf.sprintf "request %d: id echoed" i)
                    true
                    (r.Protocol.resp_id = Json.Int i);
                match expect with
                | `Ok ->
                    Alcotest.(check bool)
                      (Printf.sprintf "request %d: ok" i)
                      true r.Protocol.ok
                | `Code code ->
                    Alcotest.(check int)
                      (Printf.sprintf "request %d: exit code" i)
                      code r.Protocol.exit_code
                | `Typed ->
                    Alcotest.(check bool)
                      (Printf.sprintf "request %d: typed outcome" i)
                      true
                      (r.Protocol.ok
                      || List.mem r.Protocol.exit_code [ 2; 3; 4; 5 ])
                | `Dup ->
                    Alcotest.(check bool)
                      (Printf.sprintf "request %d: dup ok" i)
                      true r.Protocol.ok;
                    duplicate_responses := resp :: !duplicate_responses)
          done;
          (* the cached spec answered byte-identically every time *)
          (match !duplicate_responses with
          | [] -> Alcotest.fail "soak produced no duplicate-spec requests"
          | first :: rest ->
              List.iter
                (Alcotest.(check string) "duplicate spec byte-identical" first)
                rest);
          (* every worker kill was isolated and respawned *)
          wait_for "all crash respawns" (fun () ->
              Server.respawns t >= !crashes);
          Alcotest.(check int) "one respawn per crash op" !crashes
            (Server.respawns t);
          Alcotest.(check bool) "soak saw successes" true (!oks > 250);
          Alcotest.(check bool) "soak saw typed failures" true
            (!typed_errors > 100);
          (* the daemon is still fully alive on every connection *)
          Array.iter
            (fun c ->
              Alcotest.(check bool) "final ping" true
                (rpc c ~op:"ping" []).Protocol.ok)
            conns))

(* An answer computed with no budget at all is the same on every call,
   so it is cached even when degraded (a baseline's ladder outcome is);
   an answer degraded under a step budget is budget-specific and is
   computed afresh each time. *)
let test_unbudgeted_degraded_cached () =
  with_server (fun _ address ->
      with_client address (fun c ->
          let counters () =
            match Json.member "cache" (rpc c ~op:"stats" []).Protocol.body with
            | Some cache -> (
                match (Json.member "hits" cache, Json.member "misses" cache) with
                | Some (Json.Int h), Some (Json.Int m) -> (h, m)
                | _ -> Alcotest.fail "stats: missing cache counters")
            | None -> Alcotest.fail "stats: missing cache section"
          in
          let src =
            In_channel.with_open_bin "../examples/kernels/jacobi1d.iolb"
              In_channel.input_all
          in
          List.iter
            (fun (what, line) ->
              let h0, m0 = counters () in
              let a = raw_line c line in
              let degradation =
                Json.member "degradation" (parsed a).Protocol.body
              in
              Alcotest.(check bool) (what ^ ": degraded") true
                (degradation <> None && degradation <> Some Json.Null);
              Alcotest.(check string) (what ^ ": byte-identical") a
                (raw_line c line);
              Alcotest.(check (pair int int))
                (what ^ ": one miss, then one hit")
                (h0 + 1, m0 + 1) (counters ()))
            [
              ("analyze jacobi1d", {|{"id":41,"op":"analyze","kernel":"jacobi1d"}|});
              ("analyze atax", {|{"id":42,"op":"analyze","kernel":"atax"}|});
              ( "source jacobi1d",
                Json.to_string
                  (Json.Obj
                     [
                       ("id", Json.Int 43);
                       ("op", Json.String "source");
                       ("src", Json.String src);
                     ]) );
            ];
          let h0, m0 = counters () in
          let line =
            {|{"id":44,"op":"analyze","kernel":"gebd2","max_steps":200}|}
          in
          for _ = 1 to 2 do
            let r = parsed (raw_line c line) in
            Alcotest.(check bool) "capped gebd2 degraded" true
              (match Json.member "degradation" r.Protocol.body with
              | Some (Json.String _) -> true
              | _ -> false)
          done;
          Alcotest.(check (pair int int)) "capped gebd2: two misses"
            (h0, m0 + 2) (counters ())))

(* A daemon admitting one connection refuses a second with one
   [overloaded] line carrying a null id, then EOF.  The second connection
   reads with a timeout, so a daemon that admits it fails the test
   instead of hanging it.  Once the first client has gone a new
   connection is served; its reader frees the slot while it tears down,
   so the new client retries until a ping is answered. *)
let test_connection_cap () =
  with_server ~conns:1 (fun _ address ->
      with_client address (fun first ->
          Alcotest.(check bool) "the first connection is served" true
            (rpc first ~op:"ping" []).Protocol.ok;
          let domain, addr = Server.sockaddr address in
          let fd = Unix.socket ~cloexec:true domain SOCK_STREAM 0 in
          Unix.connect fd addr;
          Unix.setsockopt_float fd SO_RCVTIMEO 10.0;
          let ic = Unix.in_channel_of_descr fd in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let next () =
                try Some (input_line ic) with End_of_file | Sys_error _ -> None
              in
              let r =
                match next () with
                | Some line -> parsed line
                | None -> Alcotest.fail "a refused connection got no line"
              in
              Alcotest.(check bool) "null id" true
                (r.Protocol.resp_id = Json.Null);
              Alcotest.(check bool) "overloaded" true
                (Json.member "code" r.Protocol.body
                = Some (Json.String "overloaded"));
              Alcotest.(check int) "exit code" 6 r.Protocol.exit_code;
              Alcotest.(check (option string)) "then EOF" None (next ())));
      wait_for "a new connection to be served" (fun () ->
          let c = Client.connect address in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              match Client.rpc c ~op:"ping" [] with
              | Ok r -> r.Protocol.ok
              | Error _ | (exception Sys_error _) -> false)))

(* A TCP port outside 0..65535 is rejected, not wrapped to another
   port: by the resolver, the daemon and the client alike.  A daemon
   that is not there is the caller's input too, named with the OS
   reason. *)
let test_bad_addresses () =
  let address = Server.Tcp ("127.0.0.1", 70000) in
  (match Server.sockaddr address with
  | _ -> Alcotest.fail "port 70000 resolved"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "names the port" "port 70000 is outside 0..65535"
        msg);
  (match Server.start (Server.default_config ~address) with
  | t ->
      Server.stop t;
      Server.join t;
      Alcotest.fail "listened on port 70000"
  | exception Invalid_argument _ -> ());
  (match Client.connect address with
  | c ->
      Client.close c;
      Alcotest.fail "connected to port 70000"
  | exception Invalid_argument _ -> ());
  let path = "/nonexistent/d/s.sock" in
  match Client.connect (Server.Unix_sock path) with
  | c ->
      Client.close c;
      Alcotest.fail "connected to a missing socket"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "names the address and the reason"
        ("cannot connect to unix:" ^ path ^ ": No such file or directory")
        msg

(* A reader's domain is joined once its connection is done, so the
   handles the daemon keeps follow the live connections: 500 connections
   one after another leave the live heap where it was, not 20 words per
   connection higher. *)
let test_finished_readers_joined () =
  with_server (fun _ address ->
      let ping () =
        with_client address (fun c ->
            Alcotest.(check bool) "pong" true (rpc c ~op:"ping" []).Protocol.ok)
      in
      let live () =
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words
      in
      for _ = 1 to 20 do
        ping ()
      done;
      let before = live () in
      for _ = 1 to 500 do
        ping ()
      done;
      let grown = live () - before in
      if grown >= 2_000 then
        Alcotest.failf "500 connections grew the live heap by %d words" grown)

(* ------------------------------------------------------------------ *)
(* The sweep cache: one empirical sweep per eval point.                *)

module Sweep = Iolb_pebble.Sweep

let eval_line ?(rate = 0.25) ?(seed = 3) ?(extra = "") ~id ~kernel ~m ~n ~s
    () =
  Printf.sprintf
    {|{"id":%d,"op":"eval","kernel":"%s","m":%d,"n":%d,"s":%d,"empirical":{"rate":%g,"seed":%d}%s}|}
    id kernel m n s rate seed extra

(* The response an [eval_line] must get, rendered in-process from a fresh
   sampled sweep: what the daemon sends when it runs the sweep itself. *)
let expected_eval ?(rate = 0.25) ?(seed = 3) ~id ~kernel ~m ~n ~s () =
  let entry = Iolb.Report.find kernel in
  let params = Result.get_ok (Iolb.Report.concrete_params entry ~m ~n) in
  let sampled = Sweep.run_sampled ~rate ~seed ~params entry.program in
  let estimate (e : Sweep.estimate) =
    Json.Obj
      [ ("est", Json.Float e.est); ("lo", Json.Float e.lo); ("hi", Json.Float e.hi) ]
  in
  let loads, read_hits, stores = Sweep.sampled_stats sampled ~size:s in
  let empirical =
    Json.Obj
      [
        ("rate", Json.Float rate);
        ("seed", Json.Int seed);
        ("exact", Json.Bool (Sweep.sampled_exact sampled));
        ("total_accesses", Json.Int (Sweep.sampled_total_accesses sampled));
        ("kept_accesses", Json.Int (Sweep.sampled_kept_accesses sampled));
        ("degenerate", Json.Bool (Sweep.sampled_degenerate sampled));
        ("loads", estimate loads);
        ("read_hits", estimate read_hits);
        ("stores", estimate stores);
      ]
  in
  let key =
    Protocol.spec_key
      (Protocol.Eval
         {
           kernel;
           m;
           n;
           s;
           empirical = Some { rate; seed };
           budget = Protocol.no_budget;
         })
      ~display:entry.display
  in
  Protocol.ok_response ~id:(Json.Int id) ~op:"eval"
    (Protocol.eval_result ~empirical
       ~spec:(Protocol.spec_hash (Option.get key))
       (Iolb.Report.analyze_cached entry) ~m ~n ~s)

(* [counters c section] reads the [stats] op's entry, hit and miss
   counts of one cache section. *)
let counters c section =
  match Json.member section (rpc c ~op:"stats" []).Protocol.body with
  | Some o ->
      List.map
        (fun k ->
          match Json.member k o with
          | Some (Json.Int v) -> v
          | _ -> Alcotest.failf "stats: missing %s.%s" section k)
        [ "entries"; "hits"; "misses" ]
  | None -> Alcotest.failf "stats: missing %s section" section

let check_counters c section what expected =
  Alcotest.(check (list int))
    (Printf.sprintf "%s: %s entries, hits, misses" what section)
    expected (counters c section)

(* An eval at a new S reuses the sweep of its point: the sweep cache
   misses once, then hits, and both answers are the bytes of a fresh
   sweep.  The response cache counts as it always has: one miss per new
   S, one hit per repeat, and a hit never reaches the sweep cache.
   GEHD2 ignores [m], so two [m] values at one [n] share a sweep; another
   seed or rate is another sweep. *)
let test_sweep_cache () =
  with_server (fun _ address ->
      with_client address (fun c ->
          check_counters c "sweeps" "fresh" [ 0; 0; 0 ];
          let ask ?rate ?seed ~id ~kernel ~m ~n ~s () =
            let got =
              raw_line c (eval_line ?rate ?seed ~id ~kernel ~m ~n ~s ())
            in
            Alcotest.(check string)
              (Printf.sprintf "%s %dx%d at S=%d = a fresh sweep" kernel m n s)
              (expected_eval ?rate ?seed ~id ~kernel ~m ~n ~s ())
              got;
            got
          in
          let first = ask ~id:1 ~kernel:"mgs" ~m:32 ~n:16 ~s:64 () in
          check_counters c "sweeps" "first S" [ 1; 0; 1 ];
          check_counters c "cache" "first S" [ 1; 0; 1 ];
          ignore (ask ~id:2 ~kernel:"mgs" ~m:32 ~n:16 ~s:128 ());
          check_counters c "sweeps" "second S" [ 1; 1; 1 ];
          check_counters c "cache" "second S" [ 2; 0; 2 ];
          Alcotest.(check string) "a repeat is the cached response" first
            (raw_line c (eval_line ~id:1 ~kernel:"mgs" ~m:32 ~n:16 ~s:64 ()));
          check_counters c "sweeps" "repeat" [ 1; 1; 1 ];
          check_counters c "cache" "repeat" [ 2; 1; 2 ];
          ignore (ask ~id:3 ~kernel:"gehd2" ~m:10 ~n:12 ~s:32 ());
          ignore (ask ~id:4 ~kernel:"gehd2" ~m:20 ~n:12 ~s:48 ());
          check_counters c "sweeps" "gehd2 at two m" [ 2; 2; 2 ];
          check_counters c "cache" "gehd2 at two m" [ 4; 1; 4 ];
          ignore (ask ~seed:4 ~id:5 ~kernel:"mgs" ~m:32 ~n:16 ~s:256 ());
          ignore (ask ~rate:0.5 ~id:6 ~kernel:"mgs" ~m:32 ~n:16 ~s:256 ());
          check_counters c "sweeps" "another seed, another rate" [ 4; 2; 4 ]))

(* A fault-injected eval runs the real sweep: it neither reads the sweep
   cache (no hit, even when the sweep is kept) nor fills it.  A fault
   hook on a stage the eval never reaches leaves the answer complete. *)
let test_sweep_cache_fault () =
  with_server (fun _ address ->
      with_client address (fun c ->
          let fault = {|,"fault":{"stage":"pebble_game","k":1}|} in
          let ask ?extra ~id ~s () =
            let got =
              raw_line c (eval_line ~id ~kernel:"mgs" ~m:32 ~n:16 ~s ?extra ())
            in
            Alcotest.(check string)
              (Printf.sprintf "S=%d = a fresh sweep" s)
              (expected_eval ~id ~kernel:"mgs" ~m:32 ~n:16 ~s ())
              got
          in
          ask ~extra:fault ~id:1 ~s:64 ();
          check_counters c "sweeps" "fault, nothing kept" [ 0; 0; 0 ];
          ask ~id:2 ~s:64 ();
          check_counters c "sweeps" "no fault" [ 1; 0; 1 ];
          ask ~extra:fault ~id:3 ~s:128 ();
          check_counters c "sweeps" "fault, sweep kept" [ 1; 0; 1 ];
          ask ~id:4 ~s:256 ();
          check_counters c "sweeps" "no fault again" [ 1; 1; 1 ]))

(* [--cache-cap 0] turns the sweep cache off with the response cache:
   every eval runs its sweep, and nothing is kept. *)
let test_sweep_cache_off () =
  with_server ~cache:0 (fun _ address ->
      with_client address (fun c ->
          List.iter
            (fun (id, s) ->
              Alcotest.(check string)
                (Printf.sprintf "S=%d = a fresh sweep" s)
                (expected_eval ~id ~kernel:"mgs" ~m:32 ~n:16 ~s ())
                (raw_line c (eval_line ~id ~kernel:"mgs" ~m:32 ~n:16 ~s ())))
            [ (1, 64); (2, 128) ];
          check_counters c "sweeps" "off" [ 0; 0; 2 ];
          check_counters c "cache" "off" [ 0; 0; 2 ]))

let suite =
  [
    Alcotest.test_case "protocol: request parsing" `Quick test_parse_request;
    Alcotest.test_case "protocol: stage wire names" `Quick
      test_stage_wire_roundtrip;
    Alcotest.test_case "protocol: error codes match the CLI" `Quick
      test_error_codes_match_cli;
    Alcotest.test_case "protocol: response envelopes" `Quick
      test_response_envelopes;
    Alcotest.test_case "lru: recency, eviction, stats" `Quick test_lru;
    Alcotest.test_case "server: end to end" `Quick test_server_end_to_end;
    Alcotest.test_case "server: unusable address" `Quick test_unusable_address;
    Alcotest.test_case "server: eval domain check" `Quick
      test_eval_domain_check;
    Alcotest.test_case "server: crash op gated by default" `Quick
      test_crash_gated_by_default;
    Alcotest.test_case "server: byte-identical across widths" `Quick
      test_byte_identical_across_widths;
    Alcotest.test_case "server: overload sheds typed" `Quick
      test_overload_sheds;
    Alcotest.test_case "server: fault-injected soak" `Slow test_soak;
    Alcotest.test_case "server: over-cap request line" `Quick
      test_over_cap_line;
    Alcotest.test_case "server: 3 MiB past the cap, then EOF" `Quick
      test_over_cap_stream;
    Alcotest.test_case "server: baseline kernel names" `Quick
      test_baseline_names;
    Alcotest.test_case "server: unbudgeted degraded answers cached" `Quick
      test_unbudgeted_degraded_cached;
    test_encode_roundtrip;
    Alcotest.test_case "server: connection cap" `Quick test_connection_cap;
    Alcotest.test_case "server: bad addresses are invalid input" `Quick
      test_bad_addresses;
    Alcotest.test_case "server: finished readers are joined" `Quick
      test_finished_readers_joined;
    Alcotest.test_case "lru: weighted eviction" `Quick test_lru_weighted;
    Alcotest.test_case "server: evals share their point's sweep" `Quick
      test_sweep_cache;
    Alcotest.test_case "server: fault evals bypass the sweeps" `Quick
      test_sweep_cache_fault;
    Alcotest.test_case "server: cache-cap 0 keeps no sweep" `Quick
      test_sweep_cache_off;
  ]
