(* serve: closed-loop clients of an in-process bound service.  Hits
   exercise serve, Protocol and the LRU; misses reach core and pebble, so a
   gain for one request kind that costs another shows here. *)

module Json = Iolb_util.Json
module Server = Iolb_serve.Server
module Client = Iolb_serve.Client
module Protocol = Iolb_serve.Protocol
module Report = Iolb.Report
module Derive = Iolb.Derive
module Hourglass = Iolb.Hourglass
module Sweep = Iolb_pebble.Sweep
module Front = Iolb_front.Front

let kernels = [ "mgs"; "qr_hh_a2v"; "qr_hh_v2q"; "gebd2"; "gehd2" ]

(* MGS sizes of the eval requests; each round asks one eval per size, at a
   cache size that recurs only every [s_values] rounds, long after the
   source misses in between have evicted it from the 128-entry LRU. *)
let eval_sizes = [ (64, 32); (96, 32); (96, 48); (128, 48); (128, 64); (160, 64) ]

let s_values = 100
let timed_s r j = 64 + (8 * ((r + (17 * j)) mod s_values))
let rate = 0.05
let sample_seed = 42

type item = Analyze of string | Source of Programs.t | Eval of int  (** index into [eval_sizes] *)

(* A round: 60 % analyze of the paper kernels (LRU hits once warm), 28 %
   source of the 14 programs (always misses: a unique trailing comment),
   12 % eval with a sampled-sweep rider (misses). *)
let round_items programs =
  List.concat_map (fun k -> List.init 6 (fun _ -> Analyze k)) kernels
  @ List.map (fun p -> Source p) (Array.to_list programs)
  @ List.mapi (fun j _ -> Eval j) eval_sizes
  |> Array.of_list

let op_name = function Analyze _ -> "analyze" | Source _ -> "source" | Eval _ -> "eval"

(* [src] is the text of a source request, [s] the cache size of an eval. *)
type request = { id : int; item : item; src : string; s : int }

(* Warm-up requests ([round < 0]) use eval cache sizes below the timed
   ones, so no timed eval can hit a warm-up entry. *)
let request ~seed ~round ~tag id item =
  {
    id;
    item;
    src =
      (match item with
      | Source p -> Printf.sprintf "%s# e2e %s %d-%d\n" p.text tag seed id
      | _ -> "");
    s = (match item with Eval j -> if round < 0 then 32 + j else timed_s round j | _ -> 0);
  }

let line r =
  let fields =
    match r.item with
    | Analyze k -> [ ("kernel", Json.String k) ]
    | Source _ -> [ ("src", Json.String r.src) ]
    | Eval j ->
        let m, n = List.nth eval_sizes j in
        [
          ("kernel", Json.String "mgs");
          ("m", Json.Int m);
          ("n", Json.Int n);
          ("s", Json.Int r.s);
          ("empirical", Json.Obj [ ("rate", Json.Float rate); ("seed", Json.Int sample_seed) ]);
        ]
  in
  Json.to_string
    (Json.Obj (("id", Json.Int r.id) :: ("op", Json.String (op_name r.item)) :: fields))

let as_int = function Some (Json.Int i) -> i | _ -> 0

(* The response the server must send, rendered in-process through
   [Protocol] from the same engine calls the server makes. *)
let expected r =
  let id = Json.Int r.id in
  match r.item with
  | Analyze kernel ->
      let entry = Report.find kernel in
      let key =
        Protocol.spec_key (Analyze { kernel; budget = Protocol.no_budget }) ~display:entry.display
      in
      Protocol.ok_response ~id ~op:"analyze"
        (Protocol.analysis_result ~spec:(Protocol.spec_hash (Option.get key))
           (Report.analyze_cached entry))
  | Source _ ->
      let src = r.src in
      let source = Result.get_ok (Front.parse_string ~file:"<source>" src) in
      let key = Protocol.spec_key (Source { src; budget = Protocol.no_budget }) ~display:"" in
      let hourglasses =
        List.length (Hourglass.detect_verified ~params:source.verify source.program)
      in
      let outcome =
        Result.get_ok (Derive.analyze_ladder ~verify_params:source.verify source.program)
      in
      Protocol.ok_response ~id ~op:"source"
        (Protocol.source_result ~spec:(Protocol.spec_hash (Option.get key))
           ~kernel:source.program.name ~hourglasses outcome)
  | Eval j ->
      let m, n = List.nth eval_sizes j and s = r.s in
      let entry = Report.find "mgs" in
      let key =
        Protocol.spec_key
          (Eval { kernel = "mgs"; m; n; s; empirical = Some { rate; seed = sample_seed }; budget = Protocol.no_budget })
          ~display:entry.display
      in
      let params = Result.get_ok (Report.concrete_params entry ~m ~n) in
      let sampled = Sweep.run_sampled ~rate ~seed:sample_seed ~params entry.program in
      let estimate (e : Sweep.estimate) =
        Json.Obj [ ("est", Json.Float e.est); ("lo", Json.Float e.lo); ("hi", Json.Float e.hi) ]
      in
      let loads, read_hits, stores = Sweep.sampled_stats sampled ~size:s in
      let empirical =
        Json.Obj
          [
            ("rate", Json.Float rate);
            ("seed", Json.Int sample_seed);
            ("exact", Json.Bool (Sweep.sampled_exact sampled));
            ("total_accesses", Json.Int (Sweep.sampled_total_accesses sampled));
            ("kept_accesses", Json.Int (Sweep.sampled_kept_accesses sampled));
            ("degenerate", Json.Bool (Sweep.sampled_degenerate sampled));
            ("loads", estimate loads);
            ("read_hits", estimate read_hits);
            ("stores", estimate stores);
          ]
      in
      Protocol.ok_response ~id ~op:"eval"
        (Protocol.eval_result ~empirical ~spec:(Protocol.spec_hash (Option.get key))
           (Report.analyze_cached entry) ~m ~n ~s)

type stats = {
  lru_hits : int;
  lru_misses : int;
  evictions : int;
  memo_hits : int;
  memo_misses : int;
  shed : int;
  errors : int;
  respawns : int;
}

let stats client =
  match Client.rpc client ~op:"stats" [] with
  | Ok { ok = true; body; _ } ->
      let get path =
        as_int (List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some body) path)
      in
      {
        lru_hits = get [ "cache"; "hits" ];
        lru_misses = get [ "cache"; "misses" ];
        evictions = get [ "cache"; "evictions" ];
        memo_hits = get [ "memo"; "hits" ];
        memo_misses = get [ "memo"; "misses" ];
        shed = get [ "requests"; "shed" ];
        errors = get [ "requests"; "errors" ];
        respawns = get [ "server"; "respawns" ];
      }
  | _ -> failwith "serve: stats request failed"

let sockets = Atomic.make 0

let setup (cfg : Workload.config) =
  let k = Atomic.fetch_and_add sockets 1 in
  let programs = Programs.load ~root:cfg.root in
  (* Relative, so the socket stays inside the working directory. *)
  let address = Server.Unix_sock (Printf.sprintf ".e2e-serve-%d-%d.sock" (Unix.getpid ()) k) in
  let server =
    Server.start { (Server.default_config ~address) with jobs = 2; cache_capacity = 128 }
  in
  let clients = Array.init 2 (fun _ -> Client.connect ~attempts:200 ~delay_s:0.01 address) in
  let send caller l =
    let c = clients.(caller) in
    Client.send_line c l;
    Client.recv_line c
  in
  let answered r = function
    | Some l ->
        String.starts_with l
          ~prefix:(Printf.sprintf {|{"id":%d,"ok":true,"op":"%s","result":|} r.id (op_name r.item))
    | None -> false
  in
  let items = round_items programs in
  (* Warm-up: every distinct request once, at cache sizes the timed evals
     never use. *)
  Array.iteri
    (fun i item ->
      let r = request ~seed:cfg.seed ~round:(-1) ~tag:(Printf.sprintf "warm%d" k) (-1 - i) item in
      if not (answered r (send 0 (line r))) then Workload.fail "serve warm-up %s failed" (op_name item))
    items;
  let before = stats clients.(0) in
  let kept = ref [] and kept_lock = Mutex.create () in
  let keep = Hashtbl.create 64 in
  let st = Util.rng ~seed:cfg.seed 2 in
  for r = 0 to 49 do
    Hashtbl.replace keep ((r * Array.length items) + Random.State.int st (Array.length items)) ()
  done;
  let item_of = Workload.sequence ~seed:cfg.seed items in
  let op ~traced:_ ~caller i =
    let r = request ~seed:cfg.seed ~round:(i / Array.length items) ~tag:"op" i (item_of i) in
    let name = op_name r.item and l = line r in
    let resp, ms =
      Util.timed (fun () -> Spans.span ~layer:"serve" ("rtt." ^ name) (fun () -> send caller l))
    in
    let ok = answered r resp in
    if not ok then Workload.fail "serve %s request %d: %s" name i (Option.value resp ~default:"no response");
    if ok && Hashtbl.mem keep i then
      Mutex.protect kept_lock (fun () -> kept := (r, Option.get resp) :: !kept);
    { Workload.kind = name; ms; ok }
  in
  let window () =
    let after = stats clients.(0) in
    (after, fun f -> float_of_int (f after - f before))
  in
  let check samples =
    let _, delta = window () in
    let analyzes =
      Array.fold_left (fun n (s : Workload.sample) -> if s.kind = "analyze" then n + 1 else n) 0 samples
    in
    Workload.expect
      (delta (fun s -> s.lru_hits) = float_of_int analyzes)
      "serve: %.0f LRU hits for %d timed analyze requests" (delta (fun s -> s.lru_hits)) analyzes;
    List.iter
      (fun (r, got) ->
        Workload.expect (got = expected r) "serve request %d (%s) differs from the in-process rendering"
          r.id (op_name r.item))
      !kept
  in
  let rtt kind samples =
    Util.median
      (Array.of_list
         (List.filter_map
            (fun (s : Workload.sample) -> if List.mem s.kind kind then Some s.ms else None)
            (Array.to_list samples)))
  in
  {
    Workload.callers = 2;
    round = Array.length items;
    op;
    check;
    layers =
      (fun samples ->
        let after, delta = window () in
        (* Every engine request makes one LRU lookup. *)
        let lookups = delta (fun s -> s.lru_hits + s.lru_misses) in
        [
          ("serve.rtt.analyze.p50_ms", rtt [ "analyze" ] samples);
          ("serve.rtt.source.p50_ms", rtt [ "source" ] samples);
          ("serve.rtt.eval.p50_ms", rtt [ "eval" ] samples);
          ("serve.lru.hit_ratio", Util.ratio (delta (fun s -> s.lru_hits)) lookups);
          ("serve.lru.evictions", Util.ratio (delta (fun s -> s.evictions)) lookups);
          ( "serve.memo.hit_ratio",
            Util.ratio (delta (fun s -> s.memo_hits))
              (delta (fun s -> s.memo_hits + s.memo_misses)) );
          ("serve.shed", delta (fun s -> s.shed));
          ("serve.respawns", float_of_int after.respawns);
          ("serve.errors", delta (fun s -> s.errors));
        ]);
    extras =
      (fun samples _ ->
        [ ("hit_p50_ms", rtt [ "analyze" ] samples); ("miss_p50_ms", rtt [ "source"; "eval" ] samples) ]);
    teardown =
      (fun () ->
        Array.iter Client.close clients;
        Server.stop server;
        Server.join server);
  }

let workload = { Workload.name = "serve"; setup }
