(* validate: measuring I/O to check the derived bounds against it - the
   pebble game over CDAGs of the five paper kernels, and [simulate --sizes]
   cache sweeps of the tiled orderings of Appendix A.  cdag and pebble do
   the work; the analyses are made in set-up. *)

module Report = Iolb.Report
module Cdag = Iolb_cdag.Cdag
module Game = Iolb_pebble.Game
module Game_ref = Iolb_pebble.Game_ref
module Trace = Iolb_pebble.Trace
module Sweep = Iolb_pebble.Sweep
module Cache = Iolb_pebble.Cache
module K = Iolb_kernels

let game_sizes = [ 16; 32; 64; 128 ]
let sim_sizes = [ 32; 64; 128; 256; 512; 1024 ]

(* Pebble-game instances: kernel, m, n (GEHD2 is square: m is unused). *)
let kernels = [ ("mgs", 32, 16); ("qr_hh_a2v", 32, 16); ("qr_hh_v2q", 32, 16); ("gebd2", 24, 16); ("gehd2", 0, 24) ]

(* The tiled orderings of Appendix A, at 64 x 32 with b = 4. *)
let tiled =
  [ ("tiled_mgs", "mgs", K.Mgs.tiled_spec ~m:64 ~n:32 ~b:4);
    ("tiled_a2v", "qr_hh_a2v", K.Householder.tiled_spec ~m:64 ~n:32 ~b:4) ]

let tiled_m = 64
let tiled_n = 32

(* The random schedule is the one [iolb simulate KERNEL --seed 0] plays. *)
let random_seed = 0

let golden_path root = Filename.concat root "bench/e2e/golden/validate.txt"

let cdag_of (name, m, n) =
  let entry = Report.find name in
  let params = Result.get_ok (Report.concrete_params entry ~m ~n) in
  (entry, Cdag.of_program ~params entry.program)

(* The reference table: node counts, and loads from the reference pebble
   engine and the per-size cache simulators.  Written once; every run
   compares against it. *)
let write_golden root =
  let b = Buffer.create 4096 in
  List.iter
    (fun ((name, _, _) as k) ->
      let _, cdag = cdag_of k in
      Printf.bprintf b "cdag %s nodes %d\n" name (Cdag.n_nodes cdag);
      List.iter
        (fun (label, schedule) ->
          List.iter
            (fun s ->
              Printf.bprintf b "game %s %s %d %d\n" name label s
                (Game_ref.run cdag ~s ~schedule).loads)
            game_sizes)
        [ ("program", Game_ref.program_schedule cdag);
          ("random", Game_ref.random_topological ~seed:random_seed cdag) ])
    kernels;
  List.iter
    (fun (name, _, spec) ->
      let trace = Trace.of_program ~params:[] spec in
      List.iter
        (fun size ->
          Printf.bprintf b "lru %s %d %d\n" name size (Cache.lru ~size trace).loads;
          Printf.bprintf b "opt %s %d %d\n" name size (Cache.opt ~size trace).loads)
        sim_sizes)
    tiled;
  Util.write_file (golden_path root) (Buffer.contents b)

let load_golden root =
  let table = Hashtbl.create 128 in
  String.split_on_char '\n' (Util.read_file (golden_path root))
  |> List.iter (fun line ->
         match List.rev (String.split_on_char ' ' line) with
         | v :: (_ :: _ as rest) ->
             Hashtbl.replace table (String.concat " " (List.rev rest)) (int_of_string v)
         | _ -> ());
  fun key ->
    match Hashtbl.find_opt table key with
    | Some v -> v
    | None -> failwith ("validate golden has no entry " ^ key)

type game = {
  name : string;
  analysis : Report.analysis;
  m : int;
  n : int;
  cdag : Cdag.t;
  schedules : (string * int array) list;
  runners : (string * Game.runner) list;
  last_plan : (string, Game.plan) Hashtbl.t;
}

type op =
  | Build of game
  | Plan of game * string
  | Play of game * string
  | Simulate of string * Report.analysis * Iolb_ir.Program.t

let kind = function
  | Build g -> "cdag:" ^ g.name
  | Plan (g, l) -> "plan_" ^ l ^ ":" ^ g.name
  | Play (g, l) -> "game_" ^ l ^ ":" ^ g.name
  | Simulate (name, _, _) -> "simulate:" ^ name

(* Every derived bound must stay at or below the measured loads. *)
let check_bounds what analysis ~m ~n ~s loads =
  List.iter
    (fun technique ->
      match Report.eval_best analysis ~technique ~m ~n ~s with
      | Some bound when bound > float_of_int loads ->
          Workload.fail "validate %s S=%d: bound %.1f above measured %d" what s bound loads
      | _ -> ())
    [ `Classical; `Hourglass ]

let setup (cfg : Workload.config) =
  let golden = load_golden cfg.root in
  let analyses = Hashtbl.create 8 in
  let analysis name =
    match Hashtbl.find_opt analyses name with
    | Some a -> a
    | None ->
        let a = Report.analyze (Report.find name) in
        Hashtbl.replace analyses name a;
        a
  in
  let games =
    List.map
      (fun ((name, m, n) as k) ->
        let _, cdag = cdag_of k in
        let schedules =
          [ ("program", Game.program_schedule cdag);
            ("random", Game.random_topological ~seed:random_seed cdag) ]
        in
        {
          name;
          analysis = analysis name;
          m;
          n;
          cdag;
          schedules;
          runners =
            List.map (fun (l, schedule) -> (l, Game.runner (Game.plan cdag ~schedule))) schedules;
          last_plan = Hashtbl.create 2;
        })
      kernels
  in
  let ops =
    List.concat_map
      (fun g -> [ Build g; Plan (g, "program"); Plan (g, "random"); Play (g, "program"); Play (g, "random") ])
      games
    @ List.map (fun (name, kernel, spec) -> Simulate (name, analysis kernel, spec)) tiled
    |> Array.of_list
  in
  let run ~traced:_ op =
    let ok = ref true in
    let expect good fmt =
      Printf.ksprintf
        (fun msg ->
          if not good then begin
            ok := false;
            Workload.fail "validate %s" msg
          end)
        fmt
    in
    let ms =
      match op with
      | Build g ->
          let cdag, ms =
            Util.timed (fun () ->
                Spans.span ~layer:"cdag" "build" (fun () ->
                    snd (cdag_of (g.name, g.m, g.n))))
          in
          Spans.count "cdag.build.nodes" (float_of_int (Cdag.n_nodes cdag));
          let want = golden (Printf.sprintf "cdag %s nodes" g.name) in
          expect (Cdag.n_nodes cdag = want) "%s: %d CDAG nodes, golden %d" g.name
            (Cdag.n_nodes cdag) want;
          ms
      | Plan (g, label) ->
          let schedule = List.assoc label g.schedules in
          let plan, ms =
            Util.timed (fun () ->
                Spans.span ~layer:"pebble" "plan" (fun () -> Game.plan g.cdag ~schedule))
          in
          Hashtbl.replace g.last_plan label plan;
          ms
      | Play (g, label) ->
          let runner = List.assoc label g.runners in
          let loads, ms =
            Util.timed (fun () ->
                List.map
                  (fun s ->
                    Spans.span ~layer:"pebble" "game" (fun () ->
                        (Game.run_runner runner ~s).loads))
                  game_sizes)
          in
          Spans.count "pebble.game.events"
            (float_of_int (Cdag.n_computes g.cdag * List.length game_sizes));
          List.iter2
            (fun s loads ->
              let want = golden (Printf.sprintf "game %s %s %d" g.name label s) in
              expect (loads = want) "%s %s S=%d: %d loads, golden %d" g.name label s
                loads want;
              check_bounds g.name g.analysis ~m:g.m ~n:g.n ~s loads)
            game_sizes loads;
          ms
      | Simulate (name, analysis, spec) ->
          let (trace, lru, opt), ms =
            Util.timed (fun () ->
                let trace =
                  Spans.span ~layer:"pebble" "trace" (fun () ->
                      Trace.of_program ~params:[] spec)
                in
                let sweep = Spans.span ~layer:"pebble" "sweep" (fun () -> Sweep.run trace) in
                let opt =
                  Spans.span ~layer:"pebble" "opt" (fun () ->
                      let plan = Cache.opt_plan trace in
                      List.map (fun size -> (Cache.opt_run ~size plan).loads) sim_sizes)
                in
                let lru = List.map (fun size -> (Sweep.stats sweep ~size).loads) sim_sizes in
                (trace, lru, opt))
          in
          let accesses = float_of_int (Trace.length trace) in
          Spans.count "pebble.trace.accesses" accesses;
          Spans.count "pebble.sweep.accesses" accesses;
          List.iteri
            (fun k size ->
              let lru = List.nth lru k and opt = List.nth opt k in
              let want_lru = golden (Printf.sprintf "lru %s %d" name size)
              and want_opt = golden (Printf.sprintf "opt %s %d" name size) in
              expect (lru = want_lru) "%s S=%d: LRU %d loads, golden %d" name size lru want_lru;
              expect (opt = want_opt) "%s S=%d: OPT %d loads, golden %d" name size opt want_opt;
              check_bounds name analysis ~m:tiled_m ~n:tiled_n ~s:size opt)
            sim_sizes;
          ms
    in
    { Workload.kind = kind op; ms; ok = !ok }
  in
  Array.iter (fun op -> ignore (run ~traced:false op)) ops;
  (* A plan has no observable of its own: play the last one each plan op
     built and compare with the reference loads. *)
  let check _ =
    List.iter
      (fun g ->
        Hashtbl.iter
          (fun label plan ->
            let loads = (Game.run_plan plan ~s:32).loads in
            let want = golden (Printf.sprintf "game %s %s 32" g.name label) in
            Workload.expect (loads = want) "validate %s %s plan: %d loads at S=32, golden %d"
              g.name label loads want)
          g.last_plan)
      games
  in
  (* The pebble games, the check of a bound against a measured cost, weigh
     double.  With 37 ops a round the reported percentiles land inside a
     dense band: p50 among the 32x16 games, p90 among the GEHD2 games, p99
     on the tiled MGS simulation. *)
  let round =
    Array.to_list ops
    |> List.concat_map (function Play _ as op -> [ op; op ] | op -> [ op ])
    |> Array.of_list
  in
  let op = Workload.sequence ~seed:cfg.seed round in
  {
    Workload.callers = 1;
    round = Array.length round;
    op = (fun ~traced ~caller:_ i -> run ~traced (op i));
    check;
    layers = (fun _ -> []);
    extras = (fun _ _ -> []);
    teardown = ignore;
  }

let workload = { Workload.name = "validate"; setup }
