(* End-to-end benchmark of iolb: four workloads of what users wait for,
   checked against references, with a traced run that splits the time
   into layers.

     e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       one workload in this process; prints a table, a detail JSON line
       (host fingerprint, per-op-kind medians) and, last, the result line
       {"correct", "attempted", "failed", "metrics"}
     e2e.exe [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       every workload, each in its own process, checking the printed
       metric names and units against BENCHMARK.json
     e2e.exe --agree A/ B/
       compares two directories of saved outputs metric by metric
     e2e.exe --write-goldens
       regenerates the validate and sweep_scale reference tables *)

module Json = Iolb_util.Json

let workloads = [ Wl_derive.workload; Wl_validate.workload; Wl_sweep.workload; Wl_serve.workload ]

(* Per-layer metrics, from the traced run.  Counts and busy (self) times
   are per op of the traced loop; layers a workload does not reach read 0. *)
type ctx = { s : Spans.summary; layers : (string * float) list; overhead : float }

let per_op c x = Util.ratio x (float_of_int c.s.ops)
let self name c = Option.value ~default:0. (Hashtbl.find_opt c.s.self_ms name)
let total key c = Option.value ~default:0. (Hashtbl.find_opt c.s.totals key)
let calls name c = per_op c (float_of_int (Option.value ~default:0 (Hashtbl.find_opt c.s.calls name)))
let busy name c = per_op c (self name c)
let each key c = per_op c (total key c)
let rate key name c = Util.ratio (total key c) (self name c /. 1000.)
let layer key c = Option.value ~default:0. (List.assoc_opt key c.layers)

let per_layer =
  [
    ("front.parse.calls", "count/op", calls "front.parse");
    ("front.parse.busy_ms", "ms/op", busy "front.parse");
    ("front.parse.bytes_per_s", "B/s", rate "front.parse.bytes" "front.parse");
    ("front.resolve.busy_ms", "ms/op", busy "front.resolve");
    ("core.detect.calls", "count/op", calls "core.detect");
    ("core.detect.busy_ms", "ms/op", busy "core.detect");
    ("core.detect.candidates", "count/op", each "core.detect.candidates");
    ("core.verify.calls", "count/op", calls "core.verify");
    ("core.verify.busy_ms", "ms/op", busy "core.verify");
    ("core.verify.kept_ratio", "ratio", fun c -> Util.ratio (total "core.verify.kept" c) (calls "core.verify" c *. float_of_int c.s.ops));
    ("core.verify.cdag_steps", "count/op", each "core.verify.cdag_steps");
    ("core.hourglass.calls", "count/op", calls "core.hourglass");
    ("core.hourglass.busy_ms", "ms/op", busy "core.hourglass");
    ("core.hourglass.derivation_steps", "count/op", each "core.hourglass.derivation_steps");
    ("core.classical.calls", "count/op", calls "core.classical");
    ("core.classical.busy_ms", "ms/op", busy "core.classical");
    ("core.classical.derivation_steps", "count/op", each "core.classical.derivation_steps");
    ("core.render.busy_ms", "ms/op", busy "core.render");
    ("core.render.bytes", "B/op", each "core.render.bytes");
    ("cdag.build.calls", "count/op", calls "cdag.build");
    ("cdag.build.busy_ms", "ms/op", busy "cdag.build");
    ("cdag.build.nodes", "count/op", each "cdag.build.nodes");
    ("pebble.plan.busy_ms", "ms/op", busy "pebble.plan");
    ("pebble.game.busy_ms", "ms/op", busy "pebble.game");
    ("pebble.game.events", "count/op", each "pebble.game.events");
    ("pebble.game.events_per_s", "1/s", rate "pebble.game.events" "pebble.game");
    ("pebble.trace.busy_ms", "ms/op", busy "pebble.trace");
    ("pebble.trace.accesses", "count/op", each "pebble.trace.accesses");
    ("pebble.trace.accesses_per_s", "1/s", rate "pebble.trace.accesses" "pebble.trace");
    ("pebble.sweep.busy_ms", "ms/op", busy "pebble.sweep");
    ("pebble.sweep.accesses_per_s", "1/s", rate "pebble.sweep.accesses" "pebble.sweep");
    ("pebble.opt.busy_ms", "ms/op", busy "pebble.opt");
    ("pebble.sweep_program.busy_ms", "ms/op", busy "pebble.sweep_program");
    ("pebble.sweep_program.accesses_per_s", "1/s", rate "pebble.sweep_program.accesses" "pebble.sweep_program");
    ("pebble.sweep_program.footprint", "cells/op", each "pebble.sweep_program.footprint");
    ("serve.rtt.analyze.p50_ms", "ms", layer "serve.rtt.analyze.p50_ms");
    ("serve.rtt.source.p50_ms", "ms", layer "serve.rtt.source.p50_ms");
    ("serve.rtt.eval.p50_ms", "ms", layer "serve.rtt.eval.p50_ms");
    ("serve.lru.hit_ratio", "ratio", layer "serve.lru.hit_ratio");
    ("serve.lru.evictions", "count/op", layer "serve.lru.evictions");
    ("serve.memo.hit_ratio", "ratio", layer "serve.memo.hit_ratio");
    ("serve.shed", "count", layer "serve.shed");
    ("serve.respawns", "count", layer "serve.respawns");
    ("serve.errors", "count", layer "serve.errors");
    ("trace.unattributed_ms", "ms/op", fun c -> per_op c c.s.unattributed_ms);
    ("trace.unattributed_frac", "ratio", fun c -> Util.ratio c.s.unattributed_ms c.s.op_ms);
    ("trace.overhead_frac", "ratio", fun c -> c.overhead);
  ]

let metric_json metrics =
  Json.Obj
    (List.map
       (fun (name, unit, v) -> (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
       metrics)

let latencies samples = Array.map (fun (s : Workload.sample) -> s.ms) samples
let throughput samples span = Util.ratio (float_of_int (Array.length samples)) span
let pct q samples _ = Util.percentile (latencies samples) q

(* Count and latency deciles per op kind, for the detail line. *)
let kinds samples =
  let by = Hashtbl.create 32 in
  Array.iter
    (fun (s : Workload.sample) ->
      Hashtbl.replace by s.kind (s.ms :: Option.value ~default:[] (Hashtbl.find_opt by s.kind)))
    samples;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by []
  |> List.sort compare
  |> List.map (fun (k, v) ->
         let a = Array.of_list v in
         (k,
           Json.Obj
             [
               ("n", Json.Int (Array.length a));
               ("p10_ms", Json.Float (Util.percentile a 0.1));
               ("p50_ms", Json.Float (Util.median a));
               ("p90_ms", Json.Float (Util.percentile a 0.9));
             ] ))

type opts = {
  cfg : Workload.config;
  seconds : float;
  trace : bool;
  trace_out : string option;
}

let setups = 5

let run_workload (w : Workload.t) o =
  (* A hung run is killed (SIGALRM) instead of blocking its caller. *)
  ignore (Unix.alarm (120 + (3 * int_of_float o.seconds)));
  let setup () = Util.timed (fun () -> w.setup o.cfg) in
  let inst, ms = setup () in
  let setup_times = ref [ ms /. 1000. ] in
  (* The other set-ups run between slices of the measured loop, on
     instances of their own: the host's speed changes within a second or
     so, and back-to-back set-ups would all land in one phase. *)
  let probe () =
    let tracing = !Spans.enabled in
    Spans.enabled := false;
    let i, ms = setup () in
    i.teardown ();
    Spans.enabled := tracing;
    setup_times := (ms /. 1000.) :: !setup_times
  in
  let measure ~traced ~first ~share ~slices =
    let stop =
      if o.cfg.smoke then Workload.Ops (min inst.round 8)
      else Workload.Seconds (o.seconds *. share /. float_of_int slices)
    in
    let rec go k (acc : Workload.run) =
      if k = slices then acc
      else begin
        let r = Workload.run_loop inst ~traced ~first:acc.next stop in
        if not o.cfg.smoke then probe ();
        go (k + 1) (Workload.append acc r)
      end
    in
    go 0 { samples = [||]; rounds = []; wall = 0.; next = first }
  in
  let slices = if o.cfg.smoke then 1 else (setups - 1) / if o.trace then 2 else 1 in
  let untraced =
    measure ~traced:false ~first:0 ~share:(if o.trace then 0.5 else 1.) ~slices
  in
  let traced =
    if not o.trace then None
    else begin
      Spans.reset ();
      Spans.enabled := true;
      let r = measure ~traced:true ~first:untraced.next ~share:0.5 ~slices in
      Spans.enabled := false;
      Option.iter Spans.write_chrome o.trace_out;
      Some r
    end
  in
  let setup_times = Array.of_list (List.rev !setup_times) in
  let samples = untraced.samples in
  let all = match traced with Some t -> Array.append samples t.samples | None -> samples in
  let layer_metrics =
    match traced with
    | None -> []
    | Some t ->
        let overhead =
          1. -. Util.ratio (Workload.grouped t throughput) (Workload.grouped untraced throughput)
        in
        let c = { s = Spans.summary (); layers = inst.layers t.samples; overhead } in
        List.map (fun (name, unit, f) -> (name, unit, f c)) per_layer
  in
  inst.check all;
  inst.teardown ();
  let e2e =
    [
      ("setup_s", "s", Util.median setup_times);
      ("p50_ms", "ms", Workload.grouped untraced (pct 0.5));
      ("p90_ms", "ms", Workload.grouped untraced (pct 0.9));
      ("p99_ms", "ms", Workload.grouped untraced (pct 0.99));
      ("ops_per_s", "1/s", Workload.grouped untraced throughput);
      ("peak_rss_mb", "MB", Util.peak_rss_mb ());
    ]
  in
  let errors = List.rev !Workload.errors in
  let failed = List.length errors in
  let attempted = Array.length all in
  let extras =
    ("failed_frac", Util.ratio (float_of_int failed) (float_of_int attempted))
    :: inst.extras samples untraced.wall
  in
  Printf.printf "== %s: seed %d, %d ops in %.2f s%s, %d failed\n" w.name o.cfg.seed (Array.length samples)
    untraced.wall
    (match traced with
    | Some t -> Printf.sprintf " + %d traced ops in %.2f s" (Array.length t.samples) t.wall
    | None -> "")
    failed;
  List.iter (fun (n, u, v) -> Printf.printf "  %-40s %14.6g %s\n" n v u) (e2e @ layer_metrics);
  List.iter (fun (n, v) -> Printf.printf "  %-40s %14.6g\n" n v) extras;
  List.iteri (fun k e -> if k < 10 then Printf.printf "  MISMATCH %s\n" e) errors;
  let detail =
    Json.Obj
      [
        ("workload", Json.String w.name);
        ("seed", Json.Int o.cfg.seed);
        ("seconds", Json.Float o.seconds);
        ("trace", Json.Bool o.trace);
        ("smoke", Json.Bool o.cfg.smoke);
        ("host", Util.host ());
        ("setup_s", Json.List (Array.to_list (Array.map (fun x -> Json.Float x) setup_times)));
        ("ops", Json.Int (Array.length samples));
        ("rounds", Json.Int (List.length untraced.rounds));
        ("wall_s", Json.Float untraced.wall);
        ("extras", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) extras));
        ("kinds", Json.Obj (kinds samples));
        ( "groups",
          Json.List
            (Array.to_list
               (Array.map
                  (fun (g, span) ->
                    Json.Obj
                      [
                        ("ops", Json.Int (Array.length g));
                        ("ops_per_s", Json.Float (throughput g span));
                        ("p50_ms", Json.Float (pct 0.5 g span));
                        ("p90_ms", Json.Float (pct 0.9 g span));
                        ("p99_ms", Json.Float (pct 0.99 g span));
                      ])
                  (Workload.groups untraced))) );
        ("errors", Json.List (List.map (fun e -> Json.String e) errors));
      ]
  in
  print_endline (Json.to_string detail);
  let correct = failed = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", metric_json (if o.trace then layer_metrics else e2e));
          ]));
  if correct then 0 else 1

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json.                                                      *)

type declared = { d_name : string; d_unit : string; bound : float option }

let benchmark root =
  let json =
    match Json.of_string (Util.read_file (Filename.concat root "BENCHMARK.json")) with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let list key =
    match Json.member key json with
    | Some (Json.List l) ->
        List.map
          (fun m ->
            let str k = match Json.member k m with Some (Json.String s) -> s | _ -> "" in
            let bound =
              match Json.member "bound" m with
              | Some (Json.Float f) -> Some f
              | Some (Json.Int i) -> Some (float_of_int i)
              | _ -> None
            in
            { d_name = str "name"; d_unit = str "unit"; bound })
          l
    | _ -> failwith ("BENCHMARK.json has no " ^ key)
  in
  (list "end_to_end", list "per_layer")

(* Pairs each detail line with the result line after it. *)
let results_of_output text =
  let lines = String.split_on_char '\n' text in
  let _, acc =
    List.fold_left
      (fun (pending, acc) line ->
        match Json.of_string line with
        | Error _ -> (pending, acc)
        | Ok j -> (
            match (Json.member "workload" j, Json.member "metrics" j) with
            | Some (Json.String w), _ -> (Some w, acc)
            | None, Some (Json.Obj metrics) -> (
                match pending with Some w -> (None, (w, j, metrics) :: acc) | None -> (None, acc))
            | _ -> (pending, acc)))
      (None, []) lines
  in
  List.rev acc

let metric_value m =
  match Json.member "value" m with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> nan

(* ------------------------------------------------------------------ *)
(* Every workload, one process each.                                    *)

let run_all o =
  let e2e, layers = benchmark o.cfg.root in
  let ok = ref true in
  let combined = ref [] and attempted = ref 0 and failed = ref 0 in
  let traces = if o.cfg.smoke then [ false; true ] else [ o.trace ] in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun trace ->
          (* The smoke run also checks the Chrome trace of each traced run. *)
          let trace_file =
            if o.cfg.smoke && trace then Some (Printf.sprintf "smoke-%s.trace.json" w.name) else None
          in
          let args =
            [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int o.cfg.seed;
              "--seconds"; Printf.sprintf "%g" o.seconds; "--trace"; (if trace then "1" else "0");
              "--root"; o.cfg.root ]
            @ (if o.cfg.smoke then [ "--smoke" ] else [])
            @ match trace_file with Some f -> [ "--trace-out"; f ] | None -> []
          in
          let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
          let out = In_channel.input_all ic in
          let status = Unix.close_process_in ic in
          let problems = ref [] in
          let complain fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
          if status <> Unix.WEXITED 0 then complain "exited abnormally";
          (match results_of_output out with
          | [ (_, result, metrics) ] ->
              let declared = if trace then layers else e2e in
              List.iter
                (fun d ->
                  match List.assoc_opt d.d_name metrics with
                  | None -> complain "metric %s not printed" d.d_name
                  | Some m ->
                      if Json.member "unit" m <> Some (Json.String d.d_unit) then
                        complain "metric %s not in %s" d.d_name d.d_unit;
                      combined := (w.name ^ "." ^ d.d_name, d.d_unit, metric_value m) :: !combined)
                declared;
              List.iter
                (fun (n, _) ->
                  if not (List.exists (fun d -> d.d_name = n) declared) then
                    complain "metric %s not in BENCHMARK.json" n)
                metrics;
              if Json.member "correct" result <> Some (Json.Bool true) then
                complain "references did not pass";
              let int k = match Json.member k result with Some (Json.Int i) -> i | _ -> 0 in
              attempted := !attempted + int "attempted";
              failed := !failed + int "failed"
          | _ -> complain "printed no result line");
          Option.iter
            (fun f ->
              (match Json.of_string (Util.read_file f) with
              | Ok j when (match Json.member "traceEvents" j with Some (Json.List (_ :: _)) -> true | _ -> false) -> ()
              | _ | (exception Sys_error _) -> complain "no spans in %s" f);
              if Sys.file_exists f then Sys.remove f)
            trace_file;
          let label = Printf.sprintf "%s (trace %d)" w.name (Bool.to_int trace) in
          if o.cfg.smoke && !problems = [] then Printf.printf "smoke %s: ok\n%!" label
          else print_string out;
          List.iter (fun m -> Printf.printf "ERROR %s: %s\n%!" label m) (List.rev !problems);
          if !problems <> [] then ok := false)
        traces)
    workloads;
  if not o.cfg.smoke then
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool !ok);
              ("attempted", Json.Int !attempted);
              ("failed", Json.Int !failed);
              ("metrics", metric_json (List.rev !combined));
            ]));
  if !ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* Agreement of two sets of runs.                                       *)

let agree root a b =
  let e2e, _ = benchmark root in
  let load dir =
    let files = Sys.readdir dir |> Array.to_list |> List.sort compare in
    List.concat_map (fun f -> results_of_output (Util.read_file (Filename.concat dir f))) files
  in
  let ra = load a and rb = load b in
  let values rs w name =
    List.filter_map
      (fun (w', _, metrics) ->
        if w' = w then Option.map metric_value (List.assoc_opt name metrics) else None)
      rs
    |> Array.of_list
  in
  let ok = ref true and rows = ref 0 in
  Printf.printf "%-12s %-12s %8s %30s %30s %8s %6s\n" "workload" "metric" "bound" "A median [q1, q3]"
    "B median [q1, q3]" "diff" "";
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun d ->
          let va = values ra w.name d.d_name and vb = values rb w.name d.d_name in
          if Array.length va > 0 && Array.length vb > 0 then begin
            incr rows;
            let qa1, ma, qa3 = Util.quartiles va and qb1, mb, qb3 = Util.quartiles vb in
            let bound = Option.value ~default:0. d.bound in
            let diff = Util.ratio (mb -. ma) ma in
            let pass = Float.abs diff <= bound in
            if not pass then ok := false;
            Printf.printf "%-12s %-12s %7.0f%% %12.5g [%7.4g, %7.4g] %12.5g [%7.4g, %7.4g] %+7.2f%% %6s\n"
              w.name d.d_name (bound *. 100.) ma qa1 qa3 mb qb1 qb3 (diff *. 100.)
              (if pass then "ok" else "FAIL")
          end)
        e2e)
    workloads;
  if !rows = 0 then begin
    print_endline "no runs to compare";
    1
  end
  else if !ok then 0
  else 1

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let trace_out = ref None and smoke = ref false and root = ref "." in
  let agree_dirs = ref [] and agree_mode = ref false and goldens = ref false in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload in this process");
      ("--seed", Arg.Set_int seed, "N seed of the op sequence (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured time per run (default 10)");
      ("--trace", Arg.Int (fun t -> trace := t <> 0), "0|1 report per-layer metrics from a traced run");
      ("--trace-out", Arg.String (fun p -> trace_out := Some p), "PATH write the spans as Chrome trace JSON");
      ("--smoke", Arg.Set smoke, " tiny instances and op counts (the test-suite run)");
      ("--root", Arg.Set_string root, "DIR repository root (default .)");
      ("--agree", Arg.Set agree_mode, " compare the saved runs of two directories A/ B/");
      ("--write-goldens", Arg.Set goldens, " regenerate the validate and sweep_scale references");
    ]
  in
  let usage = "e2e.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse specs (fun d -> agree_dirs := !agree_dirs @ [ d ]) usage;
  let o =
    {
      cfg = { root = !root; seed = !seed; smoke = !smoke };
      seconds = !seconds;
      trace = !trace;
      trace_out = !trace_out;
    }
  in
  let code =
    if !agree_dirs <> [] && not !agree_mode then begin
      prerr_endline usage;
      2
    end
    else if !goldens then begin
      Wl_validate.write_golden !root;
      Wl_sweep.write_golden !root;
      0
    end
    else if !agree_mode then
      match !agree_dirs with
      | [ a; b ] -> agree !root a b
      | _ ->
          prerr_endline "--agree takes two directories";
          2
    else
      match !workload with
      | None -> run_all o
      | Some name -> (
          match List.find_opt (fun (w : Workload.t) -> w.name = name) workloads with
          | Some w -> run_workload w o
          | None ->
              prerr_endline ("unknown workload " ^ name);
              2)
  in
  exit code
