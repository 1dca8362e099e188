(* sweep_scale: exact, sharded and streamed LRU sweeps of the paper
   kernels at sizes where the trace is never materialized: the sweep layer
   of [validate], used the other way, with memory bounded by footprint. *)

module Report = Iolb.Report
module Sweep = Iolb_pebble.Sweep
module Cache = Iolb_pebble.Cache

let jobs = 2

(* kernel, m, n (GEHD2 is square: m is unused); 14-27 M accesses each. *)
let instances = [ ("mgs", 256, 128); ("qr_hh_a2v", 256, 128); ("qr_hh_v2q", 256, 128); ("gebd2", 192, 128); ("gehd2", 0, 160) ]

let smoke_instances = [ ("mgs", 24, 12); ("qr_hh_a2v", 24, 12); ("qr_hh_v2q", 24, 12); ("gebd2", 20, 12); ("gehd2", 0, 16) ]

let stat_sizes = [ 16; 64; 256; 1024; 4096; 16384 ]

let golden_path root = Filename.concat root "bench/e2e/golden/sweep_scale.txt"

let label (name, m, n) = Printf.sprintf "%s %d %d" name m n

let params (name, m, n) =
  let entry = Report.find name in
  (entry.program, Result.get_ok (Report.concrete_params entry ~m ~n))

(* What is compared: trace length, footprint, and digests of the
   reuse-distance histogram and of the stats at [stat_sizes]. *)
let digest sweep =
  let hist =
    Sweep.distance_histogram sweep |> Array.to_list |> List.map string_of_int
    |> String.concat ","
  in
  let stats =
    List.map
      (fun size ->
        let s = Sweep.stats sweep ~size in
        Printf.sprintf "%d:%d:%d:%d" size s.Cache.loads s.read_hits s.stores)
      stat_sizes
    |> String.concat ","
  in
  Printf.sprintf "accesses %d footprint %d hist %s stats %s" (Sweep.accesses sweep)
    (Sweep.footprint sweep)
    (Digest.to_hex (Digest.string hist))
    (Digest.to_hex (Digest.string stats))

(* The reference: the chunked streaming producer on one domain. *)
let write_golden root =
  List.map
    (fun inst ->
      let program, params = params inst in
      label inst ^ " " ^ digest (Sweep.run_program_stream ~jobs:1 ~params program) ^ "\n")
    (instances @ smoke_instances)
  |> String.concat "" |> Util.write_file (golden_path root)

let setup (cfg : Workload.config) =
  let golden = Hashtbl.create 16 in
  String.split_on_char '\n' (Util.read_file (golden_path cfg.root))
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | name :: m :: n :: rest -> Hashtbl.replace golden (String.concat " " [ name; m; n ]) (String.concat " " rest)
         | _ -> ());
  let insts =
    List.map
      (fun inst ->
        let program, params = params inst in
        (inst, program, params, Hashtbl.find golden (label inst)))
      (if cfg.smoke then smoke_instances else instances)
    |> Array.of_list
  in
  let accesses = Hashtbl.create 8 in
  (* The traced op runs without a counting budget: its shared atomic step
     counter, hit by both shard domains on every access, would cost more
     than the sweep itself. *)
  let run ((name, _, _) as inst, program, params, want) =
    let sweep, ms =
      Util.timed (fun () ->
          Spans.span ~layer:"pebble" "sweep_program" (fun () ->
              Sweep.run_program ~jobs ~params program))
    in
    Hashtbl.replace accesses name (Sweep.accesses sweep);
    Spans.count "pebble.sweep_program.accesses" (float_of_int (Sweep.accesses sweep));
    Spans.count "pebble.sweep_program.footprint" (float_of_int (Sweep.footprint sweep));
    let got = digest sweep in
    let ok = got = want in
    if not ok then Workload.fail "sweep_scale %s: %s, golden %s" (label inst) got want;
    { Workload.kind = name; ms; ok }
  in
  ignore (run insts.(0));
  let op = Workload.sequence ~seed:cfg.seed insts in
  {
    Workload.callers = 1;
    round = Array.length insts;
    op = (fun ~traced:_ ~caller:_ i -> run (op i));
    check = ignore;
    layers = (fun _ -> []);
    extras =
      (fun samples wall ->
        let n =
          Array.fold_left
            (fun acc (s : Workload.sample) -> acc + Hashtbl.find accesses s.kind)
            0 samples
        in
        [ ("accesses_per_s", Util.ratio (float_of_int n) wall) ]);
    teardown = ignore;
  }

let workload = { Workload.name = "sweep_scale"; setup }
