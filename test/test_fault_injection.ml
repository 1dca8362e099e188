(* Fault injection against the resilience boundary: a budget hook forces
   Budget.Exhausted at exactly the k-th checkpoint of each stage, for every
   paper kernel and two baselines.  The contract under attack:

   - no exception ever escapes an entry point behind Engine_error.guard;
   - the outcome is either a typed error or a degraded-but-SOUND analysis:
     every surviving bound must stay below the I/O measured by playing the
     pebble game on a valid schedule at small concrete sizes. *)

module D = Iolb.Derive
module Report = Iolb.Report
module Budget = Iolb_util.Budget
module EE = Iolb_util.Engine_error
module Cdag = Iolb_cdag.Cdag
module Game = Iolb_pebble.Game
module Cache = Iolb_pebble.Cache
module Trace = Iolb_pebble.Trace
module K = Iolb_kernels

let stages = Budget.[ Cdag_build; Pebble_game; Cache_sim; Derivation ]

(* Checkpoint indices to fire at: the first one, and one deep enough to land
   mid-loop in every stage that runs at all. *)
let ks = [ 1; 25 ]

let cache_sizes = [ 8; 32 ]

(* Measured pebble-game loads for an entry at its verification sizes, per
   cache size; memoized because every fault scenario re-checks against it.
   [None] when S is infeasible for the CDAG's fan-in. *)
let measured : (string * int, int option) Hashtbl.t = Hashtbl.create 32

let loads_at ~name ~params program s =
  match Hashtbl.find_opt measured (name, s) with
  | Some v -> v
  | None ->
      let v =
        let cdag = Cdag.of_program ~params program in
        match
          EE.guard (fun () ->
              let schedule = Game.program_schedule cdag in
              Game.run_plan (Game.plan cdag ~schedule) ~s)
        with
        | Ok r -> Some r.Game.loads
        | Error _ -> None
      in
      Hashtbl.add measured (name, s) v;
      v

(* Evaluation parameters differ from CDAG parameters for GEHD2: its derived
   formulas are finalized with the loop split M = N/2 - 1 substituted, so
   they are functions of N (and S) only. *)
let eval_params (entry : Report.entry) =
  match entry.kernel with
  | Iolb.Paper_formulas.Gehd2 ->
      List.filter (fun (name, _) -> name = "N") entry.verify_params
  | _ -> entry.verify_params

(* Any bound surviving a degraded analysis is still a lower bound on optimal
   I/O, hence dominated by the loads of EVERY valid schedule. *)
let check_sound ~ctx ~name ~cdag_params ~eval_params program bounds =
  List.iter
    (fun s ->
      match loads_at ~name ~params:cdag_params program s with
      | None -> ()
      | Some loads -> (
          match D.best ~params:eval_params ~s bounds with
          | None -> ()
          | Some b ->
              let v = D.eval b ~params:eval_params ~s in
              if v > float_of_int loads +. 1e-6 then
                Alcotest.failf
                  "%s: unsound degraded bound for %s at S=%d: %.2f > measured \
                   %d loads"
                  ctx name s v loads))
    cache_sizes

let describe stage k =
  Printf.sprintf "fault (%s, %d)" (Budget.stage_name stage) k

let test_ladder_faults_paper_kernels () =
  List.iter
    (fun (entry : Report.entry) ->
      List.iter
        (fun stage ->
          List.iter
            (fun k ->
              let budget = Budget.make ~fault:(stage, k) () in
              match EE.guard (fun () -> Report.analyze ~budget entry) with
              | Ok a ->
                  check_sound
                    ~ctx:(describe stage k)
                    ~name:entry.display ~cdag_params:entry.verify_params
                    ~eval_params:(eval_params entry) entry.program a.bounds
              | Error (EE.Budget_exhausted _) -> ()
              | Error e ->
                  Alcotest.failf "%s on %s: unexpected error %s"
                    (describe stage k) entry.display (EE.to_string e)
              | exception e ->
                  Alcotest.failf "%s on %s: escaped exception %s"
                    (describe stage k) entry.display (Printexc.to_string e))
            ks)
        stages)
    Report.registry

let test_ladder_faults_baselines () =
  let baselines =
    List.filter
      (fun (name, _, _) -> name = "gemm" || name = "cholesky")
      Report.baselines
  in
  Alcotest.(check int) "two baselines under test" 2 (List.length baselines);
  List.iter
    (fun (name, program, verify_params) ->
      List.iter
        (fun stage ->
          List.iter
            (fun k ->
              let budget = Budget.make ~fault:(stage, k) () in
              match D.analyze_ladder ~budget ~verify_params program with
              | Ok (o : D.outcome) ->
                  check_sound
                    ~ctx:(describe stage k)
                    ~name ~cdag_params:verify_params ~eval_params:verify_params
                    program o.bounds
              | Error (EE.Budget_exhausted _) -> ()
              | Error e ->
                  Alcotest.failf "%s on %s: unexpected error %s"
                    (describe stage k) name (EE.to_string e)
              | exception e ->
                  Alcotest.failf "%s on %s: escaped exception %s"
                    (describe stage k) name (Printexc.to_string e))
            ks)
        stages)
    baselines

(* The ladder must actually degrade - not just error out - under a step
   budget that kills both partitioning rungs: MGS is updated in place, so
   the read-modify-written A qualifies for the trivial input-footprint
   rung. *)
let test_degrades_to_trivial () =
  let entry = Report.find "mgs" in
  let budget = Budget.make ~max_steps:100 () in
  match EE.guard (fun () -> Report.analyze ~budget entry) with
  | Error e -> Alcotest.failf "expected degradation, got %s" (EE.to_string e)
  | Ok a ->
      Alcotest.(check bool) "degradation recorded" true (a.degradation <> None);
      Alcotest.(check bool) "trivial bound produced" true
        (List.exists (fun (b : D.t) -> b.technique = D.Trivial) a.bounds);
      check_sound ~ctx:"max-steps 100" ~name:entry.display
        ~cdag_params:entry.verify_params ~eval_params:(eval_params entry)
        entry.program a.bounds

(* One derivation pass: the report's pattern list is the one the ladder
   verified, so a step cap pays for hourglass detection once.  MGS's whole
   analysis then fits in 400 steps, and at no cap does the report show a
   pattern whose verification the ladder lost.  The smallest undegraded
   caps are pinned exactly, so any change to checkpoint accounting shows
   here. *)
let test_one_pass_under_step_cap () =
  let entry = Report.find "mgs" in
  let shown hgs = List.map (Format.asprintf "%a" Iolb.Hourglass.pp) hgs in
  let unlimited = Report.analyze entry in
  let analyze cap =
    match
      EE.guard (fun () ->
          Report.analyze ~budget:(Budget.make ~max_steps:cap ()) entry)
    with
    | Ok a -> a
    | Error e -> Alcotest.failf "max-steps %d: %s" cap (EE.to_string e)
  in
  List.iter
    (fun (name, cap) ->
      let entry = Report.find name in
      let analyze cap =
        Report.analyze ~budget:(Budget.make ~max_steps:cap ()) entry
      in
      Alcotest.(check (option string))
        (Printf.sprintf "%s max-steps %d: no degradation" name cap)
        None (analyze cap).degradation;
      Alcotest.(check bool)
        (Printf.sprintf "%s max-steps %d: degraded" name (cap - 1))
        true
        ((analyze (cap - 1)).degradation <> None))
    [ ("mgs", 201); ("gebd2", 282); ("gehd2", 1671) ];
  let a = analyze 400 in
  Alcotest.(check (option string)) "max-steps 400: no degradation" None
    a.degradation;
  Alcotest.(check (list string)) "max-steps 400: the verified pattern"
    (shown unlimited.hourglasses) (shown a.hourglasses);
  List.iter
    (fun tech ->
      Alcotest.(check bool) "max-steps 400: hourglass and classical bounds"
        true
        (List.exists (fun (b : D.t) -> b.technique = tech) a.bounds))
    [ D.Hourglass; D.Classical ];
  let lost_in_cdag =
    Printf.sprintf "hourglass rung aborted (budget exhausted during %s)"
      (Budget.stage_name Budget.Cdag_build)
  in
  for i = 1 to 28 do
    let cap = 25 * i in
    let a = analyze cap in
    let note = Option.value ~default:"" a.degradation in
    let ctx = Printf.sprintf "max-steps %d" cap in
    if Test_check.has_substring ~sub:lost_in_cdag note then
      Alcotest.(check (list string)) (ctx ^ ": no unverified pattern shown")
        [] (shown a.hourglasses)
    else if not (Test_check.has_substring ~sub:"hourglass rung" note) then
      Alcotest.(check (list string)) (ctx ^ ": every verified pattern shown")
        (shown unlimited.hourglasses) (shown a.hourglasses)
  done

(* A generous budget must not change the result at all: same bounds as the
   unlimited pipeline, and no degradation note. *)
let test_generous_budget_is_transparent () =
  List.iter
    (fun (entry : Report.entry) ->
      let unlimited = Report.analyze entry in
      let budget = Budget.make ~max_steps:100_000_000 ~timeout_ms:600_000 () in
      match EE.guard (fun () -> Report.analyze ~budget entry) with
      | Error e -> Alcotest.failf "generous budget failed: %s" (EE.to_string e)
      | Ok a ->
          Alcotest.(check (option string))
            (entry.display ^ ": no degradation")
            None a.degradation;
          Alcotest.(check int)
            (entry.display ^ ": same number of bounds")
            (List.length unlimited.bounds)
            (List.length a.bounds);
          List.iter2
            (fun (b : D.t) (b' : D.t) ->
              Alcotest.(check bool)
                (entry.display ^ ": identical formulas")
                true
                (Iolb_symbolic.Ratfun.equal b.formula b'.formula))
            unlimited.bounds a.bounds)
    Report.registry

(* Pebble-game and cache-simulation checkpoints are not reached by analyze;
   inject into their own entry points. *)
let test_game_and_cache_faults () =
  let entry = Report.find "mgs" in
  let cdag = Cdag.of_program ~params:entry.verify_params entry.program in
  let schedule = Game.program_schedule cdag in
  (match
     EE.guard (fun () ->
         Game.run_plan
           ~budget:(Budget.make ~fault:(Budget.Pebble_game, 3) ())
           (Game.plan cdag ~schedule) ~s:16)
   with
  | Error (EE.Budget_exhausted Budget.Pebble_game) -> ()
  | Ok _ -> Alcotest.fail "pebble fault: expected budget exhaustion, got Ok"
  | Error e ->
      Alcotest.failf "pebble fault: wrong error %s" (EE.to_string e));
  let trace = Trace.of_program ~params:[] (K.Mgs.tiled_spec ~m:6 ~n:4 ~b:2) in
  List.iter
    (fun sim ->
      match
        EE.guard (fun () ->
            sim ~budget:(Budget.make ~fault:(Budget.Cache_sim, 2) ()) ~size:8
              trace)
      with
      | Error (EE.Budget_exhausted Budget.Cache_sim) -> ()
      | Ok _ -> Alcotest.fail "cache fault: expected budget exhaustion, got Ok"
      | Error e ->
          Alcotest.failf "cache fault: wrong error %s" (EE.to_string e))
    [
      (fun ~budget ~size t -> Cache.lru ~budget ~size t);
      (fun ~budget ~size t -> Cache.opt ~budget ~size t);
    ];
  (* A budget kill mid-sweep degrades the same way: typed error, no escaped
     exception.  Fire both early (in the distance pass) and late (in the
     merge, past the trace length). *)
  List.iter
    (fun k ->
      match
        EE.guard (fun () ->
            Iolb_pebble.Sweep.run
              ~budget:(Budget.make ~fault:(Budget.Cache_sim, k) ())
              trace)
      with
      | Error (EE.Budget_exhausted Budget.Cache_sim) -> ()
      | Ok _ ->
          Alcotest.failf "sweep fault %d: expected budget exhaustion, got Ok" k
      | Error e ->
          Alcotest.failf "sweep fault %d: wrong error %s" k (EE.to_string e))
    [ 2; Trace.length trace + 1 ];
  (* Trace building charges the Cdag_build stage. *)
  match
    EE.guard (fun () ->
        Trace.of_program
          ~budget:(Budget.make ~fault:(Budget.Cdag_build, 2) ())
          ~params:[]
          (K.Mgs.tiled_spec ~m:6 ~n:4 ~b:2))
  with
  | Error (EE.Budget_exhausted Budget.Cdag_build) -> ()
  | Ok _ -> Alcotest.fail "trace fault: expected budget exhaustion, got Ok"
  | Error e -> Alcotest.failf "trace fault: wrong error %s" (EE.to_string e)

(* The node cap holds before a trace allocates its per-access arrays: it
   is checked against the plan's closed-form instance count, so a capped
   build of a large trace stops before its first checkpoint.  An access
   count past max_int is invalid input under any budget, raised by the
   checked count before any allocation or checkpoint. *)
let test_trace_node_cap_first () =
  let huge = [ ("M", max_int); ("N", 2) ] in
  let expect what budget params ~raised =
    (match Trace.of_program ~budget ~params Programs.mgs with
    | _ -> Alcotest.failf "%s: expected a refusal" what
    | exception e when raised e -> ()
    | exception e ->
        Alcotest.failf "%s: wrong exception %s" what (Printexc.to_string e));
    Alcotest.(check int) (what ^ ": no instance walked") 0
      (Budget.stage_steps budget Budget.Cdag_build)
  in
  let exhausted = function
    | Budget.Exhausted Budget.Cdag_build -> true
    | _ -> false
  and too_many = function
    | EE.Error (EE.Invalid_input _) -> true
    | _ -> false
  in
  expect "node cap" (Budget.make ~max_nodes:10 ())
    [ ("M", 200); ("N", 100) ]
    ~raised:exhausted;
  expect "count past max_int" (Budget.make ~max_steps:1000 ()) huge
    ~raised:too_many;
  expect "count past max_int, unlimited" Budget.unlimited huge
    ~raised:too_many

(* The sharded, streaming and sampled sweep paths poll the same budget:
   a fault fired mid-shard (inside a worker domain) must surface as the
   same typed error through [Engine_error.guard], never as an escaped
   exception, at any jobs width. *)
let test_sharded_sweep_faults () =
  let spec = K.Mgs.tiled_spec ~m:6 ~n:4 ~b:2 in
  let trace = Trace.of_program ~params:[] spec in
  let expect what f =
    match f () with
    | Error (EE.Budget_exhausted _) -> ()
    | Ok _ -> Alcotest.failf "%s: expected budget exhaustion, got Ok" what
    | Error e -> Alcotest.failf "%s: wrong error %s" what (EE.to_string e)
    | exception e ->
        Alcotest.failf "%s: escaped exception %s" what (Printexc.to_string e)
  in
  (* mid-shard: half the events land in the second worker's segment *)
  let ks = [ 2; (Trace.length trace / 2) + 3 ] in
  List.iter
    (fun jobs ->
      List.iter
        (fun k ->
          expect (Printf.sprintf "segmented jobs=%d k=%d" jobs k) (fun () ->
              EE.guard (fun () ->
                  Iolb_pebble.Sweep.run
                    ~budget:(Budget.make ~fault:(Budget.Cache_sim, k) ())
                    ~jobs trace));
          expect (Printf.sprintf "streamed jobs=%d k=%d" jobs k) (fun () ->
              EE.guard (fun () ->
                  Iolb_pebble.Sweep.run_program
                    ~budget:(Budget.make ~fault:(Budget.Cache_sim, k) ())
                    ~jobs ~params:[] spec)))
        ks;
      (* a deadline that has already passed must also kill the shards *)
      expect (Printf.sprintf "deadline jobs=%d" jobs) (fun () ->
          EE.guard (fun () ->
              Iolb_pebble.Sweep.run_program
                ~budget:(Budget.make ~timeout_ms:0 ())
                ~jobs ~params:[] spec)))
    [ 1; 2; 4 ];
  (* the sampled scan checkpoints Cache_sim too (per kept event and per
     64k-access tick) *)
  expect "sampled k=2" (fun () ->
      EE.guard (fun () ->
          Iolb_pebble.Sweep.run_sampled
            ~budget:(Budget.make ~fault:(Budget.Cache_sim, 2) ())
            ~rate:0.6 ~seed:0 ~params:[] spec));
  expect "sampled deadline" (fun () ->
      EE.guard (fun () ->
          Iolb_pebble.Sweep.run_sampled
            ~budget:(Budget.make ~timeout_ms:0 ())
            ~rate:0.6 ~seed:0 ~params:[] spec))

(* An already-passed wall-clock deadline is the one budget not even the
   trivial rung survives: the ladder must fail with the typed error (the
   CLI maps it to exit code 3). *)
let test_deadline_always_fails () =
  List.iter
    (fun (entry : Report.entry) ->
      let budget = Budget.make ~timeout_ms:0 () in
      match EE.guard (fun () -> Report.analyze ~budget entry) with
      | Error (EE.Budget_exhausted _) -> ()
      | Ok _ ->
          Alcotest.failf "%s: passed deadline not detected" entry.display
      | Error e ->
          Alcotest.failf "%s: wrong error %s" entry.display (EE.to_string e))
    Report.registry

(* The CDAG's node cap counts every node, inputs included: MGS 4x3 has
   69 nodes, 57 of them computes, so 68 stops the build and 69 lets it
   through.  A cap on instances alone would pass 57..68. *)
let test_cdag_node_cap_counts_inputs () =
  let params = [ ("M", 4); ("N", 3) ] in
  let build max_nodes =
    Cdag.of_program ~budget:(Budget.make ~max_nodes ()) ~params Programs.mgs
  in
  let cdag = build 69 in
  Alcotest.(check (pair int int)) "nodes, computes" (69, 57)
    (Cdag.n_nodes cdag, Cdag.n_computes cdag);
  List.iter
    (fun cap ->
      match build cap with
      | _ -> Alcotest.failf "max_nodes %d: built" cap
      | exception Budget.Exhausted Budget.Cdag_build -> ())
    [ 68; 57; 56 ]

(* A sweep's node cap holds for the whole trace, once, before the shards
   fan out: MGS 8x4 has 174 instances with an access, so a cap of 173
   stops every jobs width before its first checkpoint, and 174 lets
   every width sweep what the uncapped sweep does. *)
let test_sweep_node_cap_every_width () =
  let module Sweep = Iolb_pebble.Sweep in
  let params = [ ("M", 8); ("N", 4) ] in
  let free = Sweep.run_program ~jobs:1 ~params Programs.mgs in
  let same a b =
    Sweep.footprint a = Sweep.footprint b
    && Sweep.accesses a = Sweep.accesses b
    && Sweep.distance_histogram a = Sweep.distance_histogram b
    && List.for_all
         (fun size -> Sweep.stats a ~size = Sweep.stats b ~size)
         (List.init (Sweep.footprint b + 1) (fun i -> i + 1))
  in
  List.iter
    (fun jobs ->
      let what = Printf.sprintf "jobs=%d" jobs in
      let budget = Budget.make ~max_nodes:173 () in
      (match Sweep.run_program ~budget ~jobs ~params Programs.mgs with
      | _ -> Alcotest.failf "%s: a cap of 173 swept" what
      | exception Budget.Exhausted Budget.Cdag_build -> ());
      Alcotest.(check int) (what ^ ": no instance walked") 0
        (Budget.stage_steps budget Budget.Cdag_build);
      let capped =
        Sweep.run_program ~budget:(Budget.make ~max_nodes:174 ()) ~jobs
          ~params Programs.mgs
      in
      Alcotest.(check bool) (what ^ ": a cap of 174 = uncapped") true
        (same capped free))
    [ 1; 2; 4 ]

(* [without_node_cap] lifts the node cap and nothing else: steps, stage
   counts, step cap, deadline and fault hook are the original's.  Under
   it MGS derives undegraded although its verification CDAG is larger
   than the 69 nodes [simulate mgs -m 4 -n 3 --max-nodes 69] plays. *)
let test_without_node_cap_shares () =
  let budget = Budget.make ~max_steps:10 ~max_nodes:5 () in
  let lifted = Budget.without_node_cap budget in
  Budget.check_node_cap lifted Budget.Cdag_build 1_000;
  (match Budget.check_node_cap budget Budget.Cdag_build 6 with
  | () -> Alcotest.fail "the original lost its cap"
  | exception Budget.Exhausted Budget.Cdag_build -> ());
  for _ = 1 to 6 do
    Budget.checkpoint lifted Budget.Derivation
  done;
  for _ = 1 to 4 do
    Budget.checkpoint budget Budget.Cdag_build
  done;
  Alcotest.(check (pair int int)) "steps" (10, 10)
    (Budget.steps budget, Budget.steps lifted);
  Alcotest.(check int) "stage steps" 6
    (Budget.stage_steps budget Budget.Derivation);
  (match Budget.checkpoint lifted Budget.Cache_sim with
  | () -> Alcotest.fail "the step cap is not shared"
  | exception Budget.Exhausted Budget.Cache_sim -> ());
  let expired = Budget.make ~timeout_ms:0 ~max_nodes:5 () in
  Unix.sleepf 0.002;
  (match Budget.check_deadline (Budget.without_node_cap expired) Budget.Derivation with
  | () -> Alcotest.fail "the deadline is not shared"
  | exception Budget.Exhausted Budget.Derivation -> ());
  let faulty = Budget.make ~fault:(Budget.Derivation, 2) ~max_nodes:5 () in
  Budget.checkpoint faulty Budget.Derivation;
  (match Budget.checkpoint (Budget.without_node_cap faulty) Budget.Derivation with
  | () -> Alcotest.fail "the fault hook is not shared"
  | exception Budget.Exhausted Budget.Derivation -> ());
  let entry = Report.find "mgs" in
  let capped = Budget.make ~max_nodes:69 () in
  Alcotest.(check bool) "capped derivation degrades" true
    ((Report.analyze ~budget:capped entry).Report.degradation <> None);
  Alcotest.(check (option string)) "lifted derivation" None
    (Report.analyze ~budget:(Budget.without_node_cap capped) entry)
      .Report.degradation

let suite =
  [
    Alcotest.test_case "ladder faults on paper kernels" `Quick
      test_ladder_faults_paper_kernels;
    Alcotest.test_case "ladder faults on baselines" `Quick
      test_ladder_faults_baselines;
    Alcotest.test_case "step cap degrades to trivial rung" `Quick
      test_degrades_to_trivial;
    Alcotest.test_case "one derivation pass under a step cap" `Quick
      test_one_pass_under_step_cap;
    Alcotest.test_case "generous budget is transparent" `Quick
      test_generous_budget_is_transparent;
    Alcotest.test_case "pebble/cache/trace fault injection" `Quick
      test_game_and_cache_faults;
    Alcotest.test_case "sharded/sampled sweep fault injection" `Quick
      test_sharded_sweep_faults;
    Alcotest.test_case "passed deadline always fails" `Quick
      test_deadline_always_fails;
    Alcotest.test_case "trace node cap holds before allocation" `Quick
      test_trace_node_cap_first;
    Alcotest.test_case "CDAG node cap counts inputs" `Quick
      test_cdag_node_cap_counts_inputs;
    Alcotest.test_case "sweep node cap is the same at every width" `Quick
      test_sweep_node_cap_every_width;
    Alcotest.test_case "lifted node cap shares the rest" `Quick
      test_without_node_cap_shares;
  ]
