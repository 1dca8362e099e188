(* CDAG construction and the red-white pebble game. *)

module Cdag = Iolb_cdag.Cdag
module Game = Iolb_pebble.Game
module Game_ref = Iolb_pebble.Game_ref

let mgs_cdag m n = Cdag.of_program ~params:[ ("M", m); ("N", n) ] Programs.mgs

(* The compute node of one statement instance, found by scanning kinds. *)
let node cdag name vec =
  let rec find id =
    if id >= Cdag.n_nodes cdag then Alcotest.failf "no instance of %s" name
    else
      match Cdag.kind cdag id with
      | Cdag.Compute (s, v) when s = name && v = vec -> id
      | Cdag.Compute _ | Cdag.Input _ -> find (id + 1)
  in
  find 0

let test_cdag_counts () =
  let params = [ ("M", 5); ("N", 3) ] in
  let cdag = Cdag.of_program ~params Programs.mgs in
  Alcotest.(check int)
    "computes = instances"
    (List.length (Iolb_check.Interp.instances ~params Programs.mgs))
    (Cdag.n_computes cdag);
  (* Inputs: exactly the M*N cells of A. *)
  Alcotest.(check int) "inputs = M*N" 15 (Cdag.n_inputs cdag)

(* The numbering rule [Cdag.reaches] relies on: every edge runs from a
   smaller id to a larger one, so program order is the identity. *)
let test_program_order_topological () =
  let cdags =
    List.map
      (fun (e : Iolb.Report.entry) ->
        (e.display, Cdag.of_program ~params:e.verify_params e.program))
      Iolb.Report.registry
    @ List.map
        (fun (name, p, params) -> (name, Cdag.of_program ~params p))
        Iolb.Report.baselines
  in
  List.iter
    (fun (name, cdag) ->
      let n = Cdag.n_nodes cdag in
      Alcotest.(check (array int))
        (name ^ ": program order is the identity")
        (Array.init n Fun.id) (Cdag.program_order cdag);
      let backward = ref [] in
      for id = 0 to n - 1 do
        Array.iter
          (fun p -> if p >= id then backward := (p, id) :: !backward)
          (Cdag.preds cdag id)
      done;
      Alcotest.(check (list (pair int int)))
        (name ^ ": every predecessor has a smaller id")
        [] !backward)
    cdags

(* [reaches] against a plain BFS that knows nothing of the numbering,
   on every ordered node pair.  V2Q's temporal loop runs downwards, so
   its hourglass chains need the backward queries. *)
let test_reachability () =
  let cdag = mgs_cdag 4 3 in
  (* SU[0,1,0] must reach SU[1,2,0] (hourglass chain), and nothing reaches
     backwards. *)
  let a = node cdag "SU" [| 0; 1; 0 |] and b = node cdag "SU" [| 1; 2; 0 |] in
  let r = Cdag.reachability cdag in
  Alcotest.(check bool) "forward reachable" true (Cdag.reaches r a b);
  Alcotest.(check bool) "not backward" false (Cdag.reaches r b a);
  let bfs cdag src =
    let seen = Array.make (Cdag.n_nodes cdag) false in
    let queue = Queue.create () in
    seen.(src) <- true;
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      Array.iter
        (fun v ->
          if not seen.(v) then begin
            seen.(v) <- true;
            Queue.add v queue
          end)
        (Cdag.succs cdag (Queue.pop queue))
    done;
    seen
  in
  List.iter
    (fun (name, cdag) ->
      let r = Cdag.reachability cdag in
      let wrong = ref [] in
      for src = 0 to Cdag.n_nodes cdag - 1 do
        let seen = bfs cdag src in
        Array.iteri
          (fun dst expected ->
            if Cdag.reaches r src dst <> expected then
              wrong := (src, dst) :: !wrong)
          seen
      done;
      Alcotest.(check (list (pair int int)))
        (name ^ ": reaches = BFS on every pair")
        [] !wrong)
    [
      ("mgs 4x3", cdag);
      ( "v2q 7x4",
        Cdag.of_program ~params:[ ("M", 7); ("N", 4) ] Programs.v2q
      );
    ]

let test_convex_closure () =
  let cdag = mgs_cdag 4 3 in
  (* SU instances at the same neutral j = 2, consecutive temporal k. *)
  let a = node cdag "SU" [| 0; 2; 0 |] and b = node cdag "SU" [| 1; 2; 0 |] in
  let closure = Cdag.convex_closure cdag [ a; b ] in
  (* The closure must contain the whole SR[1,2,*] reduction line (the
     hourglass neck). *)
  let contains_sr =
    List.exists
      (fun id ->
        match Cdag.kind cdag id with
        | Cdag.Compute ("SR", [| 1; 2; _ |]) -> true
        | _ -> false)
      closure
  in
  Alcotest.(check bool) "closure contains SR line" true contains_sr;
  Alcotest.(check bool) "closure contains endpoints" true
    (List.mem a closure && List.mem b closure)

let test_inset () =
  let cdag = mgs_cdag 4 3 in
  (* A single node's inset is its in-degree (distinct predecessors). *)
  let a = node cdag "SU" [| 0; 1; 0 |] in
  Alcotest.(check int) "inset of single node" 3 (Cdag.inset cdag [ a ]);
  Alcotest.(check int) "inset of empty set" 0 (Cdag.inset cdag [])

let test_game_runs_and_counts () =
  let cdag = mgs_cdag 6 4 in
  let schedule = Game.program_schedule cdag in
  let footprint = Cdag.n_inputs cdag in
  let game = Game.plan cdag ~schedule in
  (* With a huge memory, loads = compulsory input loads only. *)
  let big = Game.run_plan game ~s:10_000 in
  Alcotest.(check int) "loads = inputs when S is huge" footprint big.loads;
  (* With a small memory, more loads are needed; never fewer. *)
  let small = Game.run_plan game ~s:8 in
  Alcotest.(check bool) "small memory loads >= inputs" true
    (small.loads >= footprint);
  Alcotest.(check bool) "peak respects capacity" true (small.peak_red <= 8)

let test_game_monotone_in_s () =
  let cdag = mgs_cdag 6 4 in
  let game = Game.plan cdag ~schedule:(Game.program_schedule cdag) in
  let loads s = (Game.run_plan game ~s).loads in
  let l8 = loads 8 and l16 = loads 16 and l32 = loads 32 in
  Alcotest.(check bool) "monotone" true (l8 >= l16 && l16 >= l32)

let test_game_infeasible () =
  let cdag = mgs_cdag 4 3 in
  let game = Game.plan cdag ~schedule:(Game.program_schedule cdag) in
  Alcotest.(check bool) "S=2 infeasible (fan-in 3 + result)" true
    (try
       ignore (Game.run_plan game ~s:2);
       false
     with Iolb_util.Engine_error.(Error (Invalid_input _)) -> true)

let test_random_schedules_valid () =
  let cdag = mgs_cdag 5 3 in
  List.iter
    (fun seed ->
      let schedule = Game.random_topological ~seed cdag in
      Alcotest.(check bool)
        (Printf.sprintf "random schedule %d topological" seed)
        true
        (Game.is_topological cdag schedule);
      let r = Game.run_plan (Game.plan cdag ~schedule) ~s:12 in
      Alcotest.(check bool) "positive loads" true (r.loads > 0))
    [ 0; 1; 2; 3; 4 ]

let test_rejects_bad_schedule () =
  let cdag = mgs_cdag 4 3 in
  let schedule = Game.program_schedule cdag in
  (* Replacing the last sink compute keeps every predecessor scheduled
     first, so only the permutation check can catch these. *)
  let sinks =
    List.filter (fun id -> Cdag.succs cdag id = [||]) (Array.to_list schedule)
  in
  let first_sink = List.hd sinks and last_sink = List.hd (List.rev sinks) in
  let input =
    List.find
      (fun id ->
        match Cdag.kind cdag id with Cdag.Input _ -> true | _ -> false)
      (List.init (Cdag.n_nodes cdag) Fun.id)
  in
  let replace_last_sink id =
    Array.map (fun x -> if x = last_sink then id else x) schedule
  in
  List.iter
    (fun (what, bad) ->
      Alcotest.(check bool) (what ^ ": Game rejects") false
        (Game.is_topological cdag bad);
      Alcotest.(check bool) (what ^ ": Game_ref rejects") false
        (Game_ref.is_topological cdag bad);
      Alcotest.(check bool) (what ^ ": plan raises") true
        (try
           ignore (Game.plan cdag ~schedule:bad);
           false
         with Invalid_argument _ -> true))
    [
      (* certainly not topological *)
      ("reversed", Array.of_list (List.rev (Array.to_list schedule)));
      ("repeated sink", replace_last_sink first_sink);
      ("input id", replace_last_sink input);
      ("out-of-range id", replace_last_sink (Cdag.n_nodes cdag));
    ]

(* The compiled engine breaks ties between equal next-use keys unlike the
   reference; loads and peak must not notice.  Paper-kernel CDAGs at
   every S up to past the node count make ties common, and one runner per
   schedule, played down then up in S (and once cut short by its budget),
   checks that a run leaves nothing behind for the next. *)
let test_game_matches_reference () =
  let mismatches = ref [] in
  List.iter
    (fun (what, cdag) ->
      let top = Cdag.n_nodes cdag + 2 in
      let down = List.init top (fun i -> top - i) in
      let schedules =
        ("program", Game.program_schedule cdag)
        :: List.map
             (fun seed ->
               (Printf.sprintf "seed %d" seed, Game.random_topological ~seed cdag))
             [ 0; 1; 2 ]
      in
      List.iter
        (fun (label, schedule) ->
          let runner = Game.runner (Game.plan cdag ~schedule) in
          let play s =
            let compiled =
              match Game.run_runner runner ~s with
              | r -> Some (r.loads, r.peak_red)
              | exception Iolb_util.Engine_error.(Error (Invalid_input _)) -> None
            in
            let reference =
              match Game_ref.run cdag ~s ~schedule with
              | r -> Some (r.loads, r.peak_red)
              | exception Game_ref.Infeasible _ -> None
            in
            if compiled <> reference then
              mismatches := Printf.sprintf "%s %s S=%d" what label s :: !mismatches
          in
          List.iter play down;
          let budget =
            Iolb_util.Budget.make ~max_steps:(Array.length schedule / 2) ()
          in
          (match Game.run_runner ~budget runner ~s:16 with
          | _ ->
              mismatches :=
                Printf.sprintf "%s %s: not cut short" what label :: !mismatches
          | exception Iolb_util.Budget.Exhausted _ -> ());
          List.iter play (List.rev down))
        schedules)
    [
      ("mgs 6x4", mgs_cdag 6 4);
      ("gehd2 N=6", Cdag.of_program ~params:[ ("N", 6) ] Programs.gehd2_fig7);
    ];
  Alcotest.(check (list string)) "compiled = reference" [] (List.rev !mismatches)

(* A statement without accesses still has its instances: each is a
   node with no edges, numbered in program order like any other. *)
let test_no_access_nodes () =
  let prog, _ = Test_cplan.data_program "no_access" in
  let cdag = Cdag.of_program ~params:[ ("N", 3) ] prog in
  Alcotest.(check string) "stats"
    "nodes: 9 (inputs: 3, computes: 6), edges: 3"
    (Format.asprintf "%a" Cdag.pp_stats cdag);
  let ts = Cdag.nodes_of_stmt cdag "T" in
  Alcotest.(check int) "T instances" 3 (List.length ts);
  List.iter
    (fun id ->
      Alcotest.(check int) "T has no predecessor" 0
        (Array.length (Cdag.preds cdag id)))
    ts;
  Alcotest.(check (list int)) "T vectors" [ 0; 1; 2 ]
    (List.map (fun id -> Cdag.coord cdag id 0) ts)

(* One build's allocation, in words (minor + major - promoted), is
   deterministic where its time is not.  The builder walking through an
   interner into doubling tables, with a boxed kind per node, allocated
   582,000 words at MGS 32x16; sizing every array once from the plan's
   closed-form counts must keep it under a quarter of that.  The minor
   words come from [Gc.minor_words], which counts the live minor heap in
   full: the minor part of [Gc.counters] counts it at one eighth until
   the next minor collection, so a reading taken across one can carry
   minor words allocated before the build. *)
let test_build_allocation () =
  let params = [ ("M", 32); ("N", 16) ] in
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  ignore (Cdag.of_program ~params Programs.mgs);
  let w0 = words () in
  let cdag = Cdag.of_program ~params Programs.mgs in
  let w = words () -. w0 in
  Alcotest.(check int) "nodes" 9368 (Cdag.n_nodes cdag);
  if w > 582_000. /. 4. then
    Alcotest.failf "one MGS 32x16 build allocated %.0f words (> 145,500)" w

let suite =
  [
    Alcotest.test_case "cdag node counts" `Quick test_cdag_counts;
    Alcotest.test_case "program order is topological" `Quick
      test_program_order_topological;
    Alcotest.test_case "reachability" `Quick test_reachability;
    Alcotest.test_case "convex closure contains the neck" `Quick
      test_convex_closure;
    Alcotest.test_case "inset" `Quick test_inset;
    Alcotest.test_case "pebble game load counts" `Quick test_game_runs_and_counts;
    Alcotest.test_case "loads monotone in S" `Quick test_game_monotone_in_s;
    Alcotest.test_case "infeasible when fan-in exceeds S" `Quick
      test_game_infeasible;
    Alcotest.test_case "random topological schedules" `Quick
      test_random_schedules_valid;
    Alcotest.test_case "non-topological schedules rejected" `Quick
      test_rejects_bad_schedule;
    Alcotest.test_case "compiled game = reference under ties and reuse" `Quick
      test_game_matches_reference;
    Alcotest.test_case "statements without accesses keep their nodes" `Quick
      test_no_access_nodes;
    Alcotest.test_case "CDAG build allocation" `Quick test_build_allocation;
  ]
