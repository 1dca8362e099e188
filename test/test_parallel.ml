(* The multicore layer: the domain pool, the cell interner, the strided
   (but still sound) budget deadline, and the end-to-end guarantee the
   bench harness relies on - parallel analyses are byte-identical to
   sequential ones. *)

module Pool = Iolb_util.Pool
module Budget = Iolb_util.Budget
module Interner = Iolb_ir.Interner
module Report = Iolb.Report

(* ------------------------------------------------------------------ *)
(* Pool.                                                               *)

let test_pool_order () =
  let xs = List.init 100 Fun.id in
  let expected = List.map (fun x -> (3 * x) + 1) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "order preserved at jobs=%d" jobs)
        expected
        (Pool.map ~jobs (fun x -> (3 * x) + 1) xs))
    [ 1; 2; 4; 7 ]

let test_pool_edge_cases () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 8 ] (Pool.map ~jobs:4 succ [ 7 ]);
  Alcotest.(check bool) "jobs=0 rejected" true
    (try
       ignore (Pool.map ~jobs:0 succ [ 1 ]);
       false
     with Invalid_argument _ -> true)

let test_pool_jobs1_is_sequential () =
  (* At jobs=1 no domain is spawned: tasks run left to right in the
     calling domain, so unsynchronised effects are safe and ordered. *)
  let log = ref [] in
  let out =
    Pool.map ~jobs:1
      (fun x ->
        log := x :: !log;
        x * x)
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list int)) "results" [ 1; 4; 9; 16 ] out;
  Alcotest.(check (list int)) "evaluation order" [ 1; 2; 3; 4 ] (List.rev !log)

exception Boom of int

let test_pool_exception () =
  (* Several tasks fail; the earliest failed index wins, at any width. *)
  List.iter
    (fun jobs ->
      match
        Pool.map ~jobs
          (fun x -> if x mod 3 = 2 then raise (Boom x) else x)
          (List.init 20 Fun.id)
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom x ->
          Alcotest.(check int)
            (Printf.sprintf "earliest failure at jobs=%d" jobs)
            2 x)
    [ 1; 3; 8 ]

let test_pool_shared_budget () =
  (* One budget shared across the fan-out: the step cap bounds the
     combined work of all workers, and exhaustion propagates. *)
  let budget = Budget.make ~max_steps:50 () in
  (match
     Pool.map ~jobs:4
       (fun _ ->
         for _ = 1 to 20 do
           Budget.checkpoint budget Budget.Derivation
         done)
       (List.init 8 Fun.id)
   with
  | _ -> Alcotest.fail "expected Exhausted"
  | exception Budget.Exhausted _ -> ());
  Alcotest.(check bool) "counted past the cap" true (Budget.steps budget > 50)

(* ------------------------------------------------------------------ *)
(* Bounded_queue: the admission-control primitive of the bound          *)
(* service.  Producers never block; consumers block until an item or    *)
(* close; items enqueued before close are still delivered.              *)

module Bq = Pool.Bounded_queue

let test_queue_capacity_and_close () =
  Alcotest.(check bool) "capacity < 1 rejected" true
    (try
       ignore (Bq.create ~capacity:0);
       false
     with Invalid_argument _ -> true);
  let q = Bq.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Bq.capacity q);
  Alcotest.(check int) "empty" 0 (Bq.length q);
  Alcotest.(check bool) "push 1" true (Bq.try_push q 1);
  Alcotest.(check bool) "push 2" true (Bq.try_push q 2);
  Alcotest.(check bool) "push refused at capacity" false (Bq.try_push q 3);
  Alcotest.(check int) "length" 2 (Bq.length q);
  Alcotest.(check (option int)) "fifo pop" (Some 1) (Bq.pop q);
  Alcotest.(check bool) "slot freed by pop" true (Bq.try_push q 4);
  Bq.close q;
  Bq.close q (* idempotent *);
  Alcotest.(check bool) "push after close refused" false (Bq.try_push q 5);
  Alcotest.(check (option int)) "drains after close" (Some 2) (Bq.pop q);
  Alcotest.(check (option int)) "drains after close" (Some 4) (Bq.pop q);
  Alcotest.(check (option int)) "closed and drained" None (Bq.pop q)

let test_queue_blocking_pop () =
  let q = Bq.create ~capacity:4 in
  let consumer =
    Domain.spawn (fun () ->
        let a = Bq.pop q in
        let b = Bq.pop q in
        (a, b))
  in
  (* The consumer blocks until the pushes land. *)
  Unix.sleepf 0.02;
  Alcotest.(check bool) "push a" true (Bq.try_push q 10);
  Alcotest.(check bool) "push b" true (Bq.try_push q 20);
  let a, b = Domain.join consumer in
  Alcotest.(check (option int)) "first item" (Some 10) a;
  Alcotest.(check (option int)) "second item" (Some 20) b

let test_queue_close_wakes_consumers () =
  let q : int Bq.t = Bq.create ~capacity:1 in
  let consumers = List.init 3 (fun _ -> Domain.spawn (fun () -> Bq.pop q)) in
  Unix.sleepf 0.02;
  Bq.close q;
  List.iter
    (fun d ->
      Alcotest.(check (option int)) "woken with None" None (Domain.join d))
    consumers

(* ------------------------------------------------------------------ *)
(* Workers: a crashing body poisons only its own slot and is respawned; *)
(* join drains every domain the group ever had.                         *)

let test_workers_respawn () =
  let q = Bq.create ~capacity:64 in
  let processed = Atomic.make 0 in
  let crashes_seen = Atomic.make 0 in
  let w =
    Pool.Workers.spawn ~jobs:2
      ~on_crash:(fun ~worker:_ _ -> Atomic.incr crashes_seen)
      (fun _ ->
        let rec loop () =
          match Bq.pop q with
          | None -> ()
          | Some `Crash -> raise (Boom 0)
          | Some `Work ->
              Atomic.incr processed;
              loop ()
        in
        loop ())
  in
  (* 16 work items interleaved with 4 poison pills. *)
  List.iter
    (fun x -> Alcotest.(check bool) "enqueued" true (Bq.try_push q x))
    (List.init 20 (fun i -> if i mod 5 = 2 then `Crash else `Work));
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    (Atomic.get processed < 16 || Pool.Workers.respawns w < 4)
    && Unix.gettimeofday () < deadline
  do
    Domain.cpu_relax ()
  done;
  Bq.close q;
  Pool.Workers.join w;
  Alcotest.(check int) "crashes did not lose work" 16 (Atomic.get processed);
  Alcotest.(check int) "one respawn per crash" 4 (Pool.Workers.respawns w);
  Alcotest.(check int) "on_crash saw every crash" 4 (Atomic.get crashes_seen)

let test_pool_map_reusable_after_failure () =
  (* A failed map joins every domain it spawned; repeated failures must
     not accumulate leaked domains or wedge later calls. *)
  for _ = 1 to 30 do
    match
      Pool.map ~jobs:4
        (fun x -> if x = 5 then raise (Boom 5) else x)
        (List.init 10 Fun.id)
    with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom 5 -> ()
  done;
  Alcotest.(check (list int)) "pool still works after 30 failures" [ 0; 2; 4 ]
    (Pool.map ~jobs:4 (fun x -> 2 * x) [ 0; 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Interner.                                                           *)

let test_interner_roundtrip () =
  let t = Interner.create () in
  let keys =
    [
      ("A", [| 0; 0 |]); ("A", [| 0; 1 |]); ("B", [| 0; 0 |]); ("A", [||]);
      ("B", [| 7 |]); ("", [| 1; 2; 3 |]);
    ]
  in
  let ids = List.map (Interner.intern t) keys in
  Alcotest.(check (list int)) "dense first-seen ids" [ 0; 1; 2; 3; 4; 5 ] ids;
  Alcotest.(check (list int)) "idempotent" ids (List.map (Interner.intern t) keys);
  Alcotest.(check int) "count" 6 (Interner.count t);
  List.iteri
    (fun id (name, vec) ->
      let name', vec' = Interner.key t id in
      Alcotest.(check string) "name round-trip" name name';
      Alcotest.(check (array int)) "vec round-trip" vec vec')
    keys;
  Alcotest.(check bool) "key out of range" true
    (try
       ignore (Interner.key t 6);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Budget: the deadline poll is strided but a passed deadline still     *)
(* fails, and the step cap stays exact.                                *)

let test_budget_deadline_strided () =
  let b = Budget.make ~timeout_ms:0 () in
  let raised_at = ref 0 in
  (try
     for i = 1 to 10 * Budget.deadline_stride do
       Budget.checkpoint b Budget.Derivation;
       raised_at := i
     done;
     Alcotest.fail "passed deadline never detected"
   with Budget.Exhausted _ -> ());
  (* The clock is only polled at stride boundaries. *)
  Alcotest.(check int) "detected at a stride boundary" 0
    ((!raised_at + 1) mod Budget.deadline_stride)

let test_budget_check_deadline_unstrided () =
  (* The clock may not have ticked since [make]; repeated polls must fail
     as soon as it does, without any checkpoint traffic in between. *)
  let b = Budget.make ~timeout_ms:0 () in
  let rec hits_within n =
    n > 0
    &&
    try
      Budget.check_deadline b Budget.Derivation;
      hits_within (n - 1)
    with Budget.Exhausted _ -> true
  in
  Alcotest.(check bool) "check_deadline polls the clock directly" true
    (hits_within 1_000_000)

let test_budget_steps_exact () =
  let b = Budget.make ~max_steps:100 () in
  for _ = 1 to 100 do
    Budget.checkpoint b Budget.Pebble_game
  done;
  Alcotest.(check int) "100 checkpoints fit" 100 (Budget.steps b);
  Alcotest.(check bool) "101st raises" true
    (try
       Budget.checkpoint b Budget.Pebble_game;
       false
     with Budget.Exhausted _ -> true)

(* ------------------------------------------------------------------ *)
(* Json: the emitter behind bench --json.                              *)

let test_json () =
  let module J = Iolb_util.Json in
  Alcotest.(check string)
    "compact"
    {|{"a":1,"b":[true,null,"x\"\n"],"c":-0.5}|}
    (J.to_string
       (J.Obj
          [
            ("a", J.Int 1);
            ("b", J.List [ J.Bool true; J.Null; J.String "x\"\n" ]);
            ("c", J.Float (-0.5));
          ]));
  Alcotest.(check string) "non-finite floats are null" {|[null,null]|}
    (J.to_string (J.List [ J.Float nan; J.Float infinity ]));
  Alcotest.(check string) "empty containers" {|[{},[]]|}
    (J.to_string (J.List [ J.Obj []; J.List [] ]));
  let pretty = J.to_string_pretty (J.Obj [ ("k", J.List [ J.Int 1 ]) ]) in
  Alcotest.(check bool) "pretty ends in newline" true
    (String.length pretty > 0 && pretty.[String.length pretty - 1] = '\n')

let test_json_parser () =
  let module J = Iolb_util.Json in
  let roundtrip v =
    match J.of_string (J.to_string v) with
    | Ok v' -> Alcotest.(check bool) (J.to_string v) true (v = v')
    | Error m -> Alcotest.failf "%s: parse error %s" (J.to_string v) m
  in
  List.iter roundtrip
    [
      J.Null;
      J.Bool false;
      J.Int (-42);
      J.Float 3.25;
      J.String "esc \"\\\n\t ok";
      J.List [ J.Int 1; J.List []; J.Obj [] ];
      J.Obj
        [
          ("schema_version", J.Int 1);
          ("sections", J.List [ J.Obj [ ("wall_s", J.Float 0.125) ] ]);
        ];
    ];
  (match J.of_string (J.to_string_pretty (J.Obj [ ("k", J.Int 1) ])) with
  | Ok (J.Obj [ ("k", J.Int 1) ]) -> ()
  | Ok v -> Alcotest.failf "pretty reparse: wrong value %s" (J.to_string v)
  | Error m -> Alcotest.failf "pretty reparse: %s" m);
  (match J.of_string {|"a\u00e9b"|} with
  | Ok (J.String "a\xc3\xa9b") -> ()
  | Ok v -> Alcotest.failf "unicode escape: wrong value %s" (J.to_string v)
  | Error m -> Alcotest.failf "unicode escape: %s" m);
  List.iter
    (fun bad ->
      match J.of_string bad with
      | Ok _ -> Alcotest.failf "%S: expected a parse error" bad
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "1 2"; "\"unterminated" ];
  Alcotest.(check bool)
    "member" true
    (J.member "a" (J.Obj [ ("a", J.Int 7) ]) = Some (J.Int 7)
    && J.member "b" (J.Obj [ ("a", J.Int 7) ]) = None
    && J.member "a" (J.Int 3) = None)

(* ------------------------------------------------------------------ *)
(* Determinism: parallel registry analyses are byte-identical to       *)
(* sequential ones, for all five kernels.                              *)

let render a = Format.asprintf "%a" Report.pp_analysis a

let test_parallel_analyses_deterministic () =
  let parallel = Report.analyze_all ~jobs:4 () in
  Alcotest.(check int) "covers the registry"
    (List.length Report.registry)
    (List.length parallel);
  List.iter2
    (fun entry a ->
      Alcotest.(check string)
        (entry.Report.display ^ " identical to a fresh sequential analysis")
        (render (Report.analyze entry))
        (render a))
    Report.registry parallel

let suite =
  [
    Alcotest.test_case "pool: order preserved" `Quick test_pool_order;
    Alcotest.test_case "pool: edge cases" `Quick test_pool_edge_cases;
    Alcotest.test_case "pool: jobs=1 is sequential" `Quick
      test_pool_jobs1_is_sequential;
    Alcotest.test_case "pool: earliest exception wins" `Quick
      test_pool_exception;
    Alcotest.test_case "pool: shared budget cap" `Quick test_pool_shared_budget;
    Alcotest.test_case "pool: reusable after failures" `Quick
      test_pool_map_reusable_after_failure;
    Alcotest.test_case "queue: capacity, fifo, close" `Quick
      test_queue_capacity_and_close;
    Alcotest.test_case "queue: pop blocks until push" `Quick
      test_queue_blocking_pop;
    Alcotest.test_case "queue: close wakes consumers" `Quick
      test_queue_close_wakes_consumers;
    Alcotest.test_case "workers: crash isolation and respawn" `Quick
      test_workers_respawn;
    Alcotest.test_case "interner: round-trip" `Quick test_interner_roundtrip;
    Alcotest.test_case "budget: strided deadline still fails" `Quick
      test_budget_deadline_strided;
    Alcotest.test_case "budget: check_deadline unstrided" `Quick
      test_budget_check_deadline_unstrided;
    Alcotest.test_case "budget: step cap exact" `Quick test_budget_steps_exact;
    Alcotest.test_case "json emitter" `Quick test_json;
    Alcotest.test_case "json parser round-trip" `Quick test_json_parser;
    Alcotest.test_case "parallel analyses deterministic" `Quick
      test_parallel_analyses_deterministic;
  ]
