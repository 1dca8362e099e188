(* The reuse-distance sweep engine: exact agreement with the per-size LRU
   simulator on randomized traces (every size, all four stats fields),
   opt_plan/opt equivalence, the OPT eviction heap's bound of
   [min size footprint] slots, and the size-list parser. *)

module T = Iolb_pebble.Trace
module C = Iolb_pebble.Cache
module S = Iolb_pebble.Sweep

let cell a i = (a, [| i |])
let r a i = T.Read (cell a i)
let w a i = T.Write (cell a i)
let tr = T.of_events

let stats_eq (a : C.stats) (b : C.stats) =
  a.loads = b.loads && a.stores = b.stores && a.read_hits = b.read_hits
  && a.accesses = b.accesses

(* Mixed reads/writes over up to 13 cells, length 1..200. *)
let random_trace_gen =
  let open QCheck2.Gen in
  list_size (int_range 1 200)
    (map2
       (fun k is_w -> if is_w then w "A" k else r "A" k)
       (int_range 0 12) bool)

let prop name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:200 random_trace_gen f)

(* Every segment count against the independent per-size simulator, at
   every size up to footprint + 2: the sequential sweep is the
   one-segment case of the sharded one, so neither can serve as the
   other's reference. *)
let sweep_matches_lru events =
  let trace = tr events in
  let lru =
    List.init (T.footprint trace + 2) (fun i ->
        (i + 1, C.lru ~size:(i + 1) trace))
  in
  List.for_all
    (fun jobs ->
      let sw = S.run ~jobs trace in
      S.footprint sw = T.footprint trace
      && S.accesses sw = T.length trace
      && List.for_all (fun (size, b) -> stats_eq (S.stats sw ~size) b) lru)
    [ 1; 2; 4; 8 ]

(* One seeded trace over 6144 cells that reaches every tier of the sweep
   core: immediate reuse (distance 0), cyclic sweeps (the hole-free top
   of the stack), reversed sweeps and random windows (holes above the
   reused mark, so popcounts within one word, range sums across words and
   prefix sums past the 4096-position switch), with the position space
   renumbered at every capacity from 64 up.  The sizes straddle each of
   those boundaries. *)
let test_distance_tiers () =
  let st = Random.State.make [| 25 |] in
  let ncells = 6144 in
  let events = ref [] in
  let access c =
    let c = c mod ncells in
    events := (if Random.State.int st 4 = 0 then w "A" c else r "A" c) :: !events
  in
  let offset () = Random.State.int st ncells in
  for c = 0 to ncells - 1 do access c done;
  for _ = 1 to 2 do
    List.iter
      (fun len ->
        let lo = offset () in
        for c = lo to lo + len - 1 do access c done;
        for c = lo to lo + len - 1 do access c done;
        for _ = 1 to 20 do access lo done)
      [ 2; 31; 32; 33; 63; 64; 65; 4095; 4096; 4097; ncells ];
    List.iter
      (fun len ->
        let lo = offset () in
        for c = lo + len - 1 downto lo do access c done)
      [ 40; 70; 4100; ncells ];
    List.iter
      (fun width ->
        let lo = offset () in
        for _ = 1 to 2000 do access (lo + Random.State.int st width) done)
      [ 8; 33; 100; 3000; ncells ]
  done;
  let trace = tr (List.rev !events) in
  let f = T.footprint trace in
  Alcotest.(check int) "footprint" ncells f;
  let sizes = [ 1; 2; 31; 32; 33; 63; 64; 65; 4095; 4096; 4097; f - 1; f; f + 1 ] in
  let lru = List.map (fun size -> (size, C.lru ~size trace)) sizes in
  List.iter
    (fun jobs ->
      let sw = S.run ~jobs trace in
      Alcotest.(check int) "accesses" (T.length trace) (S.accesses sw);
      List.iter
        (fun (size, b) ->
          if not (stats_eq (S.stats sw ~size) b) then
            Alcotest.failf "jobs=%d: differs from lru at S=%d" jobs size)
        lru)
    [ 1; 2; 3 ]

let test_sweep_hand () =
  (* W a; R b; R a - exercises a dirty epoch closed by a reload. *)
  let trace = tr [ w "A" 0; r "B" 0; r "A" 0 ] in
  let sw = S.run trace in
  let s1 = S.stats sw ~size:1 in
  Alcotest.(check int) "size 1 loads" 2 s1.loads;
  (* a is stored when R b evicts it; its reloaded copy is clean *)
  Alcotest.(check int) "size 1 stores" 1 s1.stores;
  let s2 = S.stats sw ~size:2 in
  Alcotest.(check int) "size 2 loads" 1 s2.loads;
  Alcotest.(check int) "size 2 hits" 1 s2.read_hits;
  (* a stays dirty in cache until the final flush *)
  Alcotest.(check int) "size 2 stores" 1 s2.stores

let test_sweep_empty () =
  let sw = S.run (tr []) in
  let s = S.stats sw ~size:5 in
  Alcotest.(check int) "loads" 0 s.loads;
  Alcotest.(check int) "stores" 0 s.stores;
  Alcotest.(check int) "accesses" 0 s.accesses;
  Alcotest.(check int) "footprint" 0 (S.footprint sw)

let test_sweep_histogram () =
  (* R a; R b; R a: one read at distance 1; cold reads uncounted. *)
  let sw = S.run (tr [ r "A" 0; r "B" 0; r "A" 0 ]) in
  let h = S.distance_histogram sw in
  Alcotest.(check (array int)) "histogram" [| 0; 1 |] h

let test_opt_size_past_footprint () =
  (* A size past the footprint is the footprint: the heap is sized by the
     smaller of the two, so max_int allocates nothing proportional to it. *)
  let trace =
    tr [ r "A" 0; w "B" 0; r "A" 1; r "B" 0; w "A" 0; r "A" 1; r "A" 0 ]
  in
  let plan = C.opt_plan trace in
  Alcotest.(check bool) "size max_int = size footprint" true
    (stats_eq
       (C.opt_run ~size:max_int plan)
       (C.opt_run ~size:(T.footprint trace) plan))

let test_parse_sizes () =
  let ok spec expect =
    match S.parse_sizes spec with
    | Ok l -> Alcotest.(check (list int)) spec expect l
    | Error m -> Alcotest.failf "%s: unexpected error %s" spec m
  in
  let err spec =
    match S.parse_sizes spec with
    | Ok _ -> Alcotest.failf "%s: expected an error" spec
    | Error _ -> ()
  in
  ok "8" [ 8 ];
  ok "12,16,32" [ 12; 16; 32 ];
  ok " 4 , 5 " [ 4; 5 ];
  ok "2:10:3" [ 2; 5; 8 ];
  ok "4:4:1" [ 4 ];
  (* lo + step would carry past max_int: counted first, two sizes *)
  ok "1:4611686018427387903:2305843009213693952" [ 1; 2305843009213693953 ];
  (match S.parse_sizes "1:1000000:1" with
  | Ok l -> Alcotest.(check int) "1:1000000:1 length" 1_000_000 (List.length l)
  | Error m -> Alcotest.failf "1:1000000:1: unexpected error %s" m);
  (match S.parse_sizes "1:4000000000:1" with
  | Ok _ -> Alcotest.fail "1:4000000000:1: expected an error"
  | Error m ->
      Alcotest.(check string) "count named"
        "range 1:4000000000:1 names 4000000000 sizes (at most 1000000)" m);
  err "1:1000001:1";
  err "";
  err "a,b";
  err "0,4";
  err "-3";
  err "4:2:1";
  err "1:10:0";
  err "1:10";
  err "1:2:3:4"

(* --------------------------------------------------------------------- *)
(* Sharded, program and sampled sweeps.                                    *)

let mgs = Programs.mgs
let mgs_params = [ ("M", 24); ("N", 12) ]

let sweeps_equal a b =
  S.footprint a = S.footprint b
  && S.accesses a = S.accesses b
  && S.distance_histogram a = S.distance_histogram b
  && List.for_all
       (fun size -> S.stats a ~size = S.stats b ~size)
       (List.init (S.footprint a + 2) (fun i -> i + 1))

let test_segmented_edges () =
  (* randomized by the per-size LRU properties; here the empty and
     one-event edges, where shards outnumber events *)
  List.iter
    (fun events ->
      Alcotest.(check bool)
        (Printf.sprintf "len=%d" (List.length events))
        true (sweep_matches_lru events))
    [ []; [ r "A" 0 ]; [ w "A" 0; r "A" 0; r "B" 0 ] ]

let test_run_program_streams () =
  (* the program sweep = materialized sweep, across jobs widths *)
  let seq = S.run (T.of_program ~params:mgs_params mgs) in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d" jobs)
        true
        (sweeps_equal seq (S.run_program ~jobs ~params:mgs_params mgs)))
    [ 1; 2; 4; 8 ]

(* An array at two ranks, a hull past 63-bit integers (a plan without a
   layout), a hull too sparse for a flat numbering table (both swept
   through their interned cells) and a skewed subscript, against the
   per-size simulator on a trace built straight from the reference
   interpreter. *)
let test_data_programs () =
  List.iter
    (fun name ->
      let prog, params = Test_cplan.data_program name in
      let events =
        List.map
          (fun (a, idx, w) -> if w then T.Write (a, idx) else T.Read (a, idx))
          (Iolb_check.Interp.accesses ~params prog)
      in
      let reference = tr events in
      let sizes = List.init (T.footprint reference + 2) (fun i -> i + 1) in
      let check what sweep =
        List.iter
          (fun size ->
            if not (stats_eq (S.stats sweep ~size) (C.lru ~size reference))
            then Alcotest.failf "%s %s: differs from lru at S=%d" name what size)
          sizes
      in
      List.iter
        (fun jobs ->
          check
            (Printf.sprintf "run_program jobs=%d" jobs)
            (S.run_program ~jobs ~params prog))
        [ 1; 2; 4 ];
      check "run of_program" (S.run (T.of_program ~params prog));
      check "run_sampled rate 1"
        (S.sampled_union (S.run_sampled ~rate:1.0 ~seed:5 ~params prog));
      (* a sampled scan, with or without a layout, keeps exactly the
         accesses the hash selects *)
      let thresh = int_of_float (0.5 *. 4611686018427387904.0) in
      let selected =
        List.length
          (List.filter
             (function
               | T.Read (a, idx) | T.Write (a, idx) ->
                   Iolb_ir.Cplan.sample_hash ~seed:5 a idx < thresh)
             events)
      in
      let sampled = S.run_sampled ~rate:0.5 ~seed:5 ~params prog in
      Alcotest.(check int) (name ^ ": sampled kept") selected
        (S.sampled_kept_accesses sampled);
      Alcotest.(check int) (name ^ ": sampled total") (T.length reference)
        (S.sampled_total_accesses sampled))
    [ "rank_mismatch"; "hull_overflow"; "sparse_hull"; "skew"; "sampled_strides" ]

(* Below the hash resolution 2^-62 no keep threshold matches the rate,
   so the estimates would scale by a 1/rate the scan never sampled at
   (4.9e-324 made them nan, 1e-300 made them 0). *)
let test_sampled_rate_floor () =
  let run rate = ignore (S.run_sampled ~rate ~seed:3 ~params:mgs_params mgs) in
  let below =
    Invalid_argument
      "Sweep.run_sampled: rate must be at least 2^-62, the sampling hash \
       resolution"
  in
  Alcotest.check_raises "4.9e-324" below (fun () -> run 4.9e-324);
  Alcotest.check_raises "2^-63" below (fun () -> run (Float.ldexp 1.0 (-63)));
  Alcotest.check_raises "0 keeps its message"
    (Invalid_argument "Sweep.run_sampled: rate must be in (0, 1]") (fun () ->
      run 0.0);
  Alcotest.(check (float 0.0)) "floor" (Float.ldexp 1.0 (-62)) S.min_rate;
  let s = S.run_sampled ~rate:S.min_rate ~seed:3 ~params:mgs_params mgs in
  let l, h, st = S.sampled_stats s ~size:4 in
  List.iter
    (fun (what, e) ->
      Alcotest.(check bool) (what ^ " is a number") false (Float.is_nan e.S.est))
    [ ("loads", l); ("hits", h); ("stores", st) ]

let test_sampled_rate_one_exact () =
  let s = S.run_sampled ~rate:1.0 ~seed:3 ~params:mgs_params mgs in
  Alcotest.(check bool) "exact" true (S.sampled_exact s);
  Alcotest.(check bool) "zero kept loss" true
    (S.sampled_kept_accesses s = S.sampled_total_accesses s);
  let seq = S.run (T.of_program ~params:mgs_params mgs) in
  Alcotest.(check bool) "equals exact sweep" true
    (sweeps_equal seq (S.sampled_union s));
  List.iter
    (fun size ->
      let l, h, st = S.sampled_stats s ~size in
      let ex = S.stats seq ~size in
      Alcotest.(check (float 0.0)) "loads zero-width" l.S.est l.S.lo;
      Alcotest.(check (float 0.0)) "loads centre" (float_of_int ex.C.loads) l.S.est;
      Alcotest.(check (float 0.0)) "hits centre" (float_of_int ex.C.read_hits) h.S.est;
      Alcotest.(check (float 0.0)) "stores centre" (float_of_int ex.C.stores) st.S.est)
    [ 2; 5; 40; 700 ]

let test_sampled_coverage_fixed_seeds () =
  (* statistical mode with pinned seeds: the interval must cover the
     exact value at every size (deterministic given the seed) *)
  let seq = S.run (T.of_program ~params:mgs_params mgs) in
  List.iter
    (fun (rate, seed) ->
      let s = S.run_sampled ~rate ~seed ~params:mgs_params mgs in
      Alcotest.(check bool) "not exact" false (S.sampled_exact s);
      for size = 1 to S.footprint seq + 2 do
        let ex = S.stats seq ~size in
        let l, h, st = S.sampled_stats s ~size in
        (* double-widened: a z=4 interval may miss on a ~0.4% tail, but a
           miss beyond twice its width means the estimator is broken *)
        let cover what v (a : S.estimate) =
          let v = float_of_int v in
          let w = a.S.hi -. a.S.lo in
          if not (a.S.lo -. w <= v && v <= a.S.hi +. w) then
            Alcotest.failf "rate=%g seed=%d size=%d %s=%g outside [%g, %g]"
              rate seed size what v a.S.lo a.S.hi
        in
        cover "loads" ex.C.loads l;
        cover "read_hits" ex.C.read_hits h;
        cover "stores" ex.C.stores st
      done)
    [ (0.5, 0); (0.5, 3); (0.3, 1); (0.2, 2) ]

(* A thin sample can scale past the trace length (11 kept accesses of 16
   at rate 0.5 would estimate 18 loads at S=1); the centre is capped at
   the access count, so it stays inside its own [0, 16] interval. *)
let test_sampled_centre_in_interval () =
  let prog, params = Test_cplan.data_program "rat_overflow" in
  let s = S.run_sampled ~rate:0.5 ~seed:42 ~params prog in
  Alcotest.(check int) "total" 16 (S.sampled_total_accesses s);
  Alcotest.(check int) "kept" 11 (S.sampled_kept_accesses s);
  let l, h, st = S.sampled_stats s ~size:1 in
  let row (a : S.estimate) = (a.S.est, a.S.lo, a.S.hi) in
  let triple = Alcotest.(triple (float 0.0) (float 0.0) (float 0.0)) in
  Alcotest.check triple "loads" (16.0, 0.0, 16.0) (row l);
  Alcotest.check triple "read hits" (0.0, 0.0, 16.0) (row h);
  Alcotest.check triple "stores" (4.0, 0.0, 16.0) (row st)

(* The scan charges the budget the same amounts in the same order
   whichever way it passes an access, so a sampled sweep takes as many
   [Cache_sim] steps as the hash-every-access scan took (the pinned
   counts): MGS 64x32 at a rate whose innermost loops skip and at one
   whose loops hash every access, sampled_strides at both, and MGS
   40000x2, whose innermost loops pass more than one tick's 64k
   accesses each. *)
let test_sampled_steps_pinned () =
  let prog, params = Test_cplan.data_program "sampled_strides" in
  List.iter
    (fun (what, prog, params, rate, want) ->
      let b = Iolb_util.Budget.make ~max_steps:max_int () in
      ignore (S.run_sampled ~budget:b ~rate ~seed:42 ~params prog);
      Alcotest.(check int)
        (Printf.sprintf "%s rate %g: Cache_sim steps" what rate)
        want
        (Iolb_util.Budget.stage_steps b Iolb_util.Budget.Cache_sim))
    [
      ("mgs 64x32", mgs, [ ("M", 64); ("N", 32) ], 0.05, 27093);
      ("mgs 64x32", mgs, [ ("M", 64); ("N", 32) ], 0.5, 274801);
      ("sampled_strides", prog, params, 0.05, 1903);
      ("sampled_strides", prog, params, 0.5, 10307);
      ("mgs 40000x2", mgs, [ ("M", 40000); ("N", 2) ], 0.05, 76385);
    ]

(* Kept cells are told apart by array as well as by hash:
   rank_mismatch's A[i] and A[i][0] hash alike.  The sampled footprint
   is the number of distinct kept cells, and where every cell is kept
   (seed 5, rate 0.999 at N = 4: 24 cells) the union sweep is the exact
   sweep. *)
let test_sampled_footprint_by_cell () =
  List.iter
    (fun (name, seed, rate) ->
      let prog, params = Test_cplan.data_program name in
      let accesses = Iolb_check.Interp.accesses ~params prog in
      let thresh = int_of_float (rate *. 4611686018427387904.0) in
      let kept =
        List.sort_uniq compare
          (List.filter_map
             (fun (a, idx, _) ->
               if Iolb_ir.Cplan.sample_hash ~seed a idx < thresh then
                 Some (a, idx)
               else None)
             accesses)
      in
      let s = S.run_sampled ~rate ~seed ~params prog in
      let what = Printf.sprintf "%s seed %d rate %g" name seed rate in
      Alcotest.(check int) (what ^ ": sampled footprint") (List.length kept)
        (S.footprint (S.sampled_union s)))
    [
      ("rank_mismatch", 5, 0.999); ("rank_mismatch", 3, 0.5);
      ("sampled_strides", 5, 0.1); ("skew", 7, 0.3);
    ];
  let prog, params = Test_cplan.data_program "rank_mismatch" in
  let s = S.run_sampled ~rate:0.999 ~seed:5 ~params prog in
  let exact = S.run_program ~params prog in
  Alcotest.(check int) "every access kept" (S.accesses exact)
    (S.sampled_kept_accesses s);
  Alcotest.(check int) "every cell kept" 24 (S.footprint exact);
  Alcotest.(check bool) "union sweep = exact sweep" true
    (sweeps_equal exact (S.sampled_union s))

let suite =
  [
    Alcotest.test_case "hand-computed sweep" `Quick test_sweep_hand;
    Alcotest.test_case "empty trace" `Quick test_sweep_empty;
    Alcotest.test_case "distance histogram" `Quick test_sweep_histogram;
    Alcotest.test_case "opt size past the footprint" `Quick
      test_opt_size_past_footprint;
    Alcotest.test_case "parse_sizes" `Quick test_parse_sizes;
    prop "sweep = per-size LRU (flush)" sweep_matches_lru;
    Alcotest.test_case "every distance tier = per-size LRU" `Quick
      test_distance_tiers;
    prop "opt_plan runs = fresh opt runs" (fun events ->
        let trace = tr events in
        let plan = C.opt_plan trace in
        List.for_all
          (fun size -> stats_eq (C.opt_run ~size plan) (C.opt ~size trace))
          [ 1; 2; 4; 8; 1_000 ]);
    Alcotest.test_case "segmented edge cases" `Quick test_segmented_edges;
    Alcotest.test_case "streamed run_program = run" `Quick
      test_run_program_streams;
    Alcotest.test_case "sampled rate 1 is exact" `Quick
      test_sampled_rate_one_exact;
    Alcotest.test_case "sampled rate floor is 2^-62" `Quick
      test_sampled_rate_floor;
    Alcotest.test_case "sampled CIs cover exact (fixed seeds)" `Quick
      test_sampled_coverage_fixed_seeds;
    Alcotest.test_case "test/data programs = per-size LRU" `Quick
      test_data_programs;
    Alcotest.test_case "sampled centre stays in its interval" `Quick
      test_sampled_centre_in_interval;
    Alcotest.test_case "sampled Cache_sim steps pinned" `Quick
      test_sampled_steps_pinned;
    Alcotest.test_case "sampled footprint counts cells" `Quick
      test_sampled_footprint_by_cell;
  ]
