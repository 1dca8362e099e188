(* The reuse-distance sweep engine: exact agreement with the per-size LRU
   simulator on randomized traces (every size, both flush settings, all
   four stats fields), opt_plan/opt equivalence, the OPT eviction heap's
   bound of [size] entries, and the size-list parser. *)

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
let sweep_matches_lru ~flush events =
  let trace = tr events in
  let lru =
    List.init (T.footprint trace + 2) (fun i ->
        (i + 1, C.lru ~size:(i + 1) ~flush trace))
  in
  List.for_all
    (fun jobs ->
      let sw = S.run ~flush ~jobs trace in
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
  List.iter
    (fun flush ->
      let lru = List.map (fun size -> (size, C.lru ~size ~flush trace)) sizes in
      List.iter
        (fun jobs ->
          let sw = S.run ~flush ~jobs trace in
          Alcotest.(check int) "accesses" (T.length trace) (S.accesses sw);
          List.iter
            (fun (size, b) ->
              if not (stats_eq (S.stats sw ~size) b) then
                Alcotest.failf "jobs=%d flush=%b: differs from lru at S=%d" jobs
                  flush size)
            lru)
        [ 1; 2; 3 ])
    [ true; false ]

let test_sweep_hand () =
  (* W a; R b; R a - exercises a dirty epoch closed by a reload. *)
  let trace = tr [ w "A" 0; r "B" 0; r "A" 0 ] in
  let sw = S.run ~flush:false trace in
  let s1 = S.stats sw ~size:1 in
  Alcotest.(check int) "size 1 loads" 2 s1.loads;
  Alcotest.(check int) "size 1 stores" 1 s1.stores;
  let s2 = S.stats sw ~size:2 in
  Alcotest.(check int) "size 2 loads" 1 s2.loads;
  Alcotest.(check int) "size 2 hits" 1 s2.read_hits;
  Alcotest.(check int) "size 2 stores" 0 s2.stores;
  let swf = S.run ~flush:true trace in
  Alcotest.(check int) "size 2 stores with flush" 1 (S.stats swf ~size:2).C.stores

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

let test_opt_heap_peak () =
  (* A long scan over many distinct cells at a small size: the eviction
     heap holds the cached cells only, so it never passes [size]. *)
  let size = 8 in
  let events = List.init 20_000 (fun i -> r "A" (i mod 2_000)) in
  let peak = C.opt_heap_peak ~size (tr events) in
  Alcotest.(check bool)
    (Printf.sprintf "peak %d <= size" peak)
    true (peak <= size);
  (* A size past the footprint is the footprint: the heap is sized by the
     smaller of the two, so max_int allocates nothing proportional to it. *)
  let trace =
    tr [ r "A" 0; w "B" 0; r "A" 1; r "B" 0; w "A" 0; r "A" 1; r "A" 0 ]
  in
  let plan = C.opt_plan trace in
  List.iter
    (fun flush ->
      Alcotest.(check bool)
        (Printf.sprintf "size max_int = size footprint (flush=%b)" flush)
        true
        (stats_eq
           (C.opt_run ~size:max_int ~flush plan)
           (C.opt_run ~size:(T.footprint trace) ~flush plan)))
    [ true; false ];
  Alcotest.(check int) "peak at max_int" (T.footprint trace)
    (C.opt_heap_peak ~size:max_int trace)

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
      List.iter
        (fun flush ->
          Alcotest.(check bool)
            (Printf.sprintf "len=%d flush=%b" (List.length events) flush)
            true
            (sweep_matches_lru ~flush events))
        [ true; false ])
    [ []; [ r "A" 0 ]; [ w "A" 0; r "A" 0; r "B" 0 ] ]

let test_run_program_streams () =
  (* dense-address and interning program sweeps = materialized sweep,
     across jobs widths *)
  let trace = T.of_program ~params:mgs_params mgs in
  List.iter
    (fun flush ->
      let seq = S.run ~flush trace in
      List.iter
        (fun jobs ->
          List.iter
            (fun (what, got) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s jobs=%d flush=%b" what jobs flush)
                true (sweeps_equal seq got))
            [
              ("dense", S.run_program ~flush ~jobs ~params:mgs_params mgs);
              ( "interned",
                S.run_program_stream ~flush ~jobs ~params:mgs_params mgs );
            ])
        [ 1; 2; 4; 8 ])
    [ true; false ]

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
      check "run_program_stream" (S.run_program_stream ~jobs:2 ~params prog);
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
    [ "rank_mismatch"; "hull_overflow"; "sparse_hull"; "skew" ]

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

let suite =
  [
    Alcotest.test_case "hand-computed sweep" `Quick test_sweep_hand;
    Alcotest.test_case "empty trace" `Quick test_sweep_empty;
    Alcotest.test_case "distance histogram" `Quick test_sweep_histogram;
    Alcotest.test_case "opt heap peak is O(size)" `Quick test_opt_heap_peak;
    Alcotest.test_case "parse_sizes" `Quick test_parse_sizes;
    prop "sweep = per-size LRU (flush)" (sweep_matches_lru ~flush:true);
    prop "sweep = per-size LRU (no flush)" (sweep_matches_lru ~flush:false);
    prop "opt_plan runs = fresh opt runs" (fun events ->
        let trace = tr events in
        let plan = C.opt_plan trace in
        List.for_all
          (fun size ->
            stats_eq (C.opt_run ~size plan) (C.opt ~size trace)
            && stats_eq
                 (C.opt_run ~size ~flush:false plan)
                 (C.opt ~size ~flush:false trace))
          [ 1; 2; 4; 8; 1_000 ]);
    Alcotest.test_case "segmented edge cases" `Quick test_segmented_edges;
    Alcotest.test_case "streamed run_program = run" `Quick
      test_run_program_streams;
    Alcotest.test_case "sampled rate 1 is exact" `Quick
      test_sampled_rate_one_exact;
    Alcotest.test_case "sampled CIs cover exact (fixed seeds)" `Quick
      test_sampled_coverage_fixed_seeds;
    Alcotest.test_case "test/data programs = per-size LRU" `Quick
      test_data_programs;
    Alcotest.test_case "sampled centre stays in its interval" `Quick
      test_sampled_centre_in_interval;
    Alcotest.test_case "every distance tier = per-size LRU" `Quick
      test_distance_tiers;
  ]
