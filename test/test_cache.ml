(* Cache simulator: hand-computed traces, policy sandwich (cold <= OPT <=
   LRU misses), stack-property checks on random traces, and OPT against
   the certifier's naive Belady reference. *)

module T = Iolb_pebble.Trace
module C = Iolb_pebble.Cache

let cell a i = (a, [| i |])
let r a i = T.Read (cell a i)
let w a i = T.Write (cell a i)
let tr = T.of_events

let test_cold () =
  let trace = tr [ r "A" 0; r "A" 1; r "A" 0; w "B" 0; r "B" 0 ] in
  let s = C.cold trace in
  Alcotest.(check int) "loads" 2 s.loads;
  Alcotest.(check int) "hits" 2 s.read_hits;
  Alcotest.(check int) "stores (dirty B)" 1 s.stores

let test_lru_eviction () =
  (* size 2; A0 A1 A2 evicts A0 (LRU); rereading A0 misses. *)
  let trace = tr [ r "A" 0; r "A" 1; r "A" 2; r "A" 0 ] in
  let s = C.lru ~size:2 trace in
  Alcotest.(check int) "loads" 4 s.loads;
  Alcotest.(check int) "hits" 0 s.read_hits

let test_opt_beats_lru () =
  (* size 2; A0 A1 A2 A1: OPT evicts A0 when loading A2 (A1 reused sooner is
     kept... actually OPT keeps A1 because its next use is nearer), so A1
     hits; LRU evicts A0 as well here, so craft a case where they differ:
     A0 A1 A2 A0 with size 2: LRU evicts A0 at A2 -> miss on A0;
     OPT evicts A1 (never used again) -> hit on A0. *)
  let trace = tr [ r "A" 0; r "A" 1; r "A" 2; r "A" 0 ] in
  let lru = C.lru ~size:2 trace and opt = C.opt ~size:2 trace in
  Alcotest.(check int) "lru loads" 4 lru.loads;
  Alcotest.(check int) "opt loads" 3 opt.loads

let test_write_allocate_no_fetch () =
  (* Writes do not count as loads, but dirty evictions count as stores. *)
  let trace = tr [ w "A" 0; w "A" 1; w "A" 2; r "A" 0 ] in
  let s = C.lru ~size:2 trace in
  Alcotest.(check int) "loads (A0 evicted, reloaded)" 1 s.loads;
  Alcotest.(check int) "stores (dirty evictions A0, A1; A2 at the flush)" 3
    s.stores

let test_opt_dead_value () =
  (* A value overwritten before re-read is dead: OPT evicts it first. *)
  let trace = tr [ r "A" 0; r "A" 1; r "A" 2; w "A" 1; r "A" 0 ] in
  (* size 2: at (r A2), A1's next access is a write -> dead -> evict A1,
     keep A0 -> final r A0 hits. *)
  let s = C.opt ~size:2 trace in
  Alcotest.(check int) "loads" 3 s.loads

let random_trace_gen =
  let open QCheck2.Gen in
  list_size (int_range 1 200)
    (map2
       (fun k is_w -> if is_w then w "A" k else r "A" k)
       (int_range 0 12) bool)

let prop name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:200 random_trace_gen f)

let suite =
  [
    Alcotest.test_case "cold misses" `Quick test_cold;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction;
    Alcotest.test_case "opt beats lru on Belady's example" `Quick
      test_opt_beats_lru;
    Alcotest.test_case "write-allocate without fetch" `Quick
      test_write_allocate_no_fetch;
    Alcotest.test_case "opt exploits dead values" `Quick test_opt_dead_value;
    prop "cold <= opt <= lru (loads)" (fun events ->
        let trace = tr events in
        let cold = (C.cold trace).loads in
        let opt = (C.opt ~size:4 trace).loads in
        let lru = (C.lru ~size:4 trace).loads in
        cold <= opt && opt <= lru);
    prop "bigger cache never hurts LRU (inclusion)" (fun events ->
        let trace = tr events in
        (C.lru ~size:8 trace).loads <= (C.lru ~size:4 trace).loads);
    prop "bigger cache never hurts OPT" (fun events ->
        let trace = tr events in
        (C.opt ~size:8 trace).loads <= (C.opt ~size:4 trace).loads);
    prop "huge cache = cold misses" (fun events ->
        let trace = tr events in
        (C.lru ~size:10_000 trace).loads = (C.cold trace).loads
        && (C.opt ~size:10_000 trace).loads = (C.cold trace).loads);
    prop "opt = naive Belady reference (sizes 1-13)" (fun events ->
        let trace = tr events in
        let plan = C.opt_plan trace in
        List.for_all
          (fun size ->
            C.opt_run ~size plan = Iolb_check.Opt_ref.run ~size trace)
          (List.init 13 succ));
    prop "loads + hits = reads" (fun events ->
        let reads =
          List.length
            (List.filter (function T.Read _ -> true | _ -> false) events)
        in
        let s = C.lru ~size:4 (tr events) in
        s.loads + s.read_hits = reads);
  ]
