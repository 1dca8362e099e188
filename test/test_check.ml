(* The certifier subsystem itself: deterministic seed->spec mapping,
   driver reports, structural shrinking, the fault-injection
   (deliberately broken oracle) path, and the JSON failure artifact. *)

module Check = Iolb_check.Check
module Gen = Iolb_check.Gen
module Oracle = Iolb_check.Oracle
module Shrink = Iolb_check.Shrink
module Spec = Iolb_check.Spec
module Json = Iolb_util.Json
module Budget = Iolb_util.Budget

let run ?budget ?(count = 30) ?(seed = 42) ?(props = Oracle.all) () =
  Check.run ?budget ~count ~seed ~props ()

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let has_substring ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* --- determinism --------------------------------------------------- *)

let seed_determinism () =
  for seed = 0 to 200 do
    Alcotest.(check bool)
      (Printf.sprintf "seed %d maps to one spec" seed)
      true
      (Spec.equal (Gen.spec ~seed) (Gen.spec ~seed))
  done;
  (* The splitmix64 stream is version-independent; pin one draw so a silent
     generator change (which would re-map every seed) fails loudly. *)
  let r = Gen.rng ~seed:42 in
  Alcotest.(check int) "pinned first draw" 3 (Gen.int_range r 0 9)

let report_determinism () =
  let j r = Json.to_string (Check.to_json r) in
  Alcotest.(check string)
    "identical reports for identical runs" (j (run ())) (j (run ()))

(* --- the default registry on a healthy engine ---------------------- *)

let default_props_pass () =
  let r = run ~count:60 () in
  Alcotest.(check int) "no counterexamples" 0 r.Check.failed;
  Alcotest.(check bool) "both families generated" true
    (r.Check.coverage.Check.nest_specs > 0
    && r.Check.coverage.Check.hourglass_specs > 0);
  (* The acceptance criterion: the hourglass-bearing family provably
     reaches the hourglass derivation path. *)
  Alcotest.(check int) "every hourglass spec is detected"
    r.Check.coverage.Check.hourglass_specs
    r.Check.coverage.Check.hourglass_detected;
  Alcotest.(check int) "every detected hourglass yields a bound"
    r.Check.coverage.Check.hourglass_detected
    r.Check.coverage.Check.hourglass_bounds

let find_props () =
  (match Oracle.find "card, sweep-lru" with
  | Ok [ a; b ] ->
      Alcotest.(check string) "first" "card" a.Oracle.name;
      Alcotest.(check string) "second" "sweep-lru" b.Oracle.name
  | Ok _ | Error _ -> Alcotest.fail "expected exactly two properties");
  (match Oracle.find "default" with
  | Ok ps ->
      Alcotest.(check int) "default = full registry" (List.length Oracle.all)
        (List.length ps)
  | Error e -> Alcotest.fail e);
  match Oracle.find "nosuch" with
  | Ok _ -> Alcotest.fail "unknown property accepted"
  | Error msg ->
      Alcotest.(check bool) "error names the property" true
        (has_substring ~sub:"nosuch" msg)

(* --- budgets degrade to skips, never to failures -------------------- *)

let budget_degrades () =
  let budget () = Budget.make ~max_steps:200 () in
  let r = run ~budget ~count:10 () in
  Alcotest.(check int) "no counterexamples under a tiny budget" 0
    r.Check.failed;
  Alcotest.(check bool) "some checks were budget-skipped" true
    (r.Check.budget_skips > 0)

(* --- fault injection: a broken oracle must be caught ---------------- *)

let fault_injection () =
  let r = run ~count:4 ~seed:7 ~props:[ Oracle.demo_broken ] () in
  Alcotest.(check bool) "counterexamples found" true (not (Check.ok r));
  Alcotest.(check int) "every spec fails" 4 r.Check.failed;
  List.iter
    (fun (f : Check.failure) ->
      Alcotest.(check string) "failing property" "demo-broken" f.Check.prop;
      Alcotest.(check bool) "shrunk spec is no larger" true
        (Spec.size f.Check.shrunk <= Spec.size f.Check.spec);
      (* The shrunk spec must still fail the same oracle. *)
      let ctx = Oracle.make_ctx f.Check.shrunk in
      match Oracle.run Oracle.demo_broken ctx with
      | Oracle.Fail _ -> ()
      | Oracle.Pass | Oracle.Skip _ ->
          Alcotest.fail "shrunk spec no longer fails")
    r.Check.failures

let shrink_reaches_minimum () =
  (* With an always-failing predicate the shrinker must reach the floor of
     each family (no candidate is strictly smaller). *)
  List.iter
    (fun seed ->
      let spec = Gen.spec ~seed in
      let shrunk, _steps = Shrink.minimize ~fails:(fun _ -> true) spec in
      Alcotest.(check int)
        (Printf.sprintf "seed %d shrinks to the family floor" seed)
        0
        (List.length (Shrink.candidates shrunk)))
    [ 7; 8; 42 ]

let shrink_candidates_smaller () =
  List.iter
    (fun seed ->
      let spec = Gen.spec ~seed in
      List.iter
        (fun c ->
          Alcotest.(check bool) "strictly smaller" true
            (Spec.size c < Spec.size spec);
          (* Every candidate is still a valid program. *)
          let prog, params = Spec.to_program c in
          Alcotest.(check bool) "instantiable" true
            (List.length (Iolb_check.Interp.instances ~params prog) >= 0))
        (Shrink.candidates spec))
    [ 0; 1; 2; 3; 4; 5 ]

(* --- the JSON failure artifact -------------------------------------- *)

let json_artifact () =
  let r = run ~count:2 ~seed:7 ~props:[ Oracle.demo_broken ] () in
  let text = Json.to_string_pretty (Check.to_json r) in
  match Json.of_string text with
  | Error e -> Alcotest.fail ("artifact does not re-parse: " ^ e)
  | Ok v ->
      Alcotest.(check bool) "ok flag is false" true
        (Json.member "ok" v = Some (Json.Bool false));
      (match Json.member "failures" v with
      | Some (Json.List (f :: _)) ->
          Alcotest.(check bool) "failure carries a replay line" true
            (match Json.member "replay" f with
            | Some (Json.String s) -> has_prefix ~prefix:"iolb check --seed" s
            | _ -> false);
          Alcotest.(check bool) "failure carries the shrunk spec" true
            (Json.member "shrunk" f <> None)
      | _ -> Alcotest.fail "artifact lists no failures");
      (match Json.member "coverage" v with
      | Some (Json.Obj _) -> ()
      | _ -> Alcotest.fail "artifact has no coverage object")

let suite =
  [
    Alcotest.test_case "seed -> spec is deterministic" `Quick seed_determinism;
    Alcotest.test_case "reports are deterministic" `Quick report_determinism;
    Alcotest.test_case "default registry passes" `Quick default_props_pass;
    Alcotest.test_case "--props resolution" `Quick find_props;
    Alcotest.test_case "budgets degrade to skips" `Quick budget_degrades;
    Alcotest.test_case "fault injection is caught and shrunk" `Quick
      fault_injection;
    Alcotest.test_case "shrinking reaches the family floor" `Quick
      shrink_reaches_minimum;
    Alcotest.test_case "shrink candidates are smaller valid specs" `Quick
      shrink_candidates_smaller;
    Alcotest.test_case "JSON failure artifact round-trips" `Quick
      json_artifact;
  ]
