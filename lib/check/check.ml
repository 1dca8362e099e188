module Budget = Iolb_util.Budget
module Json = Iolb_util.Json
module D = Iolb.Derive

type failure = {
  seed : int;
  prop : string;
  detail : string;
  spec : Spec.t;
  shrunk : Spec.t;
  shrunk_detail : string;
  shrunk_source : string;
  shrink_steps : int;
}

type coverage = {
  nest_specs : int;
  hourglass_specs : int;
  hourglass_detected : int;
  hourglass_bounds : int;
  classical_bounds : int;
}

type report = {
  base_seed : int;
  count : int;
  props : string list;
  passed : int;
  failed : int;
  skipped : int;
  budget_skips : int;
  failures : failure list;
  coverage : coverage;
}

let zero_coverage =
  {
    nest_specs = 0;
    hourglass_specs = 0;
    hourglass_detected = 0;
    hourglass_bounds = 0;
    classical_bounds = 0;
  }

(* Evaluate one oracle on one spec under a fresh budget.  Budget
   exhaustion is a degradation, not a counterexample: the engines
   advertise it as a typed, expected outcome, so the certifier records a
   skip. *)
let eval_prop ~budget oracle spec =
  match
    let ctx = Oracle.make_ctx ~budget:(budget ()) spec in
    Oracle.run oracle ctx
  with
  | outcome -> outcome
  | exception Budget.Exhausted stage ->
      Oracle.Skip ("budget exhausted: " ^ Budget.stage_name stage)

(* Does [oracle] still fail on [spec]?  Used as the shrinking predicate;
   a candidate that runs out of budget or merely skips does not count as
   reproducing the failure. *)
let fails_with ~budget oracle spec =
  match eval_prop ~budget oracle spec with
  | Oracle.Fail _ -> true
  | Oracle.Pass | Oracle.Skip _ -> false

let fail_detail ~budget oracle spec =
  match eval_prop ~budget oracle spec with
  | Oracle.Fail d -> d
  | Oracle.Pass | Oracle.Skip _ -> "not reproduced"

(* Coverage accounting per spec.  For hourglass-family specs the
   detection and derivation are forced even when no selected property
   needs them, so the coverage counters are meaningful for any [--props]
   selection. *)
let cover ~budget cov spec =
  match spec with
  | Spec.Nest _ -> { cov with nest_specs = cov.nest_specs + 1 }
  | Spec.Hourglass _ -> (
      let cov = { cov with hourglass_specs = cov.hourglass_specs + 1 } in
      match
        let ctx = Oracle.make_ctx ~budget:(budget ()) spec in
        (Oracle.ctx_hourglasses ctx, Oracle.ctx_bounds ctx)
      with
      | exception Budget.Exhausted _ -> cov
      | hgs, bounds ->
          let has t =
            List.exists (fun (b : D.t) -> b.D.technique = t) bounds
          in
          let cov =
            if hgs <> [] then
              { cov with hourglass_detected = cov.hourglass_detected + 1 }
            else cov
          in
          let cov =
            if has D.Hourglass || has D.Hourglass_small_s then
              { cov with hourglass_bounds = cov.hourglass_bounds + 1 }
            else cov
          in
          if has D.Classical then
            { cov with classical_bounds = cov.classical_bounds + 1 }
          else cov)

(* Counterexamples kept (and shrunk) per run. *)
let max_failures = 5

let run ?(budget = fun () -> Budget.unlimited) ~count ~seed ~props () =
  let passed = ref 0
  and failed = ref 0
  and skipped = ref 0
  and budget_skips = ref 0 in
  let failures = ref [] in
  let coverage = ref zero_coverage in
  for s = seed to seed + count - 1 do
    let spec = Gen.spec ~seed:s in
    coverage := cover ~budget !coverage spec;
    List.iter
      (fun (oracle : Oracle.t) ->
        match eval_prop ~budget oracle spec with
        | Oracle.Pass -> incr passed
        | Oracle.Skip reason ->
            incr skipped;
            if String.length reason >= 6 && String.sub reason 0 6 = "budget"
            then incr budget_skips
        | Oracle.Fail detail ->
            incr failed;
            if List.length !failures < max_failures then (
              let shrunk, shrink_steps =
                Shrink.minimize ~fails:(fails_with ~budget oracle) spec
              in
              let shrunk_detail =
                if Spec.equal shrunk spec then detail
                else fail_detail ~budget oracle shrunk
              in
              (* The minimal counterexample as a saveable .iolb source,
                 so a failure replays through the textual front end too. *)
              let shrunk_source =
                let prog, params = Spec.to_program shrunk in
                Iolb_lang.Front.print ~verify:params prog
              in
              failures :=
                {
                  seed = s;
                  prop = oracle.Oracle.name;
                  detail;
                  spec;
                  shrunk;
                  shrunk_detail;
                  shrunk_source;
                  shrink_steps;
                }
                :: !failures))
      props
  done;
  {
    base_seed = seed;
    count;
    props = List.map (fun (o : Oracle.t) -> o.Oracle.name) props;
    passed = !passed;
    failed = !failed;
    skipped = !skipped;
    budget_skips = !budget_skips;
    failures = List.rev !failures;
    coverage = !coverage;
  }

let ok r = r.failed = 0

let failure_to_json f =
  Json.Obj
    [
      ("seed", Json.Int f.seed);
      ("prop", Json.String f.prop);
      ("detail", Json.String f.detail);
      ("spec", Spec.to_json f.spec);
      ("shrunk", Spec.to_json f.shrunk);
      ("shrunk_detail", Json.String f.shrunk_detail);
      ("shrunk_source", Json.String f.shrunk_source);
      ("shrink_steps", Json.Int f.shrink_steps);
      ( "replay",
        Json.String (Printf.sprintf "iolb check --seed %d --count 1" f.seed) );
    ]

let to_json r =
  Json.Obj
    [
      ("seed", Json.Int r.base_seed);
      ("count", Json.Int r.count);
      ("props", Json.List (List.map (fun p -> Json.String p) r.props));
      ("passed", Json.Int r.passed);
      ("failed", Json.Int r.failed);
      ("skipped", Json.Int r.skipped);
      ("budget_skips", Json.Int r.budget_skips);
      ("failures", Json.List (List.map failure_to_json r.failures));
      ( "coverage",
        Json.Obj
          [
            ("nest_specs", Json.Int r.coverage.nest_specs);
            ("hourglass_specs", Json.Int r.coverage.hourglass_specs);
            ("hourglass_detected", Json.Int r.coverage.hourglass_detected);
            ("hourglass_bounds", Json.Int r.coverage.hourglass_bounds);
            ("classical_bounds", Json.Int r.coverage.classical_bounds);
          ] );
      ("ok", Json.Bool (ok r));
    ]

let pp fmt r =
  Format.fprintf fmt
    "@[<v>check: %d specs from seed %d, %d properties@,\
     passed %d, failed %d, skipped %d (%d on budget)@,\
     coverage: %d nest / %d hourglass specs; %d detected, %d hourglass \
     bounds, %d classical bounds@]"
    r.count r.base_seed (List.length r.props) r.passed r.failed r.skipped
    r.budget_skips r.coverage.nest_specs r.coverage.hourglass_specs
    r.coverage.hourglass_detected r.coverage.hourglass_bounds
    r.coverage.classical_bounds;
  List.iter
    (fun f ->
      Format.fprintf fmt
        "@,@[<v2>FAIL seed %d, property %s:@,%s@,spec: %s@,shrunk (%d \
         steps): %s@,on shrunk: %s@,reproducer (save as FAIL.iolb, rerun \
         with iolb bounds --file FAIL.iolb):"
        f.seed f.prop f.detail (Spec.to_string f.spec) f.shrink_steps
        (Spec.to_string f.shrunk) f.shrunk_detail;
      List.iter
        (fun line -> Format.fprintf fmt "@,  %s" line)
        (String.split_on_char '\n' (String.trim f.shrunk_source));
      Format.fprintf fmt "@]")
    r.failures
