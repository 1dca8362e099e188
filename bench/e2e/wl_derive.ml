(* derive: what [iolb bounds --file] does, one program per op.  The front
   end and the core do all the work and pebble and serve none, so a change
   confined to those must leave this workload unmoved. *)

module Budget = Iolb_util.Budget
module Engine_error = Iolb_util.Engine_error
module Front = Iolb_front.Front
module Driver = Iolb_front.Driver
module Report = Iolb.Report
module Derive = Iolb.Derive
module Hourglass = Iolb.Hourglass
module PF = Iolb.Paper_formulas
module Ratfun = Iolb_symbolic.Ratfun

let parse (p : Programs.t) =
  match Front.parse_string ~file:p.file p.text with
  | Ok src -> Ok src
  | Error d -> Error (Engine_error.to_string (Iolb_front.Diag.to_engine_error d))

(* The untraced op: exactly the CLI's path. *)
let render (p : Programs.t) =
  Result.bind (parse p) (fun src ->
      Driver.render_source ~budget:(Budget.make ()) ~logs:false src
      |> Result.map_error Engine_error.to_string)

let stage_delta budget stage f =
  let before = Budget.stage_steps budget stage in
  let x = f () in
  (x, float_of_int (Budget.stage_steps budget stage - before))

(* The traced op: [Driver.render_source] taken apart into the public calls
   it makes, each in its own span, under a counting budget.  Registry
   programs run detection and verification twice, as [render_source] does (once
   for the report's pattern list, once inside the degradation ladder).
   Returns the report and the finalized bounds. *)
let render_traced (p : Programs.t) =
  let budget = Budget.make ~max_steps:max_int () in
  let src = Spans.span ~layer:"front" "parse" (fun () -> parse p) in
  Spans.count "front.parse.bytes" (float_of_int (String.length p.text));
  Result.bind src @@ fun (src : Front.source) ->
  Engine_error.guard (fun () ->
      let program = src.program and params = src.verify in
      let entry = Spans.span ~layer:"front" "resolve" (fun () -> Driver.resolve src) in
      let detect_verified () =
        let candidates =
          Spans.span ~layer:"core" "detect" (fun () -> Hourglass.detect program)
        in
        Spans.count "core.detect.candidates" (float_of_int (List.length candidates));
        List.filter
          (fun h ->
            let kept, steps =
              stage_delta budget Budget.Cdag_build (fun () ->
                  Spans.span ~layer:"core" "verify" (fun () ->
                      Hourglass.verify ~budget ~params program h))
            in
            Spans.count "core.verify.cdag_steps" steps;
            if kept then Spans.count "core.verify.kept" 1.;
            kept)
          candidates
      in
      let shown = if entry = None then [] else detect_verified () in
      let hg_bounds =
        List.concat_map
          (fun h ->
            let bounds, steps =
              stage_delta budget Budget.Derivation (fun () ->
                  Spans.span ~layer:"core" "hourglass" (fun () ->
                      Derive.hourglass ~budget program h))
            in
            Spans.count "core.hourglass.derivation_steps" steps;
            bounds)
          (detect_verified ())
      in
      let classical, steps =
        stage_delta budget Budget.Derivation (fun () ->
            Spans.span ~layer:"core" "classical" (fun () ->
                Derive.classical_deepest ~budget program))
      in
      Spans.count "core.classical.derivation_steps" steps;
      (* The ladder's last rung and its notes, as [Derive.analyze_ladder]
         words them. *)
      let outcome =
        match hg_bounds @ classical with
        | _ :: _ as bounds -> { Derive.bounds; degradation = None }
        | [] -> (
            match Spans.span ~layer:"core" "trivial" (fun () -> Derive.trivial program) with
            | Some b ->
                {
                  Derive.bounds = [ b ];
                  degradation = Some "degraded to the trivial input-footprint bound";
                }
            | None ->
                {
                  Derive.bounds = [];
                  degradation =
                    Some
                      "no bound derivable (no hourglass; Brascamp-Lieb \
                       exponent <= 1; no recognizable input array)";
                })
      in
      let text, bounds =
        Spans.span ~layer:"core" "render" (fun () ->
            match entry with
            | None -> (Driver.render_outcome ~logs:false outcome, outcome.bounds)
            | Some entry ->
                let finalize (b : Derive.t) =
                  let valid =
                    {
                      Derive.s_lo = entry.finalize b.valid.s_lo;
                      s_hi = Option.map entry.finalize b.valid.s_hi;
                    }
                  in
                  {
                    b with
                    formula = entry.finalize b.formula;
                    valid;
                    validity = Derive.region_validity valid;
                    s_max = valid.s_hi;
                  }
                in
                let bounds = List.map finalize outcome.bounds in
                ( Driver.render_analysis ~logs:false
                    { Report.entry; hourglasses = shown; bounds; degradation = outcome.degradation },
                  bounds ))
      in
      Spans.count "core.render.bytes" (float_of_int (String.length text));
      (text, bounds))
  |> Result.map_error Engine_error.to_string

(* Independent of the goldens: MGS's hourglass bounds are Theorem 5's
   closed forms. *)
let check_mgs programs =
  let mgs = Array.to_list programs |> List.find (fun (p : Programs.t) -> p.name = "mgs") in
  match render_traced mgs with
  | Error e -> Workload.fail "derive mgs: %s" e
  | Ok (_, bounds) ->
      let formula tech =
        List.find_opt (fun (b : Derive.t) -> b.technique = tech) bounds
        |> Option.map (fun (b : Derive.t) -> b.formula)
      in
      let equal f g = match f with Some f -> Ratfun.equal f g | None -> false in
      Workload.expect
        (equal (formula Derive.Hourglass) (PF.theorem_main PF.Mgs))
        "derive mgs: hourglass bound differs from Theorem 5";
      Workload.expect
        (equal (formula Derive.Hourglass_small_s) (Option.get (PF.theorem_small PF.Mgs)))
        "derive mgs: small-cache bound differs from Theorem 5"

let setup (cfg : Workload.config) =
  let programs = Programs.load ~root:cfg.root in
  let golden =
    Array.map
      (fun (p : Programs.t) ->
        Util.read_file (Filename.concat cfg.root ("bench/e2e/golden/derive/" ^ p.name ^ ".txt")))
      programs
  in
  check_mgs programs;
  let check k = function
    | Ok text when text = golden.(k) -> true
    | Ok _ ->
        Workload.fail "derive %s: report differs from golden" programs.(k).name;
        false
    | Error e ->
        Workload.fail "derive %s: %s" programs.(k).name e;
        false
  in
  let run ~traced k =
    let p = programs.(k) in
    let out, ms =
      Util.timed (fun () ->
          if traced then Result.map fst (render_traced p) else render p)
    in
    { Workload.kind = p.name; ms; ok = check k out }
  in
  Array.iteri (fun k _ -> ignore (run ~traced:false k)) programs;
  (* The three QR-family paper kernels weigh double.  With 17 ops a round
     each reported percentile lands inside one program's band, clear of
     its neighbours: p50 in Cholesky's, p90 in GEBD2's, p99 in GEHD2's. *)
  let doubled = [ "mgs"; "qr_hh_a2v"; "qr_hh_v2q" ] in
  let round =
    Array.init (Array.length programs) Fun.id
    |> Array.to_list
    |> List.concat_map (fun k -> if List.mem programs.(k).name doubled then [ k; k ] else [ k ])
    |> Array.of_list
  in
  let op = Workload.sequence ~seed:cfg.seed round in
  {
    Workload.callers = 1;
    round = Array.length round;
    op = (fun ~traced ~caller:_ i -> run ~traced (op i));
    check = ignore;
    layers = (fun _ -> []);
    extras = (fun _ _ -> []);
    teardown = ignore;
  }

let workload = { Workload.name = "derive"; setup }
