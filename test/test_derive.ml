(* The centrepiece integration tests: the automatically derived bounds must
   (1) reproduce the paper's closed-form theorems where stated exactly
   (MGS/Theorem 5), (2) match the paper's asymptotic shapes on all kernels,
   and (3) never exceed the I/O actually measured for valid schedules - the
   lower-bound sandwich. *)

module D = Iolb.Derive
module R = Iolb_symbolic.Ratfun
module P = Iolb_symbolic.Polynomial
module PF = Iolb.Paper_formulas
module Report = Iolb.Report
module Game = Iolb_pebble.Game
module Cdag = Iolb_cdag.Cdag

let analysis name = Report.analyze (Report.find name)

let find_bound (a : Report.analysis) tech =
  List.find (fun (b : D.t) -> b.technique = tech) a.bounds

let test_mgs_theorem5_exact () =
  let a = analysis "mgs" in
  let main = find_bound a D.Hourglass in
  Alcotest.(check bool)
    "main bound = M^2 N(N-1) / (8(S+M))" true
    (R.equal main.formula (PF.theorem_main PF.Mgs));
  let small = find_bound a D.Hourglass_small_s in
  Alcotest.(check bool)
    "small-cache bound = (M-S) N(N-1) / 4" true
    (R.equal small.formula (Option.get (PF.theorem_small PF.Mgs)))

let close ~tol a b = Float.abs (a -. b) <= tol *. Float.max (Float.abs a) (Float.abs b)

let test_theorem_shapes () =
  (* On every kernel, the engine's hourglass bound stays within a constant
     factor of the paper's theorem formula across a wide grid; the factor
     may differ from 1 (the engine's and the paper's accounting of
     sub-leading terms differ) but must be bounded and stable. *)
  List.iter
    (fun (kernel, lo, hi) ->
      let entry = Report.find (PF.kernel_name kernel) in
      let a = Report.analyze entry in
      List.iter
        (fun (m, n, s) ->
          match Report.eval_best a ~technique:`Hourglass ~m ~n ~s with
          | None -> Alcotest.failf "no hourglass bound for %s" entry.display
          | Some engine ->
              (* The paper's best applicable bound: the main theorem, or its
                 small-cache variant where one is stated and larger. *)
              let paper =
                let main = PF.eval_at (PF.theorem_main kernel) ~m ~n ~s in
                let small_applicable =
                  (* MGS's variant needs S <= M; GEHD2's needs N >> S. *)
                  match kernel with
                  | PF.Mgs -> s <= m
                  | PF.Gehd2 -> 2 * s <= n
                  | _ -> false
                in
                match PF.theorem_small kernel with
                | Some f when small_applicable ->
                    Float.max main (PF.eval_at f ~m ~n ~s)
                | _ -> main
              in
              let ratio = engine /. paper in
              Alcotest.(check bool)
                (Printf.sprintf "%s m=%d n=%d s=%d ratio=%.3f in [%.2f, %.2f]"
                   entry.display m n s ratio lo hi)
                true
                (ratio >= lo && ratio <= hi))
        entry.grid)
    [
      (PF.Mgs, 0.9, 1.6);
      (PF.A2v, 0.5, 10.);
      (PF.V2q, 0.5, 10.);
      (PF.Gebd2, 0.5, 10.);
      (PF.Gehd2, 0.5, 10.);
    ]

let test_improvement_ratio_parametric () =
  (* Section 5.1: for M << S the new bound improves on the classical one by
     Theta(M / sqrt S): the measured improvement must grow linearly with M
     at fixed S. *)
  let a = analysis "mgs" in
  let ratio m s =
    let hg = Option.get (Report.eval_best a ~technique:`Hourglass ~m ~n:32 ~s) in
    let cl = Option.get (Report.eval_best a ~technique:`Classical ~m ~n:32 ~s) in
    hg /. cl
  in
  let s = 65536 in
  let r1 = ratio 256 s and r2 = ratio 512 s and r4 = ratio 1024 s in
  Alcotest.(check bool)
    (Printf.sprintf "ratio doubles with M (%.2f %.2f %.2f)" r1 r2 r4)
    true
    (close ~tol:0.25 (r2 /. r1) 2. && close ~tol:0.25 (r4 /. r2) 2.)

let test_gemm_classical_shape () =
  (* The baseline: gemm gets the classical Theta(MNK / sqrt S) bound and no
     hourglass bound. *)
  let bounds = Programs.bounds "gemm" in
  Alcotest.(check bool) "only classical" true
    (List.for_all (fun (b : D.t) -> b.technique = D.Classical) bounds);
  let b = List.hd bounds in
  let at m n k s =
    D.eval b ~params:[ ("M", m); ("N", n); ("K", k) ] ~s
  in
  (* Quadrupling S halves the bound (1/sqrt S shape). *)
  Alcotest.(check bool) "1/sqrt(S) scaling" true
    (close ~tol:0.01 (at 64 64 64 256 /. at 64 64 64 1024) 2.)

(* The sandwich: a lower bound must never exceed the I/O of any valid
   schedule, measured exactly by the pebble game. *)
let test_sandwich_pebble_game () =
  List.iter
    (fun (name, params, m, n, ss) ->
      let entry = Report.find name in
      let a = Report.analyze entry in
      let cdag = Cdag.of_program ~params entry.program in
      List.iter
        (fun s ->
          let schedules =
            Game.program_schedule cdag
            :: List.map (fun seed -> Game.random_topological ~seed cdag) [ 1; 2 ]
          in
          List.iter
            (fun schedule ->
              let measured =
                (Game.run_plan (Game.plan cdag ~schedule) ~s).loads
              in
              List.iter
                (fun tech ->
                  match Report.eval_best a ~technique:tech ~m ~n ~s with
                  | None -> ()
                  | Some bound ->
                      Alcotest.(check bool)
                        (Printf.sprintf "%s s=%d: bound %.1f <= measured %d"
                           name s bound measured)
                        true
                        (bound <= float_of_int measured +. 1e-9))
                [ `Classical; `Hourglass ])
            schedules)
        ss)
    [
      ("mgs", [ ("M", 10); ("N", 6) ], 10, 6, [ 12; 16; 24 ]);
      ("qr_hh_a2v", [ ("M", 10); ("N", 6) ], 10, 6, [ 12; 16; 24 ]);
      ("qr_hh_v2q", [ ("M", 10); ("N", 6) ], 10, 6, [ 12; 16; 24 ]);
      ("gebd2", [ ("M", 10); ("N", 6) ], 10, 6, [ 12; 16; 24 ]);
      ("gehd2", [ ("N", 10); ("M", 4) ], 0, 10, [ 12; 16; 24 ]);
    ]

(* Upper bound side: the tiled MGS ordering's measured I/O must lie above
   the derived lower bound and below the paper's predicted cost envelope. *)
let test_sandwich_tiled_mgs () =
  let m = 24 and n = 16 in
  let a = analysis "mgs" in
  List.iter
    (fun s ->
      let b = Iolb.Upper_bounds.paper_block ~m ~n ~s in
      let spec = Iolb_kernels.Mgs.tiled_spec ~m ~n ~b in
      let trace = Iolb_pebble.Trace.of_program ~params:[] spec in
      let stats = Iolb_pebble.Cache.opt ~size:s trace in
      let lower = Option.get (Report.eval_best a ~technique:`Hourglass ~m ~n ~s) in
      Alcotest.(check bool)
        (Printf.sprintf "s=%d: LB %.1f <= tiled loads %d" s lower stats.loads)
        true
        (lower <= float_of_int stats.loads +. 1e-9))
    [ 32; 64; 128 ]

(* classical_deepest must (1) derive only for the statements at the
   maximal loop depth - the ones whose instance count dominates - and
   (2) cover every statement tied at that depth. *)
let test_classical_deepest_filters_depth () =
  let module A = Iolb_poly.Affine in
  let module Access = Iolb_ir.Access in
  let module Program = Iolb_ir.Program in
  let v = A.var and c = A.const in
  let deep name out =
    Program.stmt name
      ~writes:[ Access.make out [ v "i"; v "j" ] ]
      ~reads:
        [
          Access.make "A" [ v "i"; v "k" ];
          Access.make "B" [ v "k"; v "j" ];
          Access.make out [ v "i"; v "j" ];
        ]
  in
  let prog =
    Program.make ~name:"deepest" ~params:[ "N" ]
      ~assumptions:[ Iolb_poly.Constr.ge_of (v "N") (c 1) ]
      [
        Program.loop_lt "i" (c 0) (v "N")
          [
            Program.loop_lt "j" (c 0) (v "N")
              [
                Program.loop_lt "k" (c 0) (v "N") [ deep "C" "C1"; deep "D" "D1" ];
              ];
            (* depth 1: must not contribute a classical bound *)
            Program.stmt "H"
              ~writes:[ Access.make "E" [ v "i" ] ]
              ~reads:[ Access.make "F" [ v "i" ] ];
          ];
      ]
  in
  let bounds = D.classical_deepest prog in
  let stmts = List.sort compare (List.map (fun (b : D.t) -> b.stmt) bounds) in
  Alcotest.(check (list string))
    "one bound per deepest statement, none for the shallow one"
    [ "C"; "D" ] stmts;
  List.iter
    (fun (b : D.t) ->
      Alcotest.(check bool) "classical technique" true
        (b.technique = D.Classical);
      Alcotest.(check bool) "unconditional" true (b.s_max = None);
      (* A GEMM-shaped statement has rho = 3/2: the bound at N=32, S=16
         must be positive and sit near N^3/sqrt(S) in order of magnitude. *)
      let value = D.eval b ~params:[ ("N", 32) ] ~s:16 in
      Alcotest.(check bool)
        (Printf.sprintf "%s bound positive (%.1f)" b.stmt value)
        true (value > 0.))
    bounds

let test_classical_deepest_matches_registry () =
  (* On the paper kernels the classical half of [analyze] is exactly
     [classical_deepest]: same statements, same formulas. *)
  List.iter
    (fun (entry : Report.entry) ->
      let a = Report.analyze entry in
      let from_analyze =
        List.filter (fun (b : D.t) -> b.technique = D.Classical) a.bounds
      in
      (* [analyze] post-processes every formula with the entry's
         [finalize] (e.g. GEHD2 pins the loop-split parameter); apply it
         to the direct derivation before comparing. *)
      let direct =
        List.map
          (fun (b : D.t) -> { b with D.formula = entry.finalize b.formula })
          (D.classical_deepest entry.program)
      in
      Alcotest.(check int)
        (entry.display ^ ": same classical bound count")
        (List.length direct) (List.length from_analyze);
      List.iter2
        (fun (x : D.t) (y : D.t) ->
          Alcotest.(check string) "same statement" x.stmt y.stmt;
          Alcotest.(check bool) "same formula" true (R.equal x.formula y.formula))
        direct from_analyze)
    Report.registry

(* A synthetic bound over a single split parameter, for exercising the
   split search without the full derivation pipeline. *)
let synthetic_bound formula =
  {
    D.program = "synthetic";
    stmt = "T";
    technique = D.Classical;
    formula;
    validity = "any S >= 1";
    valid = { D.s_lo = R.one; s_hi = None };
    s_max = None;
    log = [];
  }

let test_optimize_split_tie_break () =
  (* The documented contract: the first candidate (in list order) attaining
     the maximum wins.  f(M) = 100 - (M-2)^2 (M-6)^2 has two exact maxima
     (value 100 at M = 2 and M = 6); a constant formula ties every
     candidate. *)
  let sq p = P.mul p p in
  let shifted k = P.sub (P.var "M") (P.of_int k) in
  let two_peaks =
    R.of_poly (P.sub (P.of_int 100) (P.mul (sq (shifted 2)) (sq (shifted 6))))
  in
  let flat = R.of_int 7 in
  (match
     D.optimize_split (synthetic_bound two_peaks) ~param:"M"
       ~candidates:[ 1; 2; 3; 4; 5; 6; 7; 8 ] ~params:[] ~s:4
   with
  | Some (m, v) ->
      Alcotest.(check int) "first of the two peaks" 2 m;
      Alcotest.(check (float 0.)) "peak value" 100. v
  | None -> Alcotest.fail "two-peak search found nothing");
  match
    D.optimize_split (synthetic_bound flat) ~param:"M" ~candidates:[ 3; 1; 5 ]
      ~params:[] ~s:4
  with
  | Some (m, v) ->
      (* All candidates tie: list order decides, not numeric order. *)
      Alcotest.(check int) "first listed candidate wins the tie" 3 m;
      Alcotest.(check (float 0.)) "tie value" 7. v
  | None -> Alcotest.fail "flat search found nothing"

(* [best_regions] against a per-S scan of [best], on every call the bench
   prints: each paper kernel at its largest grid point over all its
   bounds (the sqrtS classical ones included), S in [1, 4096], and
   THM5's MGS hourglass pair at M = 1024, N = 256, S in [1, 8192].  The
   ranges must tile the S range in order and name, at every S, exactly
   the bound [best] picks there.  [best_regions] cuts only at
   applicability edges and bisects, so this scan is what shows that no
   switch hides inside a range. *)
let check_regions_against_scan name ~params ~lo ~hi bounds =
  let ranges = D.best_regions ~params ~lo ~hi bounds in
  let next =
    List.fold_left
      (fun from (r : D.winner_range) ->
        Alcotest.(check int)
          (Printf.sprintf "%s: range starts where the last ended" name)
          from r.s_from;
        for s = r.s_from to r.s_to do
          let same =
            match (D.best ~params ~s bounds, r.winner) with
            | None, None -> true
            | Some b, Some w -> b == w
            | _ -> false
          in
          if not same then
            Alcotest.failf "%s: S=%d in [%d, %d] names another winner" name s
              r.s_from r.s_to
        done;
        r.s_to + 1)
      lo ranges
  in
  Alcotest.(check int)
    (Printf.sprintf "%s: ranges cover [%d, %d]" name lo hi)
    (hi + 1) next

let test_best_regions_match_scan () =
  List.iter
    (fun (entry : Report.entry) ->
      let a = Report.analyze_cached entry in
      let m, n, _ = List.nth entry.grid (List.length entry.grid - 1) in
      let params = if m = 0 then [ ("N", n) ] else [ ("M", m); ("N", n) ] in
      check_regions_against_scan entry.display ~params ~lo:1 ~hi:4096 a.bounds)
    Report.registry;
  let mgs = Report.analyze_cached (Report.find "mgs") in
  check_regions_against_scan "THM5 (MGS hourglass bounds)"
    ~params:[ ("M", 1024); ("N", 256) ]
    ~lo:1 ~hi:8192
    (List.filter
       (fun (b : D.t) ->
         b.technique = D.Hourglass || b.technique = D.Hourglass_small_s)
       mgs.bounds)

let suite =
  [
    Alcotest.test_case "MGS = Theorem 5 exactly (both regimes)" `Quick
      test_mgs_theorem5_exact;
    Alcotest.test_case "classical_deepest filters by loop depth" `Quick
      test_classical_deepest_filters_depth;
    Alcotest.test_case "classical_deepest = classical half of analyze" `Quick
      test_classical_deepest_matches_registry;
    Alcotest.test_case "all kernels match theorem shapes" `Quick
      test_theorem_shapes;
    Alcotest.test_case "improvement ratio grows like M" `Quick
      test_improvement_ratio_parametric;
    Alcotest.test_case "gemm stays classical" `Quick test_gemm_classical_shape;
    Alcotest.test_case "lower bound <= pebble-game I/O (all kernels)" `Quick
      test_sandwich_pebble_game;
    Alcotest.test_case "lower bound <= tiled MGS I/O" `Quick
      test_sandwich_tiled_mgs;
    Alcotest.test_case "optimize_split: first maximum wins in list order"
      `Quick test_optimize_split_tie_break;
    Alcotest.test_case "best_regions = per-S best scan (all kernels)" `Quick
      test_best_regions_match_scan;
  ]
