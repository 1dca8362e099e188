(* Machine-checked Figure 4: the engine's derived formulas are
   Theta-equivalent to the paper's along the regime directions, and NOT
   Theta-equivalent across the old/new divide (the improvement is genuinely
   parametric). *)

module A = Asymptotic
module D = Iolb.Derive
module PF = Iolb.Paper_formulas
module Report = Iolb.Report
module R = Iolb_symbolic.Ratfun
module P = Iolb_symbolic.Polynomial

let engine_formula name tech =
  (* Several statements may carry a bound of the same technique (e.g. the
     A2V reduction statement SR gets a weaker rho = 2 classical bound); the
     representative one lives on the hourglass update statement SU/BUl. *)
  let a = Report.analyze (Report.find name) in
  let candidates =
    List.filter (fun (b : D.t) -> b.technique = tech) a.bounds
  in
  match
    List.find_opt (fun (b : D.t) -> b.stmt = "SU" || b.stmt = "BUl") candidates
  with
  | Some b -> b.formula
  | None -> (List.hd candidates).formula

let directions =
  [
    ("S fixed", A.square_small_cache);
    ("S ~ N", A.square_linear_cache);
    ("S ~ N^2", A.square_large_cache);
  ]

let test_self_sanity () =
  (* The checker itself: f is Theta(f); f is not Theta(f * N). *)
  let f = PF.theorem_main PF.Mgs in
  let n_times = R.mul f (R.of_poly (P.var "N")) in
  List.iter
    (fun (dname, dir) ->
      Alcotest.(check bool) ("f ~ f along " ^ dname) true
        (A.theta_equivalent f f dir);
      Alcotest.(check bool) ("f !~ N*f along " ^ dname) false
        (A.theta_equivalent f n_times dir))
    directions

let test_hourglass_matches_paper () =
  List.iter
    (fun (name, kernel) ->
      let engine = engine_formula name D.Hourglass in
      let paper = PF.theorem_main kernel in
      List.iter
        (fun (dname, dir) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s hourglass ~ paper theorem (%s)" name dname)
            true
            (A.theta_equivalent engine paper dir))
        directions)
    [
      ("mgs", PF.Mgs);
      ("qr_hh_a2v", PF.A2v);
      ("qr_hh_v2q", PF.V2q);
      ("gebd2", PF.Gebd2);
    ]

let test_classical_matches_paper_old () =
  (* Engine classical ~ MN^2/sqrt(S) (the Figure 4 old column). *)
  let old_shape =
    R.make
      (P.mul (P.var "M") (P.mul (P.var "N") (P.var "N")))
      (P.var "sqrtS")
  in
  List.iter
    (fun name ->
      let engine = engine_formula name D.Classical in
      List.iter
        (fun (dname, dir) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s classical ~ MN^2/sqrtS (%s)" name dname)
            true
            (A.theta_equivalent engine old_shape dir))
        directions)
    [ "mgs"; "qr_hh_a2v"; "qr_hh_v2q"; "gebd2" ]

let test_improvement_is_parametric () =
  (* Figure 4's whole point: new is NOT Theta(old) when the cache scales
     with the problem - the gap is parametric. *)
  let engine_hg = engine_formula "mgs" D.Hourglass in
  let engine_cl = engine_formula "mgs" D.Classical in
  (* Along S ~ N the factor M/sqrt(S) ~ sqrt(N) grows: the two bounds are
     in different Theta classes... *)
  Alcotest.(check bool) "hourglass beats classical parametrically (S ~ N)"
    false
    (A.theta_equivalent engine_hg engine_cl A.square_linear_cache);
  (* ... and the gap is exactly M/sqrt(S): hourglass ~ classical * M/sqrtS. *)
  let scaled = R.mul engine_cl (R.make (P.var "M") (P.var "sqrtS")) in
  Alcotest.(check bool) "hourglass ~ classical * M/sqrt(S)" true
    (A.theta_equivalent engine_hg scaled A.square_linear_cache);
  (* Along S ~ M^2 the factor is constant, so they coincide - the regime
     boundary of Section 5.1. *)
  Alcotest.(check bool) "same class when S ~ M^2" true
    (A.theta_equivalent engine_hg engine_cl A.square_large_cache)

let test_gehd2_shape () =
  let a = Report.analyze (Report.find "gehd2") in
  let engine =
    List.filter_map
      (fun (b : D.t) ->
        if b.technique = D.Hourglass then Some b.formula else None)
      a.bounds
  in
  let paper = PF.theorem_main PF.Gehd2 in
  (* GEHD2 formulas are over N, S only. *)
  let dir t = [ ("N", t); ("S", t) ] in
  Alcotest.(check bool) "some gehd2 bound ~ N^4/(N+2S)" true
    (List.exists (fun f -> A.theta_equivalent f paper dir) engine)

let suite =
  [
    Alcotest.test_case "checker sanity" `Quick test_self_sanity;
    Alcotest.test_case "hourglass bounds ~ paper theorems" `Quick
      test_hourglass_matches_paper;
    Alcotest.test_case "classical bounds ~ MN^2/sqrtS" `Quick
      test_classical_matches_paper_old;
    Alcotest.test_case "improvement is parametric (M/sqrtS)" `Quick
      test_improvement_is_parametric;
    Alcotest.test_case "gehd2 ~ N^4/(N+2S)" `Quick test_gehd2_shape;
  ]
