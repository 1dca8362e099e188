(* Hourglass detection must find the paper's patterns (Section 5): on MGS,
   A2V, V2Q, GEBD2 and split GEHD2, with the right dimension classification
   and width; it must reject GEMM and the unsplit GEHD2 (constant minimal
   width). *)

module H = Iolb.Hourglass
module K = Iolb_kernels

let find_on ?reduction prog stmt =
  List.find_opt
    (fun (h : H.t) ->
      h.update_stmt = stmt
      && match reduction with None -> true | Some r -> h.reduction = r)
    (H.detect prog)

let check_classification ?width prog stmt ~temporal ~reduction ~neutral =
  match find_on ~reduction prog stmt with
  | None -> Alcotest.failf "no hourglass detected on %s" stmt
  | Some h ->
      Alcotest.(check (list string)) "temporal" temporal h.temporal;
      Alcotest.(check (list string)) "reduction" reduction h.reduction;
      Alcotest.(check (list string)) "neutral" neutral h.neutral;
      Option.iter
        (fun w ->
          Alcotest.(check string)
            "width" w
            (Iolb_symbolic.Polynomial.to_string (H.width_poly h)))
        width

let test_mgs () =
  check_classification K.Mgs.spec "SU" ~temporal:[ "k" ] ~reduction:[ "i" ]
    ~neutral:[ "j" ] ~width:"M"

let test_a2v () =
  check_classification K.Householder.a2v_spec "SU" ~temporal:[ "k" ]
    ~reduction:[ "i" ] ~neutral:[ "j" ] ~width:"M - N"

let test_v2q () =
  check_classification K.Householder.v2q_spec "SU" ~temporal:[ "k" ]
    ~reduction:[ "i" ] ~neutral:[ "j" ] ~width:"M - N"

let test_gebd2 () =
  check_classification K.Gebd2.spec "BUl" ~temporal:[ "k" ] ~reduction:[ "i" ]
    ~neutral:[ "j" ] ~width:"M - N + 1"

let test_gehd2_unsplit_rejected () =
  let hs = H.detect K.Gehd2.spec in
  Alcotest.(check bool)
    "no hourglass on SU1 (constant width)" true
    (not (List.exists (fun (h : H.t) -> h.update_stmt = "SU1") hs))

let test_gehd2_split () =
  check_classification K.Gehd2.split_spec "SU1a" ~temporal:[ "j" ]
    ~reduction:[ "i" ] ~neutral:[ "k" ] ~width:"-M + N - 1"

let test_spurious_candidates_pruned () =
  (* detect over-generates (e.g. a bogus "reduction over k" pattern on MGS's
     SR); the empirical CDAG check must prune exactly those. *)
  let params = [ ("M", 6); ("N", 4) ] in
  let verified = H.detect_verified ~params K.Mgs.spec in
  Alcotest.(check bool)
    "bogus SR pattern pruned" true
    (not (List.exists (fun (h : H.t) -> h.update_stmt = "SR") verified));
  Alcotest.(check bool)
    "real SU pattern kept" true
    (List.exists (fun (h : H.t) -> h.update_stmt = "SU") verified)

let test_gemm_rejected () =
  Alcotest.(check int) "no hourglass on gemm" 0 (List.length (H.detect K.Gemm.spec))

let test_verify_empirically () =
  List.iter
    (fun (prog, stmt, reduction, params) ->
      match find_on ~reduction prog stmt with
      | None -> Alcotest.failf "no hourglass on %s" stmt
      | Some h ->
          Alcotest.(check bool)
            (Printf.sprintf "chains exist on the CDAG of %s" stmt)
            true
            (H.verify ~params prog h))
    [
      (K.Mgs.spec, "SU", [ "i" ], [ ("M", 6); ("N", 4) ]);
      (K.Householder.a2v_spec, "SU", [ "i" ], [ ("M", 7); ("N", 4) ]);
      (K.Householder.v2q_spec, "SU", [ "i" ], [ ("M", 7); ("N", 4) ]);
      (K.Gebd2.spec, "BUl", [ "i" ], [ ("M", 7); ("N", 4) ]);
      (K.Gehd2.split_spec, "SU1a", [ "i" ], [ ("N", 8); ("M", 3) ]);
    ]

(* Verification builds one CDAG per program, not one per candidate:
   detecting on split GEHD2 (several candidates) charges the CDAG stage
   exactly what one build at the same sizes does. *)
let test_one_cdag_per_program () =
  let module Budget = Iolb_util.Budget in
  let entry = Iolb.Report.find "gehd2" in
  let params = entry.verify_params and p = entry.program in
  let counting () = Budget.make ~max_steps:max_int () in
  let detect = counting () in
  let verified = H.detect_verified ~budget:detect ~params p in
  let build = counting () in
  ignore (Iolb_cdag.Cdag.of_program ~budget:build ~params p);
  Alcotest.(check bool) "several candidates" true
    (List.length (H.detect p) > 1);
  Alcotest.(check bool) "a verified pattern" true (verified <> []);
  Alcotest.(check int) "CDAG steps of one build"
    (Budget.stage_steps build Budget.Cdag_build)
    (Budget.stage_steps detect Budget.Cdag_build)

let suite =
  [
    Alcotest.test_case "mgs: SU hourglass, width M" `Quick test_mgs;
    Alcotest.test_case "a2v: SU hourglass, width M-N" `Quick test_a2v;
    Alcotest.test_case "v2q: SU hourglass, width M-N" `Quick test_v2q;
    Alcotest.test_case "gebd2: BUl hourglass, width M-N+1" `Quick test_gebd2;
    Alcotest.test_case "gehd2 unsplit rejected" `Quick test_gehd2_unsplit_rejected;
    Alcotest.test_case "gehd2 split accepted, width N-M-1" `Quick test_gehd2_split;
    Alcotest.test_case "gemm has no hourglass" `Quick test_gemm_rejected;
    Alcotest.test_case "dependence chains verified on CDAGs" `Quick
      test_verify_empirically;
    Alcotest.test_case "spurious candidates pruned by verification" `Quick
      test_spurious_candidates_pruned;
    Alcotest.test_case "one verification CDAG per program" `Quick
      test_one_cdag_per_program;
  ]
