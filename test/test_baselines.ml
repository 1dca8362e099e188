(* Baseline kernels (Cholesky, LU, SYRK, TRSM, tiled GEMM): no-hourglass
   property and classical bound shapes. *)

module K = Iolb_kernels
module D = Iolb.Derive
module H = Iolb.Hourglass

let test_no_hourglass () =
  (* These kernels have a single update statement, so no (update, reduction)
     pair exists: the hourglass path must stay silent. *)
  List.iter
    (fun (name, prog, params) ->
      let verified = H.detect_verified ~params prog in
      Alcotest.(check int) (name ^ " has no verified hourglass") 0
        (List.length verified))
    [
      ("cholesky", Programs.cholesky, [ ("N", 8) ]);
      ("lu", Programs.lu, [ ("N", 8) ]);
      ("syrk", Programs.syrk, [ ("N", 6); ("K", 5) ]);
      ("trsm", Programs.trsm, [ ("N", 6); ("M", 4) ]);
    ]

let test_classical_rho () =
  (* All four baselines have rho = 3/2 on their deepest statement (three
     2-D projections), the Theta(.../sqrt S) shape. *)
  List.iter
    (fun (name, prog, stmt) ->
      match D.classical prog ~stmt with
      | None -> Alcotest.failf "no classical bound for %s" name
      | Some b ->
          Alcotest.(check bool)
            (name ^ " bound is Theta(flops/sqrt S)")
            true
            (List.exists
               (fun l -> l = "Brascamp-Lieb exponent sum rho = 3/2")
               b.D.log))
    [
      ("cholesky", Programs.cholesky, "Sup");
      ("lu", Programs.lu, "Sup");
      ("syrk", Programs.syrk, "SC");
      ("trsm", Programs.trsm, "SR");
    ]

let test_tiled_gemm_io () =
  (* Blocked gemm at block b with 3b^2 <= S: I/O ~ 2 m n k / b; the
     unblocked ijk order pays ~ m n k when S is small. *)
  let m = 16 and n = 16 and k = 16 in
  let s = 3 * 8 * 8 in
  let tiled b =
    let trace =
      Iolb_pebble.Trace.of_program ~params:[] (K.Gemm.tiled_spec ~m ~n ~k ~b)
    in
    (Iolb_pebble.Cache.opt ~size:s trace).Iolb_pebble.Cache.loads
  in
  let t2 = tiled 2 and t8 = tiled 8 in
  Alcotest.(check bool)
    (Printf.sprintf "bigger blocks reduce I/O (%d -> %d)" t2 t8)
    true (t8 < t2);
  (* Shape: loads(b=8) should be within 2x of 2mnk/b + mn. *)
  let predicted = (2 * m * n * k / 8) + (m * n) in
  Alcotest.(check bool)
    (Printf.sprintf "near prediction (%d vs %d)" t8 predicted)
    true
    (float_of_int t8 < 2. *. float_of_int predicted
    && float_of_int t8 > 0.4 *. float_of_int predicted);
  (* Sandwich with the classical lower bound. *)
  let bounds = Programs.bounds "gemm" in
  let lb =
    List.fold_left
      (fun acc (b : D.t) ->
        Float.max acc
          (D.eval b ~params:[ ("M", m); ("N", n); ("K", k) ] ~s))
      0. bounds
  in
  Alcotest.(check bool)
    (Printf.sprintf "lower bound %.0f <= tiled I/O %d" lb t8)
    true
    (lb <= float_of_int t8)

let test_tiled_right_mgs_more_writes () =
  (* The paper's remark: the right-looking tiled variant does asymptotically
     similar I/O but with more writes than the left-looking one. *)
  let m = 32 and n = 16 and b = 4 and s = 160 in
  let stats spec =
    Iolb_pebble.Cache.opt ~size:s (Iolb_pebble.Trace.of_program ~params:[] spec)
  in
  let left = stats (K.Mgs.tiled_spec ~m ~n ~b) in
  let right = stats (K.Mgs.tiled_right_spec ~m ~n ~b) in
  Alcotest.(check bool)
    (Printf.sprintf "right-looking writes more (%d vs %d)"
       right.Iolb_pebble.Cache.stores left.Iolb_pebble.Cache.stores)
    true
    (right.Iolb_pebble.Cache.stores > left.Iolb_pebble.Cache.stores)

let suite0 =
  [
    Alcotest.test_case "no hourglass on baselines" `Quick test_no_hourglass;
    Alcotest.test_case "classical rho = 3/2 on baselines" `Quick
      test_classical_rho;
    Alcotest.test_case "tiled gemm I/O shape + sandwich" `Quick
      test_tiled_gemm_io;
    Alcotest.test_case "right-looking tiled MGS writes more" `Quick
      test_tiled_right_mgs_more_writes;
  ]

(* Polybench-family additions: SYR2K/TRMM exercise the classical 3-D path;
   ATAX documents the matvec-class negative result. *)

let test_syr2k () =
  (match D.classical Programs.syr2k ~stmt:"SC" with
  | Some bnd ->
      Alcotest.(check bool) "syr2k rho = 3/2" true
        (List.mem "Brascamp-Lieb exponent sum rho = 3/2" bnd.D.log)
  | None -> Alcotest.fail "syr2k should have a classical bound");
  Alcotest.(check int) "no hourglass" 0
    (List.length
       (H.detect_verified ~params:[ ("N", 5); ("K", 4) ] Programs.syr2k))

let test_trmm () =
  (match D.classical Programs.trmm ~stmt:"SB" with
  | Some bnd ->
      Alcotest.(check bool) "trmm rho = 3/2" true
        (List.mem "Brascamp-Lieb exponent sum rho = 3/2" bnd.D.log)
  | None -> Alcotest.fail "trmm should have a classical bound");
  Alcotest.(check int) "no hourglass" 0
    (List.length
       (H.detect_verified ~params:[ ("M", 6); ("N", 4) ] Programs.trmm))

let test_atax_negative () =
  (* No S-dependent bound: matvec-class kernels have no superlinear reuse. *)
  Alcotest.(check bool) "no classical bound for St" true
    (D.classical Programs.atax ~stmt:"St" = None);
  Alcotest.(check bool) "no classical bound for Sy" true
    (D.classical Programs.atax ~stmt:"Sy" = None)

let suite =
  suite0
  @ [
      Alcotest.test_case "syr2k (classical, no hourglass)" `Quick test_syr2k;
      Alcotest.test_case "trmm (classical, no hourglass)" `Quick test_trmm;
      Alcotest.test_case "atax (matvec negative control)" `Quick
        test_atax_negative;
    ]
