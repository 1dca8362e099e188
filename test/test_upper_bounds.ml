(* The symbolic Appendix-A cost models: they must (1) agree with the cache
   simulator on the actual tiled traces, (2) reduce to the paper's
   closed-form totals at the paper's block choice, and (3) stay within a
   bounded constant factor of the hourglass lower bounds - the tightness
   argument. *)

module UB = Iolb.Upper_bounds
module A = Iolb.Asymptotic
module D = Iolb.Derive
module PF = Iolb.Paper_formulas
module Report = Iolb.Report
module P = Iolb_symbolic.Polynomial
module R = Iolb_symbolic.Ratfun

let test_models_match_simulation () =
  (* Symbolic model vs OPT simulation of the actual trace: same ballpark
     (the model is a leading-term estimate). *)
  List.iter
    (fun (m, n, s, b) ->
      let model =
        UB.eval_total UB.mgs_tiled ~b [ ("M", m); ("N", n); ("S", s) ]
      in
      let trace =
        Iolb_pebble.Trace.of_program ~params:[]
          (Iolb_kernels.Mgs.tiled_spec ~m ~n ~b)
      in
      let stats = Iolb_pebble.Cache.opt ~size:s trace in
      let measured = float_of_int (Iolb_pebble.Cache.io stats) in
      let ratio = measured /. model in
      Alcotest.(check bool)
        (Printf.sprintf "mgs m=%d n=%d s=%d b=%d ratio=%.2f" m n s b ratio)
        true
        (ratio > 0.4 && ratio < 1.6))
    [ (32, 16, 160, 4); (48, 16, 400, 4); (64, 32, 600, 8) ]

let test_paper_block_choice () =
  (* total(B = S/M - 1) ~ M^2 N^2 / (2S) for MGS (Appendix A.1). *)
  let s = P.var "S" and m = P.var "M" and n = P.var "N" in
  let upper =
    UB.substitute_block (UB.total UB.mgs_tiled) ~num:(P.sub s m) ~den:m
  in
  let target =
    R.make (P.scale Iolb_util.Rat.half (P.mul (P.mul m m) (P.mul n n))) s
  in
  (* Theta-equivalence in the M << S regime where the choice is valid. *)
  Alcotest.(check bool) "~ M^2N^2/2S when S ~ M^2" true
    (A.theta_equivalent upper target A.square_large_cache);
  (* A2V: ~ (M^2N^2 - MN^3/3) / 2S; same regime check. *)
  let upper_a2v =
    UB.substitute_block (UB.total UB.a2v_tiled) ~num:(P.sub s m) ~den:m
  in
  let target_a2v =
    R.make
      (P.scale Iolb_util.Rat.half
         (P.sub
            (P.mul (P.mul m m) (P.mul n n))
            (P.scale (Iolb_util.Rat.make 1 3) (P.mul m (P.mul n (P.mul n n))))))
      s
  in
  Alcotest.(check bool) "a2v ~ (M^2N^2 - MN^3/3)/2S" true
    (A.theta_equivalent upper_a2v target_a2v A.square_large_cache)

let test_tightness_gap_bounded () =
  (* The optimality argument: upper / lower stays bounded as everything
     scales in the M << S regime (here S = M^2/4 >> M). *)
  let s = P.var "S" and m = P.var "M" in
  let upper =
    UB.substitute_block (UB.total UB.mgs_tiled) ~num:(P.sub s m) ~den:m
  in
  let lower = PF.theorem_main PF.Mgs in
  let gaps =
    List.map
      (fun t ->
        let params = [ ("M", 4 * t); ("N", t); ("S", 4 * t * t) ] in
        UB.gap ~upper ~lower params)
      [ 64; 128; 256; 512; 1024 ]
  in
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (Printf.sprintf "gap %.2f in [1, 30]" g)
        true
        (g >= 1. && g <= 30.))
    gaps;
  (* And the gap stabilises (tightness): last two within 10%. *)
  match List.rev gaps with
  | g1 :: g2 :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "gap stabilises (%.3f vs %.3f)" g1 g2)
        true
        (Float.abs (g1 -. g2) < 0.1 *. g1)
  | _ -> assert false

let test_gemm_block () =
  (* GEMM with B = sqrtS / 2: total ~ 4 MNK / sqrtS, within a constant of
     the classical bound (3/8) MNK / sqrtS: gap ~ 32/3. *)
  let upper =
    UB.substitute_block (UB.total UB.gemm_tiled) ~num:(P.var "sqrtS")
      ~den:(P.of_int 2)
  in
  let bounds = Programs.bounds "gemm" in
  let lower = (List.hd bounds).D.formula in
  let gap =
    UB.gap ~upper ~lower
      [ ("M", 512); ("N", 512); ("K", 512); ("S", 4096) ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "gemm gap %.2f in [8, 14]" gap)
    true
    (gap >= 8. && gap <= 14.);
  (* Cache validity of the block choice: 3 B^2 = 3S/4 <= S. *)
  let cache =
    UB.substitute_block UB.gemm_tiled.UB.cache_needed ~num:(P.var "sqrtS")
      ~den:(P.of_int 2)
  in
  let v =
    R.eval_float_env
      (function "sqrtS" -> 8. | "S" -> 64. | _ -> raise Not_found)
      cache
  in
  Alcotest.(check (float 1e-9)) "3B^2 = 3S/4" 48. v

let suite =
  [
    Alcotest.test_case "cost models match cache simulation" `Quick
      test_models_match_simulation;
    Alcotest.test_case "paper block choice reproduces Appendix totals" `Quick
      test_paper_block_choice;
    Alcotest.test_case "upper/lower gap bounded and stable (tightness)" `Quick
      test_tightness_gap_bounded;
    Alcotest.test_case "blocked gemm vs classical bound" `Quick test_gemm_block;
  ]
