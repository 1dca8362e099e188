(* Report layer: registry integrity, best-bound selection, split search,
   and the empirical content of Lemma 3 (spanning convex sets contain whole
   reduction lines and have width-sized insets). *)

module Report = Iolb.Report
module D = Iolb.Derive
module H = Iolb.Hourglass
module PF = Iolb.Paper_formulas
module Cdag = Iolb_cdag.Cdag
module Program = Iolb_ir.Program

let test_registry () =
  Alcotest.(check int) "five kernels" 5 (List.length Report.registry);
  (* find accepts kernel names, display names, program names. *)
  List.iter
    (fun key -> ignore (Report.find key))
    [ "mgs"; "MGS"; "qr_hh_a2v"; "QR HH V2Q"; "gebd2"; "GEHD2" ];
  match Report.find "nope" with
  | _ -> Alcotest.fail "unknown name resolved"
  | exception Iolb_util.Engine_error.(Error (Invalid_input msg)) ->
      Alcotest.(check string) "typed error lists the baselines"
        "unknown kernel \"nope\" (paper kernels: mgs, qr_hh_a2v, qr_hh_v2q, \
         gebd2, gehd2; baselines: gemm, cholesky, lu, syrk, syr2k, trsm, \
         trmm, atax, jacobi1d; or pass a DSL source with --file PROG.iolb)"
        msg

let test_every_kernel_has_both_bounds () =
  List.iter
    (fun entry ->
      let a = Report.analyze entry in
      Alcotest.(check bool)
        (entry.Report.display ^ " has a verified hourglass")
        true
        (a.hourglasses <> []);
      let has tech = List.exists (fun (b : D.t) -> b.technique = tech) a.bounds in
      Alcotest.(check bool) "hourglass bound" true (has D.Hourglass);
      Alcotest.(check bool) "small-cache bound" true (has D.Hourglass_small_s);
      Alcotest.(check bool) "classical bound" true (has D.Classical))
    Report.registry

let test_eval_best_is_max () =
  let a = Report.analyze (Report.find "mgs") in
  let m = 64 and n = 32 and s = 16 in
  (* At S <= M the small-cache bound dominates and must be selected. *)
  let best = Option.get (Report.eval_best a ~technique:`Hourglass ~m ~n ~s) in
  let small = PF.eval_at (Option.get (PF.theorem_small PF.Mgs)) ~m ~n ~s in
  Alcotest.(check (float 1e-6)) "small-cache bound selected" small best;
  (* At S > M it must not be selected (it would be negative/invalid). *)
  let s = 256 in
  let best = Option.get (Report.eval_best a ~technique:`Hourglass ~m ~n ~s) in
  Alcotest.(check bool) "positive at large S" true (best > 0.)

let test_split_recovers_regimes () =
  let bounds =
    D.analyze ~verify_params:[ ("N", 9); ("M", 3) ]
      Iolb_kernels.Gehd2.split_spec
  in
  let hg = List.filter (fun (b : D.t) -> b.technique = D.Hourglass) bounds in
  Alcotest.(check bool) "has hourglass bounds" true (hg <> []);
  let best_at n s =
    List.filter_map
      (fun b ->
        D.optimize_split b ~param:"M"
          ~candidates:(List.init (n - 3) (fun i -> i + 1))
          ~params:[ ("N", n) ] ~s)
      hg
    |> List.fold_left (fun acc (m, v) -> match acc with
         | Some (_, v') when v' >= v -> acc
         | _ -> Some (m, v)) None
  in
  (* Small cache: the best split sits near N - S - 2 (large first half). *)
  let m_small, _ = Option.get (best_at 64 4) in
  Alcotest.(check bool)
    (Printf.sprintf "small-S split %d is deep" m_small)
    true
    (m_small > 64 / 2);
  (* Large cache: near N/2 - 1. *)
  let m_large, _ = Option.get (best_at 64 256) in
  Alcotest.(check bool)
    (Printf.sprintf "large-S split %d is near N/2" m_large)
    true
    (m_large >= 20 && m_large <= 40)

(* Lemma 3, empirically: a convex set containing two update instances at
   the same neutral coordinates and temporal distance >= 2 contains a whole
   reduction line, and its inset is at least the hourglass width. *)
let test_lemma3_inset_width () =
  List.iter
    (fun (name, expected_width) ->
      let entry = Report.find name in
      let params = entry.Report.verify_params in
      let prog = entry.Report.program in
      let cdag = Cdag.of_program ~params prog in
      let h =
        List.find
          (fun (h : H.t) -> h.reduction = [ "i" ])
          (H.detect_verified ~params prog)
      in
      let info = Program.find_stmt prog h.update_stmt in
      let dim_index d =
        Option.get (List.find_index (String.equal d) info.Program.dims)
      in
      let t_idx = List.map dim_index h.temporal in
      let n_idx = List.map dim_index h.neutral in
      let nodes = Cdag.nodes_of_stmt cdag h.update_stmt in
      let vec_of id =
        match Cdag.kind cdag id with
        | Cdag.Compute (_, v) -> v
        | Cdag.Input _ -> assert false
      in
      let key idxs v = List.map (fun i -> v.(i)) idxs in
      let reach = Cdag.reachability cdag in
      let width =
        Iolb_symbolic.Polynomial.eval_int params (H.width_poly h)
        |> Iolb_util.Rat.to_int
      in
      Alcotest.(check int) (name ^ " width") expected_width width;
      (* Find a pair spanning temporal distance >= 2 at fixed neutral. *)
      let found = ref false in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if not !found then begin
                let va = vec_of a and vb = vec_of b in
                let ta = key t_idx va and tb = key t_idx vb in
                if
                  key n_idx va = key n_idx vb
                  && List.for_all2 (fun x y -> y - x >= 2) ta tb
                  && Cdag.reaches reach a b
                then begin
                  found := true;
                  let closure = Cdag.convex_closure cdag [ a; b ] in
                  let inset = Cdag.inset cdag closure in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: inset %d >= width %d" name inset width)
                    true (inset >= width)
                end
              end)
            nodes)
        nodes;
      Alcotest.(check bool) (name ^ ": spanning pair exists") true !found)
    [ ("mgs", 6); ("qr_hh_a2v", 3); ("gebd2", 4) ]

(* analyze_cached must hand back the same analysis object on every call
   (physical equality - downstream consumers key tables on it), and a
   Pool fan-out at any worker width must observe the same cached objects
   and render identical reports. *)
let test_analyze_cached_physical_equality () =
  let entry = Report.find "mgs" in
  let a = Report.analyze_cached entry in
  let b = Report.analyze_cached entry in
  Alcotest.(check bool) "same object on repeated calls" true (a == b)

let test_analyze_all_pool_widths () =
  (* Warm the cache sequentially so every later width must hit it. *)
  let seq = Report.analyze_all ~jobs:1 () in
  List.iter
    (fun jobs ->
      let par = Report.analyze_all ~jobs () in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: registry order preserved" jobs)
        (List.length seq) (List.length par);
      List.iter2
        (fun (x : Report.analysis) (y : Report.analysis) ->
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: cached object shared across domains" jobs)
            true (x == y);
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d: identical rendering" jobs)
            (Format.asprintf "%a" Report.pp_analysis x)
            (Format.asprintf "%a" Report.pp_analysis y))
        seq par)
    [ 1; 2; 4 ]

let suite =
  [
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "analyze_cached is physically memoized" `Quick
      test_analyze_cached_physical_equality;
    Alcotest.test_case "analyze_all identical across pool widths" `Quick
      test_analyze_all_pool_widths;
    Alcotest.test_case "all kernels get all bound kinds" `Quick
      test_every_kernel_has_both_bounds;
    Alcotest.test_case "eval_best picks the applicable max" `Quick
      test_eval_best_is_max;
    Alcotest.test_case "split search recovers both regimes" `Quick
      test_split_recovers_regimes;
    Alcotest.test_case "Lemma 3 empirically (inset >= width)" `Quick
      test_lemma3_inset_width;
  ]
