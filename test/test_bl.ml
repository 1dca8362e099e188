(* The Brascamp-Lieb optimiser: known certificates, infeasibility, and a
   property check that returned exponents are admissible. *)

module Bl = Iolb.Bl
module Rat = Iolb_util.Rat

let test_loomis_whitney () =
  (* Three 2-D canonical projections of a 3-D set: rho = 3/2 with uniform
     exponents 1/2 (the Loomis-Whitney certificate). *)
  match Bl.classical ~dims:[ "i"; "j"; "k" ] [ [ "i"; "j" ]; [ "i"; "k" ]; [ "j"; "k" ] ] with
  | None -> Alcotest.fail "feasible instance reported infeasible"
  | Some sol ->
      Alcotest.(check string) "rho" "3/2" (Rat.to_string sol.Bl.k_exponent);
      List.iter
        (fun (_, e) -> Alcotest.(check string) "s_j" "1/2" (Rat.to_string e))
        sol.Bl.exponents

let test_1d_projections () =
  (* Full 1-D coverage: rho = d with exponents 1. *)
  match Bl.classical ~dims:[ "i"; "j" ] [ [ "i" ]; [ "j" ] ] with
  | None -> Alcotest.fail "infeasible"
  | Some sol -> Alcotest.(check string) "rho" "2" (Rat.to_string sol.Bl.k_exponent)

let test_uncovered_dim_infeasible () =
  Alcotest.(check bool) "k uncovered -> None" true
    (Bl.classical ~dims:[ "i"; "j"; "k" ] [ [ "i"; "j" ]; [ "j" ] ] = None);
  Alcotest.(check bool) "no projections -> None" true
    (Bl.classical ~dims:[ "i" ] [] = None)

let test_mgs_hourglass_certificate () =
  (* The Section 4.2 instance: phi_I (alpha 0, beta 1), two sharpened
     projections (alpha 1, beta -1), one untouched (alpha 1).  Expected:
     (rho_K, rho_W) = (2, -1), i.e. |I'| <= K^2 / W. *)
  let projs =
    [
      Bl.proj ~alpha:Rat.zero ~beta:Rat.one ~label:"phi_I" [ "i" ];
      Bl.proj ~alpha:Rat.one ~beta:Rat.minus_one ~label:"phi_j" [ "j" ];
      Bl.proj ~alpha:Rat.one ~beta:Rat.minus_one ~label:"phi_k" [ "k" ];
      Bl.proj ~alpha:Rat.one ~label:"phi_kj" [ "k"; "j" ];
    ]
  in
  match Bl.optimize ~dims:[ "i"; "j"; "k" ] projs with
  | None -> Alcotest.fail "infeasible"
  | Some sol ->
      Alcotest.(check string) "rho_K" "2" (Rat.to_string sol.Bl.k_exponent);
      Alcotest.(check string) "rho_W" "-1" (Rat.to_string sol.Bl.w_exponent)

let test_flatness_preference () =
  (* With a gamma-weighted (constant-2) projection available for a dim also
     coverable at K-cost, the lexicographic objective prefers paying the
     constant over paying K. *)
  let projs =
    [
      Bl.proj ~alpha:Rat.zero ~gamma:Rat.one ~label:"flat_k" [ "k" ];
      Bl.proj ~alpha:Rat.one ~label:"phi_k" [ "k" ];
      Bl.proj ~alpha:Rat.one ~label:"phi_ij" [ "i"; "j" ];
    ]
  in
  match Bl.optimize ~dims:[ "i"; "j"; "k" ] projs with
  | None -> Alcotest.fail "infeasible"
  | Some sol ->
      Alcotest.(check string) "rho_K = 1 (only phi_ij pays K)" "1"
        (Rat.to_string sol.Bl.k_exponent);
      Alcotest.(check string) "rho_2 = 1 (flatness used)" "1"
        (Rat.to_string sol.Bl.two_exponent)

(* Property: on random projection families, any returned solution is
   admissible - all cover constraints hold and exponents lie in [0,1]. *)
let admissibility_prop =
  let dims = [ "a"; "b"; "c" ] in
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (list_size (int_range 1 3) (oneofl dims)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"returned exponents are admissible" ~count:300 gen
       (fun dimsets ->
         let dimsets = List.map (List.sort_uniq String.compare) dimsets in
         match Bl.classical ~dims dimsets with
         | None ->
             (* Must be genuinely uncoverable: some dim in no projection. *)
             List.exists
               (fun d -> not (List.exists (List.mem d) dimsets))
               dims
         | Some sol ->
             let s_of j =
               match
                 List.assoc_opt
                   (Printf.sprintf "phi%d_{%s}" j
                      (String.concat "," (List.nth dimsets j)))
                   sol.Bl.exponents
               with
               | Some e -> e
               | None -> Rat.zero
             in
             let subsets =
               List.concat_map
                 (fun a ->
                   List.concat_map
                     (fun b -> List.map (fun c -> [ a; b; c ]) [ 0; 1 ])
                     [ 0; 1 ])
                 [ 0; 1 ]
               |> List.map (fun flags ->
                      List.filteri (fun i _ -> List.nth flags i = 1) dims)
               |> List.filter (fun h -> h <> [])
               |> List.sort_uniq compare
             in
             List.for_all
               (fun h ->
                 let lhs = Rat.of_int (List.length h) in
                 let rhs =
                   List.fold_left
                     (fun acc j ->
                       let inter =
                         List.length
                           (List.filter (fun d -> List.mem d h)
                              (List.nth dimsets j))
                       in
                       Rat.add acc (Rat.mul (s_of j) (Rat.of_int inter)))
                     Rat.zero
                     (List.init (List.length dimsets) Fun.id)
                 in
                 Rat.compare lhs rhs <= 0)
               subsets
             && List.for_all
                  (fun (_, e) ->
                    Rat.sign e >= 0 && Rat.compare e Rat.one <= 0)
                  sol.Bl.exponents))

(* [classical] solves once where [optimize] runs three stages; on the same
   alpha = 1 projections both must give the same rho (and classical no W
   or 2 exponent). *)
let classical_matches_optimize ~dims dimsets =
  let projs =
    List.mapi
      (fun j ds -> Bl.proj ~alpha:Rat.one ~label:(Printf.sprintf "p%d" j) ds)
      dimsets
  in
  match (Bl.classical ~dims dimsets, Bl.optimize ~dims projs) with
  | None, None -> true
  | Some c, Some o ->
      Rat.equal c.Bl.k_exponent o.Bl.k_exponent
      && Rat.is_zero c.Bl.w_exponent
      && Rat.is_zero c.Bl.two_exponent
  | _ -> false

let classical_one_solve_prop =
  let dims = [ "a"; "b"; "c" ] in
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (list_size (int_range 1 3) (oneofl dims)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"classical rho = optimize rho (random families)"
       ~count:300 gen (fun dimsets ->
         classical_matches_optimize ~dims
           (List.map (List.sort_uniq String.compare) dimsets)))

(* Every family the classical rung poses on the registry: the projections
   of each program's deepest statements. *)
let test_classical_registry_families () =
  let families =
    List.concat_map
      (fun (entry : Iolb.Report.entry) ->
        let p = entry.program in
        let stmts = Iolb_ir.Program.statements p in
        let depth (i : Iolb_ir.Program.stmt_info) = List.length i.dims in
        let deepest = List.fold_left (fun d i -> max d (depth i)) 0 stmts in
        List.filter_map
          (fun (i : Iolb_ir.Program.stmt_info) ->
            if depth i < deepest then None
            else
              Some
                ( entry.display ^ "/" ^ i.def.name,
                  i.dims,
                  List.map (fun (ph : Iolb.Phi.t) -> ph.dims)
                    (Iolb.Phi.of_statement p i) ))
          stmts)
      Iolb.Report.registry
  in
  Alcotest.(check bool) "at least one family per program" true
    (List.length families >= List.length Iolb.Report.registry);
  List.iter
    (fun (name, dims, dimsets) ->
      Alcotest.(check bool) name true (classical_matches_optimize ~dims dimsets))
    families

let suite =
  [
    Alcotest.test_case "Loomis-Whitney certificate" `Quick test_loomis_whitney;
    Alcotest.test_case "1-D projections" `Quick test_1d_projections;
    Alcotest.test_case "uncovered dimension infeasible" `Quick
      test_uncovered_dim_infeasible;
    Alcotest.test_case "MGS hourglass certificate (K^2/W)" `Quick
      test_mgs_hourglass_certificate;
    Alcotest.test_case "flatness preferred over K" `Quick
      test_flatness_preference;
    admissibility_prop;
    classical_one_solve_prop;
    Alcotest.test_case "classical rho = optimize rho (registry families)"
      `Quick test_classical_registry_families;
  ]
