(* The Brascamp-Lieb optimiser: known certificates, infeasibility, a
   property check that returned exponents are admissible, and the theta
   regimes of the sharpened LP against fresh solves. *)

module Bl = Iolb.Bl
module S = Iolb_lp.Simplex
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

let regime_lines rs = List.map (Format.asprintf "%a" Bl.pp_exponent_region) rs

(* Two regimes: covering {i, j} by the two 1-D projections costs K^2,
   by the 2-D one K^(7/2 - 5/2 theta); the lines cross at theta = 3/5. *)
let test_two_regimes () =
  let projs =
    [
      Bl.proj ~alpha:Rat.one ~label:"phi_i" [ "i" ];
      Bl.proj ~alpha:Rat.one ~label:"phi_j" [ "j" ];
      Bl.proj ~alpha:(Rat.make 7 2) ~beta:(Rat.make (-5) 2) ~label:"phi_ij"
        [ "i"; "j" ];
    ]
  in
  match Bl.exponent_regions ~dims:[ "i"; "j" ] projs with
  | None -> Alcotest.fail "infeasible"
  | Some rs ->
      Alcotest.(check (list string))
        "regions"
        [
          "theta in [1/2, 3/5]: K^(2 + 0*theta)";
          "theta in [3/5, 1]: K^(7/2 + -5/2*theta)";
        ]
        (regime_lines rs)

(* MGS's sharpened LP: one regime, K^(2 - theta), found by the solve at
   theta = 1/2 (no pivot) and confirmed by the one at theta = 1 (one). *)
let test_mgs_one_regime () =
  let entry = Iolb.Report.find "mgs" in
  match (Iolb.Report.analyze_cached entry).hourglasses with
  | [] -> Alcotest.fail "MGS has no verified hourglass"
  | h :: _ -> (
      let dims, projs = Iolb.Derive.sharpened_projections entry.program h in
      match Bl.exponent_regions ~dims projs with
      | Some [ r ] ->
          Alcotest.(check string)
            "region" "theta in [1/2, 1]: K^(2 + -1*theta)"
            (Format.asprintf "%a" Bl.pp_exponent_region r);
          Alcotest.(check int) "pivots" 1 r.region_pivots
      | Some rs -> Alcotest.failf "%d regions" (List.length rs)
      | None -> Alcotest.fail "infeasible")

(* One [Simplex.minimizer] shares phase 1 and warm-starts each cost from
   the last basis: on random bounded LPs, any cost sequence must give the
   optimal values of fresh [Simplex.minimize] calls, and [None] exactly
   where they report [Infeasible]. *)
let minimizer_prop =
  let nvars = 3 in
  let gen =
    QCheck2.Gen.(
      let small = int_range (-4) 4 in
      let constr =
        let* coeffs = list_size (return nvars) small
        and* rel = oneofl [ S.Le; S.Ge; S.Eq ]
        and* rhs = int_range (-6) 6 in
        return (S.constr coeffs rel rhs)
      in
      pair
        (list_size (int_range 1 4) constr)
        (list_size (int_range 1 6) (list_size (return nvars) small)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"minimizer = fresh minimize (random LPs)"
       ~count:300 gen (fun (cs, costs) ->
         (* x_j <= 3 keeps every instance bounded *)
         let cs =
           List.init nvars (fun j ->
               S.constr (List.init nvars (fun i -> if i = j then 1 else 0)) S.Le 3)
           @ cs
         in
         let costs =
           List.map (fun c -> Array.of_list (List.map Rat.of_int c)) costs
         in
         match S.minimizer ~nvars cs with
         | None ->
             List.for_all (fun cost -> S.minimize ~cost cs = S.Infeasible) costs
         | Some solve ->
             List.for_all
               (fun cost ->
                 match (solve ~cost, S.minimize ~cost cs) with
                 | S.Optimal { value = a; _ }, S.Optimal { value = b; _ } ->
                     Rat.equal a b
                 | _ -> false)
               costs))

(* On random sharpened-looking families the regimes tile [1/2, 1] with a
   new line in each region, and at every region's ends and midpoint
   their line is the optimum of a fresh solve. *)
let regimes_prop =
  let dims = [ "a"; "b"; "c" ] in
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (triple
           (list_size (int_range 1 3) (oneofl dims))
           (int_range 0 8) (int_range (-8) 8)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"regimes = fresh solves (random families)"
       ~count:300
       ~print:(fun family ->
         String.concat "; "
           (List.map
              (fun (ds, a, b) ->
                Printf.sprintf "{%s} alpha %d/2 beta %d/2" (String.concat "," ds)
                  a b)
              family))
       gen (fun family ->
         let projs =
           List.mapi
             (fun j (ds, a, b) ->
               Bl.proj ~alpha:(Rat.make a 2) ~beta:(Rat.make b 2)
                 ~label:(Printf.sprintf "p%d" j)
                 (List.sort_uniq String.compare ds))
             family
         in
         let value (r : Bl.exponent_region) theta =
           Rat.add r.region_sol.k_exponent
             (Rat.mul theta r.region_sol.w_exponent)
         in
         match Bl.exponent_regions ~dims projs with
         | None -> Bl.exponent_at ~dims projs ~theta:Rat.half = None
         | Some rs ->
             let rec tiles lo = function
               | [] -> Rat.equal lo Rat.one
               | (r : Bl.exponent_region) :: tl ->
                   Rat.equal r.theta_lo lo
                   && Rat.compare r.theta_lo r.theta_hi < 0
                   && (match tl with
                      | r' :: _ ->
                          not
                            (Rat.equal r.region_sol.k_exponent
                               r'.region_sol.k_exponent
                            && Rat.equal r.region_sol.w_exponent
                                 r'.region_sol.w_exponent)
                      | [] -> true)
                   && tiles r.theta_hi tl
             in
             tiles Rat.half rs
             && List.for_all
                  (fun (r : Bl.exponent_region) ->
                    List.for_all
                      (fun theta ->
                        Option.equal Rat.equal
                          (Bl.exponent_at ~dims projs ~theta)
                          (Some (value r theta)))
                      [
                        r.theta_lo;
                        Rat.mul Rat.half (Rat.add r.theta_lo r.theta_hi);
                        r.theta_hi;
                      ])
                  rs))

(* Random concave envelopes over one dimension, where the optimum is the
   lowest line alpha + theta * beta (all are positive on [1/2, 1]).  f
   starts at 8 with slope 4 and turns down at kinks on a 1/16 grid; more
   lines touch f at one theta alone, at a kink or at an end, so solves
   tie there.  In any order of the projections the regimes are f's
   lines. *)
let envelope_prop =
  let grid = List.init 7 (fun i -> Rat.make (9 + i) 16) in
  let gen =
    QCheck2.Gen.(
      let* keep = list_repeat 7 (frequency [ (1, return true); (2, return false) ]) in
      let kinks = List.filteri (fun i _ -> List.nth keep i) grid in
      let* drops = list_repeat (List.length kinks) (int_range 1 4) in
      let* touches =
        list_size (int_range 0 5)
          (pair (int_range 0 (List.length kinks + 1)) (int_range 1 3))
      in
      let value (a, b) t = Rat.add a (Rat.mul b t) in
      let first = Rat.(of_int 6, of_int 4) in
      let f =
        List.fold_left2
          (fun lines t drop ->
            let ((_, b) as last) = List.hd lines in
            let b' = Rat.sub b (Rat.of_int drop) in
            (Rat.sub (value last t) (Rat.mul b' t), b') :: lines)
          [ first ] kinks drops
        |> List.rev
      in
      let points = (Rat.half :: kinks) @ [ Rat.one ] in
      let touching (i, c) =
        let p = List.nth points i and c = Rat.of_int c in
        let slope =
          if i = 0 then Rat.add (snd first) c
          else if i = List.length f then Rat.sub (snd (List.nth f (i - 1))) c
          else
            let l = snd (List.nth f (i - 1)) and r = snd (List.nth f i) in
            Rat.add r (Rat.mul (Rat.div c (Rat.of_int 4)) (Rat.sub l r))
        in
        let on_f = List.nth f (min i (List.length f - 1)) in
        (Rat.sub (value on_f p) (Rat.mul slope p), slope)
      in
      let+ lines = shuffle_l (f @ List.map touching touches) in
      let regimes =
        List.mapi
          (fun i (a, b) ->
            Format.asprintf "theta in [%a, %a]: K^(%a + %a*theta)" Rat.pp
              (List.nth points i) Rat.pp
              (List.nth points (i + 1))
              Rat.pp a Rat.pp b)
          f
      in
      (lines, regimes))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"regimes = envelope (random ties)" ~count:300
       ~print:(fun (lines, _) ->
         String.concat "; "
           (List.map
              (fun (a, b) -> Format.asprintf "%a + %a*theta" Rat.pp a Rat.pp b)
              lines))
       gen (fun (lines, regimes) ->
         let projs =
           List.mapi
             (fun j (alpha, beta) ->
               Bl.proj ~alpha ~beta ~label:(Printf.sprintf "p%d" j) [ "a" ])
             lines
         in
         Option.map regime_lines (Bl.exponent_regions ~dims:[ "a" ] projs)
         = Some regimes))

(* Every order of the projections [(alpha, beta)] over one dimension must
   give [expected]: the order decides which of two tied vertices a solve
   returns. *)
let check_lines_in_every_order lines expected =
  let rec orders = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun i ->
            List.map
              (List.cons (List.nth l i))
              (orders (List.filteri (fun j _ -> j <> i) l)))
          (List.init (List.length l) Fun.id)
  in
  List.iter
    (fun order ->
      let projs =
        List.mapi
          (fun j (alpha, beta) ->
            Bl.proj ~alpha ~beta ~label:(Printf.sprintf "p%d" j) [ "a" ])
          order
      in
      match Bl.exponent_regions ~dims:[ "a" ] projs with
      | None -> Alcotest.fail "infeasible"
      | Some rs ->
          Alcotest.(check (list string)) "regions" expected (regime_lines rs))
    (orders lines)

(* Four regimes: 3 theta, 5/4 + theta, 11/4 - theta, 9/2 - 3 theta.  The
   end lines cross at 3/4, the kink between the middle two. *)
let test_four_regimes () =
  check_lines_in_every_order
    Rat.
      [
        (zero, of_int 3);
        (make 5 4, one);
        (make 11 4, minus_one);
        (make 9 2, of_int (-3));
      ]
    [
      "theta in [1/2, 5/8]: K^(0 + 3*theta)";
      "theta in [5/8, 3/4]: K^(5/4 + 1*theta)";
      "theta in [3/4, 7/8]: K^(11/4 + -1*theta)";
      "theta in [7/8, 1]: K^(9/2 + -3*theta)";
    ]

(* Two regimes, 1 + theta and 5/2 - theta, with a kink at 3/4, plus
   1/2 + 2 theta, optimal at 1/2 alone, and 7/2 - 2 theta, optimal at 1
   alone; those two cross at the kink. *)
let test_kink_at_end_crossing () =
  check_lines_in_every_order
    Rat.
      [
        (one, one);
        (make 5 2, minus_one);
        (half, of_int 2);
        (make 7 2, of_int (-2));
      ]
    [
      "theta in [1/2, 3/4]: K^(1 + 1*theta)";
      "theta in [3/4, 1]: K^(5/2 + -1*theta)";
    ]

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
    Alcotest.test_case "two regimes meet at theta = 3/5" `Quick
      test_two_regimes;
    Alcotest.test_case "MGS: one regime, one pivot" `Quick test_mgs_one_regime;
    minimizer_prop;
    regimes_prop;
    Alcotest.test_case "four regimes around a kink" `Quick test_four_regimes;
    Alcotest.test_case "end lines cross at the kink" `Quick
      test_kink_at_end_crossing;
    envelope_prop;
  ]
