(* Parametric-objective simplex: hand-checked region decompositions, the
   degenerate corners (infeasible, unbounded, point intervals), and a
   property cross-checking emitted regions against the plain simplex with
   the objective instantiated at sampled parameter values. *)

module S = Iolb_lp.Simplex
module P = Iolb_lp.Psimplex
module Rat = Iolb_util.Rat
module Budget = Iolb_util.Budget

let rat = Alcotest.testable Rat.pp Rat.equal

let regions_exn name = function
  | P.Regions rs -> rs
  | P.Infeasible -> Alcotest.failf "%s: unexpectedly infeasible" name
  | P.Unbounded_at t ->
      Alcotest.failf "%s: unexpectedly unbounded at %s" name (Rat.to_string t)

let test_two_regions () =
  (* min (1 - 2t) x over x + y <= 1: t < 1/2 -> 0 at origin; t > 1/2 ->
     1 - 2t at x = 1. *)
  let outcome =
    P.minimize
      ~cost:[| P.pc 1 ~slope:(-2); P.pc 0 |]
      ~lo:Rat.zero ~hi:Rat.one
      [ S.constr [ 1; 1 ] S.Le 1 ]
  in
  let rs = regions_exn "two regions" outcome in
  Alcotest.(check int) "two regions" 2 (List.length rs);
  let r0 = List.nth rs 0 and r1 = List.nth rs 1 in
  Alcotest.check rat "r0.lo" Rat.zero r0.P.lo;
  Alcotest.(check (option rat)) "r0.hi" (Some Rat.half) r0.P.hi;
  Alcotest.check rat "r0 value" Rat.zero (P.value_at r0 Rat.zero);
  Alcotest.check rat "r1.lo" Rat.half r1.P.lo;
  Alcotest.(check (option rat)) "r1.hi" (Some Rat.one) r1.P.hi;
  Alcotest.check rat "r1 value at 1" (Rat.of_int (-1)) (P.value_at r1 Rat.one);
  (* Both regions agree at the shared breakpoint. *)
  Alcotest.check rat "continuous at 1/2" (P.value_at r0 Rat.half)
    (P.value_at r1 Rat.half);
  Alcotest.check rat "vertex moved" Rat.one r1.P.solution.(0)

let test_single_region_constant () =
  (* Slope-free cost: one region covering the whole interval. *)
  let outcome =
    P.minimize
      ~cost:[| P.pc 2; P.pc 1 |]
      ~lo:Rat.zero ~hi:(Rat.of_int 10)
      [ S.constr [ 1; 1 ] S.Ge 3 ]
  in
  match regions_exn "constant" outcome with
  | [ r ] ->
      Alcotest.check rat "value 3" (Rat.of_int 3) (P.value_at r Rat.zero);
      Alcotest.check rat "slope 0" Rat.zero r.P.slope
  | rs -> Alcotest.failf "expected 1 region, got %d" (List.length rs)

let test_infeasible () =
  let outcome =
    P.minimize ~cost:[| P.pc 1 |] ~lo:Rat.zero
      [ S.constr [ 1 ] S.Le 1; S.constr [ 1 ] S.Ge 2 ]
  in
  Alcotest.(check bool) "infeasible" true (outcome = P.Infeasible)

let test_unbounded () =
  (* min (t - 1) x, x unconstrained above: unbounded for t < 1.  Swept
     from 0 the very first optimisation detects the ray. *)
  let outcome =
    P.minimize
      ~cost:[| P.pcost (Rat.of_int (-1)) ~slope:Rat.one |]
      ~lo:Rat.zero ~hi:(Rat.of_int 2)
      [ S.constr [ -1 ] S.Le 1 ]
  in
  (match outcome with
  | P.Unbounded_at t -> Alcotest.check rat "at 0" Rat.zero t
  | _ -> Alcotest.fail "expected unbounded");
  (* Swept from 1 the reduced cost is 0 with positive slope: bounded,
     optimum 0 everywhere on [1, 2]. *)
  let outcome =
    P.minimize
      ~cost:[| P.pcost (Rat.of_int (-1)) ~slope:Rat.one |]
      ~lo:Rat.one ~hi:(Rat.of_int 2)
      [ S.constr [ -1 ] S.Le 1 ]
  in
  match regions_exn "bounded tail" outcome with
  | [ r ] -> Alcotest.check rat "zero" Rat.zero (P.value_at r Rat.one)
  | rs -> Alcotest.failf "expected 1 region, got %d" (List.length rs)

let test_point_interval () =
  let outcome =
    P.minimize
      ~cost:[| P.pc 1 ~slope:(-2); P.pc 0 |]
      ~lo:Rat.half ~hi:Rat.half
      [ S.constr [ 1; 1 ] S.Le 1 ]
  in
  match regions_exn "point" outcome with
  | [ r ] ->
      Alcotest.check rat "value at the tie" Rat.zero (P.value_at r Rat.half)
  | rs -> Alcotest.failf "expected 1 region, got %d" (List.length rs)

let test_empty_interval_rejected () =
  Alcotest.check_raises "lo > hi"
    (Invalid_argument "Psimplex.minimize: empty parameter interval") (fun () ->
      ignore
        (P.minimize ~cost:[| P.pc 1 |] ~lo:Rat.one ~hi:Rat.zero
           [ S.constr [ 1 ] S.Le 1 ]))

let test_budget_checkpoints () =
  (* Crossing the breakpoint requires a pivot, and every sweep pivot
     checkpoints the Derivation stage - so a fault on the first
     checkpoint must surface as Exhausted. *)
  let budget = Budget.make ~fault:(Budget.Derivation, 1) () in
  Alcotest.check_raises "fault fires" (Budget.Exhausted Budget.Derivation)
    (fun () ->
      ignore
        (P.minimize ~budget
           ~cost:[| P.pc 1 ~slope:(-2); P.pc 0 |]
           ~lo:Rat.zero ~hi:Rat.one
           [ S.constr [ 1; 1 ] S.Le 1 ]))

(* Property: on random small LPs the region decomposition is ordered,
   contiguous, covers [lo, hi], and at sampled parameter values (region
   endpoints and midpoints) the region value and vertex match the plain
   simplex with the cost instantiated at that value. *)
let gen_plp =
  let open QCheck2.Gen in
  let small = int_range (-4) 4 in
  let nvars = 2 in
  let gen_constr =
    let* a = small and* b = small and* rhs = int_range 0 6 in
    return (S.constr [ a; b ] S.Le rhs)
  in
  let* ncons = int_range 1 4 in
  let* cs = list_size (return ncons) gen_constr in
  let* cost =
    list_size (return nvars)
      (let* c = small and* s = small in
       return (P.pc c ~slope:s))
  in
  return (cs, Array.of_list cost)

let instantiate cost theta =
  Array.map
    (fun (c : P.pcost) -> Rat.add c.P.const (Rat.mul theta c.P.slope))
    cost

let prop_regions_match_plain (cs, cost) =
  let lo = Rat.of_int (-2) and hi = Rat.of_int 2 in
  (* x <= 2 bounds keep every instance bounded, so the sweep always
     returns regions for a feasible system. *)
  let cs = S.constr [ 1; 0 ] S.Le 2 :: S.constr [ 0; 1 ] S.Le 2 :: cs in
  match P.minimize ~cost ~lo ~hi cs with
  | P.Unbounded_at _ -> false (* impossible: polytope is bounded *)
  | P.Infeasible -> S.minimize ~cost:(instantiate cost lo) cs = S.Infeasible
  | P.Regions rs ->
      let covered = ref lo in
      List.for_all
        (fun (r : P.region) ->
          let hi_r = match r.P.hi with Some h -> h | None -> hi in
          let contiguous = Rat.equal r.P.lo !covered in
          covered := hi_r;
          let mid = Rat.mul Rat.half (Rat.add r.P.lo hi_r) in
          let samples = [ r.P.lo; mid; hi_r ] in
          contiguous
          && List.for_all
               (fun theta ->
                 match S.minimize ~cost:(instantiate cost theta) cs with
                 | S.Optimal { value; _ } ->
                     Rat.equal value (P.value_at r theta)
                 | _ -> false)
               samples)
        rs
      && Rat.equal !covered hi

let prop =
  QCheck2.Test.make ~count:300 ~name:"psimplex regions match plain simplex"
    ~print:(fun (cs, cost) ->
      Format.asprintf "%d constraints; cost [%s]" (List.length cs)
        (String.concat "; "
           (Array.to_list
              (Array.map
                 (fun (c : P.pcost) ->
                   Format.asprintf "%a + %a t" Rat.pp c.P.const Rat.pp
                     c.P.slope)
                 cost))))
    gen_plp prop_regions_match_plain

let suite =
  [
    Alcotest.test_case "two regions" `Quick test_two_regions;
    Alcotest.test_case "constant cost" `Quick test_single_region_constant;
    Alcotest.test_case "infeasible" `Quick test_infeasible;
    Alcotest.test_case "unbounded" `Quick test_unbounded;
    Alcotest.test_case "point interval" `Quick test_point_interval;
    Alcotest.test_case "empty interval" `Quick test_empty_interval_rejected;
    Alcotest.test_case "budget checkpoints" `Quick test_budget_checkpoints;
    QCheck_alcotest.to_alcotest prop;
  ]
