(* Exact simplex: hand-checked LPs, infeasibility/unboundedness detection,
   and optimality cross-checked against brute-force vertex enumeration on
   random small instances. *)

module S = Iolb_lp.Simplex
module Rat = Iolb_util.Rat

(* A maximum is the negated minimum of the negated cost. *)
let maximize ~cost cons =
  match S.minimize ~cost:(Array.map Rat.neg cost) cons with
  | S.Optimal { value; solution } -> S.Optimal { value = Rat.neg value; solution }
  | (S.Infeasible | S.Unbounded) as o -> o

let check_optimal name expected outcome =
  match outcome with
  | S.Optimal { value; _ } ->
      Alcotest.(check string) name (Rat.to_string expected) (Rat.to_string value)
  | S.Infeasible -> Alcotest.failf "%s: unexpectedly infeasible" name
  | S.Unbounded -> Alcotest.failf "%s: unexpectedly unbounded" name

let test_basic_max () =
  (* max 3x + 2y st x + y <= 4, x + 3y <= 6 -> x=4, y=0, value 12. *)
  let outcome =
    maximize
      ~cost:[| Rat.of_int 3; Rat.of_int 2 |]
      [ S.constr [ 1; 1 ] S.Le 4; S.constr [ 1; 3 ] S.Le 6 ]
  in
  check_optimal "max 12" (Rat.of_int 12) outcome

let test_basic_min_with_ge () =
  (* min x + y st x + 2y >= 4, 3x + y >= 6 -> intersection (8/5, 6/5), 14/5. *)
  let outcome =
    S.minimize
      ~cost:[| Rat.one; Rat.one |]
      [ S.constr [ 1; 2 ] S.Ge 4; S.constr [ 3; 1 ] S.Ge 6 ]
  in
  check_optimal "min 14/5" (Rat.make 14 5) outcome

let test_equality () =
  (* min 2x + y st x + y = 3, x <= 1 -> x=0, y=3, value 3. *)
  let outcome =
    S.minimize
      ~cost:[| Rat.of_int 2; Rat.one |]
      [ S.constr [ 1; 1 ] S.Eq 3; S.constr [ 1; 0 ] S.Le 1 ]
  in
  check_optimal "min 3" (Rat.of_int 3) outcome;
  (* max 2x + y under the same constraints -> x=1, y=2, value 4. *)
  let outcome =
    maximize
      ~cost:[| Rat.of_int 2; Rat.one |]
      [ S.constr [ 1; 1 ] S.Eq 3; S.constr [ 1; 0 ] S.Le 1 ]
  in
  check_optimal "max 4" (Rat.of_int 4) outcome

let test_infeasible () =
  let outcome =
    S.minimize ~cost:[| Rat.one |]
      [ S.constr [ 1 ] S.Le 1; S.constr [ 1 ] S.Ge 2 ]
  in
  Alcotest.(check bool) "infeasible" true (outcome = S.Infeasible)

let test_unbounded () =
  let outcome = maximize ~cost:[| Rat.one |] [ S.constr [ -1 ] S.Le 1 ] in
  Alcotest.(check bool) "unbounded" true (outcome = S.Unbounded)

let test_degenerate () =
  (* Degenerate vertex (multiple constraints active); Bland's rule must not
     cycle.  min -x - y st x <= 1, y <= 1, x + y <= 2. *)
  let outcome =
    S.minimize
      ~cost:[| Rat.minus_one; Rat.minus_one |]
      [ S.constr [ 1; 0 ] S.Le 1; S.constr [ 0; 1 ] S.Le 1; S.constr [ 1; 1 ] S.Le 2 ]
  in
  check_optimal "min -2" (Rat.of_int (-2)) outcome

let test_beale_cycling () =
  (* Beale's classic cycling example: under Dantzig's most-negative rule
     with naive tie-breaking the tableau cycles; Bland's rule must reach
     the optimum -1/20 at x = (1/25, 0, 1, 0). *)
  let c a b = Rat.make a b in
  let outcome =
    S.minimize
      ~cost:[| c (-3) 4; Rat.of_int 150; c (-1) 50; Rat.of_int 6 |]
      [
        S.{ coeffs = [| c 1 4; Rat.of_int (-60); c (-1) 25; Rat.of_int 9 |];
            rel = Le; rhs = Rat.zero };
        S.{ coeffs = [| c 1 2; Rat.of_int (-90); c (-1) 50; Rat.of_int 3 |];
            rel = Le; rhs = Rat.zero };
        S.{ coeffs = [| Rat.zero; Rat.zero; Rat.one; Rat.zero |];
            rel = Le; rhs = Rat.one };
      ]
  in
  (match outcome with
  | S.Optimal { value; solution } ->
      Alcotest.(check string) "Beale optimum" "-1/20" (Rat.to_string value);
      Alcotest.(check string) "x6 at its cap" "1" (Rat.to_string solution.(2))
  | S.Infeasible | S.Unbounded ->
      Alcotest.fail "Beale LP must have a finite optimum");
  (* And the same tableau is fine under maximization (value 0 at the
     origin: all profitable directions are blocked by the <= 0 rows). *)
  match
    maximize
      ~cost:[| c (-3) 4; Rat.of_int 150; c (-1) 50; Rat.of_int 6 |]
      [
        S.{ coeffs = [| c 1 4; Rat.of_int (-60); c (-1) 25; Rat.of_int 9 |];
            rel = Le; rhs = Rat.zero };
        S.{ coeffs = [| Rat.zero; Rat.zero; Rat.one; Rat.zero |];
            rel = Le; rhs = Rat.one };
      ]
  with
  | S.Optimal _ | S.Unbounded -> ()
  | S.Infeasible -> Alcotest.fail "origin is feasible"

let test_mgs_bl_lp () =
  (* The Brascamp-Lieb LP for a 3D statement with the three 2D canonical
     projections: min s1+s2+s3 with every dim covered twice -> 3/2. *)
  let cost = [| Rat.one; Rat.one; Rat.one |] in
  let cons =
    [
      (* dim i in {ij}, {ik} *)
      S.constr [ 1; 1; 0 ] S.Ge 1;
      S.constr [ 1; 0; 1 ] S.Ge 1;
      S.constr [ 0; 1; 1 ] S.Ge 1;
      (* pairs *)
      S.constr [ 2; 1; 1 ] S.Ge 2;
      S.constr [ 1; 2; 1 ] S.Ge 2;
      S.constr [ 1; 1; 2 ] S.Ge 2;
      (* full space *)
      S.constr [ 2; 2; 2 ] S.Ge 3;
      S.constr [ 1; 0; 0 ] S.Le 1;
      S.constr [ 0; 1; 0 ] S.Le 1;
      S.constr [ 0; 0; 1 ] S.Le 1;
    ]
  in
  check_optimal "rho = 3/2" (Rat.make 3 2) (S.minimize ~cost cons)

(* Brute-force check on random 2-variable LPs with <=-constraints: the
   optimum over the polytope equals the best over all candidate vertices
   (constraint-pair intersections and axis intersections). *)
let random_lp_test =
  let gen =
    let open QCheck2.Gen in
    let constr = triple (int_range (-4) 4) (int_range (-4) 4) (int_range 0 8) in
    pair
      (pair (int_range (-5) 5) (int_range (-5) 5))
      (list_size (int_range 1 5) constr)
  in
  let feasible cons (x, y) =
    Rat.sign x >= 0 && Rat.sign y >= 0
    && List.for_all
         (fun (a, b, c) ->
           Rat.compare
             (Rat.add (Rat.mul (Rat.of_int a) x) (Rat.mul (Rat.of_int b) y))
             (Rat.of_int c)
           <= 0)
         cons
  in
  let vertices cons =
    (* Pairwise intersections of boundary lines, including the axes. *)
    let lines =
      ((1, 0, 0) :: (0, 1, 0) :: List.map (fun (a, b, c) -> (a, b, c)) cons)
      |> List.map (fun (a, b, c) -> (Rat.of_int a, Rat.of_int b, Rat.of_int c))
    in
    let rec pairs = function
      | [] -> []
      | l :: tl -> List.map (fun l' -> (l, l')) tl @ pairs tl
    in
    List.filter_map
      (fun ((a1, b1, c1), (a2, b2, c2)) ->
        let det = Rat.sub (Rat.mul a1 b2) (Rat.mul a2 b1) in
        if Rat.is_zero det then None
        else
          let x = Rat.div (Rat.sub (Rat.mul c1 b2) (Rat.mul c2 b1)) det in
          let y = Rat.div (Rat.sub (Rat.mul a1 c2) (Rat.mul a2 c1)) det in
          Some (x, y))
      (pairs lines)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"2D simplex matches vertex enumeration" ~count:300
       gen
       (fun ((cx, cy), cons_raw) ->
         let cons =
           List.map (fun (a, b, c) -> S.constr [ a; b ] S.Le c) cons_raw
         in
         let cost = [| Rat.of_int cx; Rat.of_int cy |] in
         match maximize ~cost cons with
         | S.Infeasible ->
             (* Origin is always feasible here (rhs >= 0), so never. *)
             false
         | S.Unbounded ->
             (* Accept: hard to cross-check cheaply; covered by other cases. *)
             true
         | S.Optimal { value; _ } ->
             let candidates =
               List.filter (feasible cons_raw) (vertices cons_raw)
             in
             let best =
               List.fold_left
                 (fun acc (x, y) ->
                   let v =
                     Rat.add
                       (Rat.mul (Rat.of_int cx) x)
                       (Rat.mul (Rat.of_int cy) y)
                   in
                   Rat.max acc v)
                 Rat.zero (* origin *) candidates
             in
             Rat.equal value best))

let suite =
  [
    Alcotest.test_case "max with slack" `Quick test_basic_max;
    Alcotest.test_case "min with surplus" `Quick test_basic_min_with_ge;
    Alcotest.test_case "equality constraint" `Quick test_equality;
    Alcotest.test_case "infeasible detected" `Quick test_infeasible;
    Alcotest.test_case "unbounded detected" `Quick test_unbounded;
    Alcotest.test_case "degenerate vertex (Bland)" `Quick test_degenerate;
    Alcotest.test_case "Beale cycling example terminates" `Quick
      test_beale_cycling;
    Alcotest.test_case "Brascamp-Lieb LP of a 3D kernel" `Quick test_mgs_bl_lp;
    random_lp_test;
  ]
