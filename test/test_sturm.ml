(* Sturm sequences: root isolation on hand-picked polynomials plus a
   property against known integer roots of random cubics. *)

module St = Iolb_symbolic.Sturm
module Poly = Iolb_symbolic.Polynomial
module Rat = Iolb_util.Rat

let q = Rat.of_int

let test_isolate_quadratic () =
  let p = St.of_coeffs [ q (-2); q 0; q 1 ] in
  let roots = St.isolate_roots p ~lo:(q (-3)) ~hi:(q 3) in
  Alcotest.(check int) "two roots" 2 (List.length roots);
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        "width <= 1" true
        (Rat.compare (Rat.sub b a) Rat.one <= 0);
      Alcotest.(check bool)
        "sign change" true
        (Rat.sign (St.eval p a) * Rat.sign (St.eval p b) < 0))
    roots

(* A product of linear factors, built with {!Poly} and viewed in x. *)
let product_of_roots roots =
  let open Poly.Infix in
  St.of_polynomial ~var:"x"
    (List.fold_left
       (fun acc r -> acc * (Poly.var "x" - Poly.of_int r))
       Poly.one roots)

let test_isolate_multiple_root () =
  (* (x - 1)^2 (x + 2): a double root counts once. *)
  let p = product_of_roots [ 1; 1; -2 ] in
  let roots = St.isolate_roots p ~lo:(q (-5)) ~hi:(q 5) in
  Alcotest.(check int) "two distinct roots" 2 (List.length roots)

let test_of_polynomial () =
  let open Poly.Infix in
  let m = Poly.var "M" in
  let p = (m * m) - Poly.of_int 4 in
  let u = St.of_polynomial ~var:"M" p in
  Alcotest.(check int) "degree 2" 2 (St.degree u);
  Alcotest.(check bool)
    "root at 2" true
    (Rat.is_zero (St.eval u (q 2)));
  Alcotest.check_raises "multivariate rejected" St.Gave_up (fun () ->
      ignore (St.of_polynomial ~var:"M" (m * Poly.var "N")))

let prop_isolate_cubic =
  (* Against closed-form: (x - a)(x - b)(x - c) with known integer roots. *)
  let open QCheck2 in
  let gen =
    let open Gen in
    let* a = int_range (-8) 8 and* b = int_range (-8) 8
    and* c = int_range (-8) 8 in
    return (a, b, c)
  in
  Test.make ~count:200 ~name:"sturm isolates integer cubic roots"
    ~print:(fun (a, b, c) -> Printf.sprintf "(%d, %d, %d)" a b c)
    gen
    (fun (a, b, c) ->
      let p = product_of_roots [ a; b; c ] in
      let expected = List.sort_uniq compare [ a; b; c ] in
      let got = St.isolate_roots p ~lo:(q (-10)) ~hi:(q 10) in
      List.length got = List.length expected
      && List.for_all2
           (fun r (x, y) ->
             Rat.compare x (q r) < 0 && Rat.compare (q r) y <= 0)
           expected got)

let suite =
  [
    Alcotest.test_case "isolate quadratic" `Quick test_isolate_quadratic;
    Alcotest.test_case "multiple root" `Quick test_isolate_multiple_root;
    Alcotest.test_case "of_polynomial" `Quick test_of_polynomial;
    QCheck_alcotest.to_alcotest prop_isolate_cubic;
  ]
