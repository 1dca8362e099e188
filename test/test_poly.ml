(* Affine expressions: evaluation, coefficients, substitution. *)

module A = Iolb_poly.Affine

let v = A.var
let c = A.const

let test_affine_ops () =
  let e = A.of_terms [ (2, "i"); (-1, "j") ] 3 in
  Alcotest.(check int) "eval" 4 (A.eval (function "i" -> 2 | _ -> 3) e);
  Alcotest.(check int) "coeff i" 2 (A.coeff "i" e);
  Alcotest.(check int) "coeff absent" 0 (A.coeff "z" e);
  let e' = A.subst "i" (A.add (v "k") (c 1)) e in
  (* 2(k+1) - j + 3 = 2k - j + 5 *)
  Alcotest.(check bool) "subst" true
    (A.equal e' (A.of_terms [ (2, "k"); (-1, "j") ] 5))

let suite =
  [ Alcotest.test_case "affine expression operations" `Quick test_affine_ops ]
