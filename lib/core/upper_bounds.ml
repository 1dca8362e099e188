module P = Iolb_symbolic.Polynomial
module R = Iolb_symbolic.Ratfun
module Rat = Iolb_util.Rat

type cost = { reads : P.t; writes : P.t; cache_needed : P.t }

let m = P.var "M"
let n = P.var "N"
let b = P.var "B"
let half = Rat.half

(* The Appendix cost models keep 1/B as a formal entity by multiplying the
   streamed term by B^-1... polynomials cannot express 1/B, so the "reads"
   polynomials below use the convention that the dominant streamed term is
   stored divided by B via an explicit inverse variable: instead we model
   reads * B (see [total]'s callers).  To keep the interface plain, we
   store reads as a polynomial in B^-1 encoded by substituting Binv = 1/B:
   reads = streamed * Binv + fixed.  The variable is named "Binv". *)
let binv = P.var "Binv"

let mgs_tiled =
  {
    reads = P.add (P.scale half (P.mul (P.mul m (P.mul n n)) binv)) (P.mul m n);
    writes = P.add (P.mul m n) (P.scale half (P.mul n n));
    cache_needed = P.mul m (P.add b P.one);
  }

let a2v_tiled =
  {
    reads =
      P.add
        (P.scale half
           (P.mul
              (P.sub (P.mul m (P.mul n n)) (P.scale (Rat.make 1 3) (P.mul n (P.mul n n))))
              binv))
        (P.mul m n);
    writes = P.mul m n;
    cache_needed = P.mul m (P.add b P.one);
  }

let total c = P.add c.reads c.writes

let substitute_block p ~num ~den =
  (* p is a polynomial in B and Binv (each appearing with non-negative
     exponents); substitute B = num/den and Binv = den/num. *)
  let rb = R.make num den in
  let rbinv = R.make den num in
  (* Two-stage composition: first B, then Binv. *)
  let compose var value poly =
    List.fold_left
      (fun (acc, power) coeff ->
        (R.add acc (R.mul (R.of_poly coeff) power), R.mul power value))
      (R.zero, R.one)
      (P.as_univariate var poly)
    |> fst
  in
  let after_b = compose "B" rb p in
  (* after_b is a Ratfun; its numerator may still contain Binv.  Compose on
     the numerator and divide by the (Binv-free) denominator. *)
  let num_r = compose "Binv" rbinv (R.num after_b) in
  R.div num_r (R.of_poly (R.den after_b))

let gap ~upper ~lower bindings =
  let env x =
    match List.assoc_opt x bindings with
    | Some v -> float_of_int v
    | None ->
        if x = "sqrtS" then
          sqrt (float_of_int (List.assoc "S" bindings))
        else raise Not_found
  in
  R.eval_float_env env upper /. R.eval_float_env env lower
