module Rat = Iolb_util.Rat
module Mmap = Map.Make (Monomial)

(* Invariant: no zero coefficient is stored. *)
type t = Rat.t Mmap.t

let zero = Mmap.empty

let monomial c m = if Rat.is_zero c then zero else Mmap.singleton m c
let of_rat c = monomial c Monomial.one
let of_int n = of_rat (Rat.of_int n)
let one = of_int 1
let var x = monomial Rat.one (Monomial.var x)
let terms p = List.map (fun (m, c) -> (c, m)) (Mmap.bindings p)

let add_term m c p =
  if Rat.is_zero c then p
  else
    Mmap.update m
      (function
        | None -> Some c
        | Some c0 ->
            let c' = Rat.add c0 c in
            if Rat.is_zero c' then None else Some c')
      p

let add a b = Mmap.fold add_term b a
let neg p = Mmap.map Rat.neg p
let sub a b = add a (neg b)

let scale k p =
  if Rat.is_zero k then zero else Mmap.map (fun c -> Rat.mul k c) p

let mul a b =
  Mmap.fold
    (fun ma ca acc ->
      Mmap.fold
        (fun mb cb acc -> add_term (Monomial.mul ma mb) (Rat.mul ca cb) acc)
        b acc)
    a zero

let pow p n =
  if n < 0 then invalid_arg "Polynomial.pow: negative exponent";
  let rec go acc base n =
    if n = 0 then acc
    else if n land 1 = 1 then go (mul acc base) (mul base base) (n asr 1)
    else go acc (mul base base) (n asr 1)
  in
  go one p n

let equal = Mmap.equal Rat.equal
let compare = Mmap.compare Rat.compare
let is_zero = Mmap.is_empty

let is_constant p =
  if is_zero p then Some Rat.zero
  else
    match Mmap.bindings p with
    | [ (m, c) ] when Monomial.is_one m -> Some c
    | _ -> None

let degree p = Mmap.fold (fun m _ acc -> Stdlib.max acc (Monomial.degree m)) p 0

let degree_in x p =
  Mmap.fold (fun m _ acc -> Stdlib.max acc (Monomial.degree_in x m)) p 0

let vars p =
  let module Sset = Set.Make (String) in
  Mmap.fold
    (fun m _ acc -> List.fold_left (fun s x -> Sset.add x s) acc (Monomial.vars m))
    p Sset.empty
  |> Sset.elements

let eval env p =
  Mmap.fold
    (fun m c acc -> Rat.add acc (Rat.mul c (Monomial.eval env m)))
    p Rat.zero

let eval_int bindings p =
  let env x =
    match List.assoc_opt x bindings with
    | Some v -> Rat.of_int v
    | None -> raise Not_found
  in
  eval env p

let eval_float_env value p =
  Mmap.fold
    (fun m c acc ->
      let term =
        List.fold_left
          (fun t (x, e) -> t *. (value x ** float_of_int e))
          (Rat.to_float c) (Monomial.to_list m)
      in
      acc +. term)
    p 0.

let eval_float bindings p =
  let value x =
    match List.assoc_opt x bindings with
    | Some v -> float_of_int v
    | None -> raise Not_found
  in
  eval_float_env value p

let as_univariate x p =
  let d = degree_in x p in
  let coeffs = Array.make (d + 1) zero in
  Mmap.iter
    (fun m c ->
      let e = Monomial.degree_in x m in
      let rest =
        match Monomial.divide m (Monomial.pow (Monomial.var x) e) with
        | Some r -> r
        | None -> assert false
      in
      coeffs.(e) <- add_term rest c coeffs.(e))
    p;
  Array.to_list coeffs

let subst x q p =
  List.fold_left
    (fun (acc, xpow) c -> (add acc (mul c xpow), mul xpow q))
    (zero, one) (as_univariate x p)
  |> fst

(* Faulhaber polynomials F_m("n") = sum_{k=0}^{n} k^m, computed by the
   telescoping recurrence
     (n+1)^{m+1} - 0^{m+1} = sum_{i=0}^{m} C(m+1,i) F_i(n). *)
let faulhaber_cache : (int, t) Hashtbl.t = Hashtbl.create 16

let binomial n k =
  let k = Stdlib.min k (n - k) in
  let rec go acc i = if i > k then acc else go (acc * (n - k + i) / i) (i + 1) in
  go 1 1

let rec faulhaber m =
  if m < 0 then invalid_arg "Polynomial.faulhaber: negative power";
  match Hashtbl.find_opt faulhaber_cache m with
  | Some p -> p
  | None ->
      let n = var "n" in
      let p =
        if m = 0 then add n one
        else
          let lhs = pow (add n one) (m + 1) in
          let rec acc_lower i acc =
            if i >= m then acc
            else
              acc_lower (i + 1)
                (add acc (scale (Rat.of_int (binomial (m + 1) i)) (faulhaber i)))
          in
          let rhs = acc_lower 0 zero in
          scale (Rat.inv (Rat.of_int (m + 1))) (sub lhs rhs)
      in
      Hashtbl.add faulhaber_cache m p;
      p

let sum_over x ~lo ~hi p =
  if degree_in x lo > 0 || degree_in x hi > 0 then
    invalid_arg "Polynomial.sum_over: bound depends on the summation variable";
  let coeffs = as_univariate x p in
  (* sum_{k=lo}^{hi} k^m = F_m(hi) - F_m(lo - 1). *)
  List.fold_left
    (fun (acc, m) c ->
      let fm = faulhaber m in
      let s = sub (subst "n" hi fm) (subst "n" (sub lo one) fm) in
      (add acc (mul c s), m + 1))
    (zero, 0) coeffs
  |> fst

let leading_terms p =
  let d = degree p in
  Mmap.filter (fun m _ -> Monomial.degree m = d) p

let pp fmt p =
  if is_zero p then Format.pp_print_string fmt "0"
  else
    let pp_term first fmt (c, m) =
      let mag = Rat.abs c in
      let prefix =
        if first then if Rat.sign c < 0 then "-" else ""
        else if Rat.sign c < 0 then " - "
        else " + "
      in
      if Monomial.is_one m then Format.fprintf fmt "%s%a" prefix Rat.pp mag
      else if Rat.equal mag Rat.one then
        Format.fprintf fmt "%s%a" prefix Monomial.pp m
      else Format.fprintf fmt "%s%a*%a" prefix Rat.pp mag Monomial.pp m
    in
    (* Print highest-degree terms first for readability. *)
    let ts =
      List.sort
        (fun (_, m1) (_, m2) ->
          match Stdlib.compare (Monomial.degree m2) (Monomial.degree m1) with
          | 0 -> Monomial.compare m1 m2
          | c -> c)
        (terms p)
    in
    List.iteri (fun i t -> pp_term (i = 0) fmt t) ts

let to_string p = Format.asprintf "%a" pp p

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( ~- ) = neg
end
