module Smap = Map.Make (String)
module P = Iolb_symbolic.Polynomial

(* Invariant: no zero coefficient is stored in [coeffs]. *)
type t = { coeffs : int Smap.t; const : int }

let zero = { coeffs = Smap.empty; const = 0 }
let const c = { coeffs = Smap.empty; const = c }

let term c x =
  if c = 0 then zero else { coeffs = Smap.singleton x c; const = 0 }

let var x = term 1 x

let add a b =
  {
    coeffs =
      Smap.union
        (fun _ ca cb -> if ca + cb = 0 then None else Some (ca + cb))
        a.coeffs b.coeffs;
    const = a.const + b.const;
  }

let neg e = { coeffs = Smap.map (fun c -> -c) e.coeffs; const = -e.const }
let sub a b = add a (neg b)

let scale k e =
  if k = 0 then zero
  else { coeffs = Smap.map (fun c -> k * c) e.coeffs; const = k * e.const }

let coeff x e = try Smap.find x e.coeffs with Not_found -> 0
let constant e = e.const
let vars e = List.map fst (Smap.bindings e.coeffs)

let is_constant e = if Smap.is_empty e.coeffs then Some e.const else None

let equal a b = a.const = b.const && Smap.equal Int.equal a.coeffs b.coeffs

let compare a b =
  match Int.compare a.const b.const with
  | 0 -> Smap.compare Int.compare a.coeffs b.coeffs
  | c -> c

let eval env e =
  Smap.fold (fun x c acc -> acc + (c * env x)) e.coeffs e.const

let subst x e' e =
  let c = coeff x e in
  if c = 0 then e
  else
    let without = { e with coeffs = Smap.remove x e.coeffs } in
    add without (scale c e')

let to_polynomial e =
  Smap.fold
    (fun x c acc -> P.add acc (P.scale (Iolb_util.Rat.of_int c) (P.var x)))
    e.coeffs
    (P.of_int e.const)

let of_terms terms const_ =
  List.fold_left (fun acc (c, x) -> add acc (term c x)) (const const_) terms

let terms e = List.map (fun (x, c) -> (c, x)) (Smap.bindings e.coeffs)

let pp fmt e =
  let ts = terms e in
  if ts = [] then Format.fprintf fmt "%d" e.const
  else begin
    List.iteri
      (fun i (c, x) ->
        let prefix =
          if i = 0 then if c < 0 then "-" else ""
          else if c < 0 then " - "
          else " + "
        in
        let mag = abs c in
        if mag = 1 then Format.fprintf fmt "%s%s" prefix x
        else Format.fprintf fmt "%s%d%s" prefix mag x)
      ts;
    if e.const > 0 then Format.fprintf fmt " + %d" e.const
    else if e.const < 0 then Format.fprintf fmt " - %d" (-e.const)
  end

let to_string e = Format.asprintf "%a" pp e
