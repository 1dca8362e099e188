type kind = Ge | Eq

type t = { expr : Affine.t; kind : kind }

let ge expr = { expr; kind = Ge }
let eq expr = { expr; kind = Eq }
let le_of a b = ge (Affine.sub b a)
let ge_of a b = ge (Affine.sub a b)
let eq_of a b = eq (Affine.sub a b)
let lt_of a b = ge (Affine.sub (Affine.sub b a) (Affine.const 1))

let satisfied env c =
  let v = Affine.eval env c.expr in
  match c.kind with Ge -> v >= 0 | Eq -> v = 0

let equal a b = a.kind = b.kind && Affine.equal a.expr b.expr

let compare a b =
  match Stdlib.compare a.kind b.kind with
  | 0 -> Affine.compare a.expr b.expr
  | c -> c

let pp fmt c =
  Format.fprintf fmt "%a %s 0" Affine.pp c.expr
    (match c.kind with Ge -> ">=" | Eq -> "=")
