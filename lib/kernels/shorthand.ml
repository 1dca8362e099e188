(* Shorthands for building programs in OCaml: the Appendix A tiled
   orderings here and the certifier's generated programs
   (lib/check/spec.ml) open it locally. *)

module Affine = Iolb_poly.Affine
module Constr = Iolb_poly.Constr
module Access = Iolb_ir.Access
module Program = Iolb_ir.Program

let v = Affine.var
let c = Affine.const
let ( +! ) = Affine.add
let ( -! ) = Affine.sub

(* 2-D, 1-D and scalar accesses. *)
let a2 name i j = Access.make name [ i; j ]
let a1 name i = Access.make name [ i ]
let sc = Access.scalar

let loop = Program.loop
let loop_lt = Program.loop_lt
let stmt = Program.stmt
