module Program = Iolb_ir.Program
module Access = Iolb_ir.Access
module Affine = Iolb_poly.Affine

type instance = {
  stmt : string;
  vec : int array;
  reads : (string * int array) list;
  writes : (string * int array) list;
}

(* Deliberately naive: every bound and subscript is evaluated through
   [Affine.eval] against an association-list environment, innermost
   binding first (a loop variable shadows a parameter of its name). *)
let iter ~params (p : Program.t) f =
  let rec go env vec = function
    | Program.Stmt s ->
        let lookup x = List.assoc x env in
        f
          {
            stmt = s.name;
            vec = Array.of_list (List.rev vec);
            reads = List.map (Access.eval lookup) s.reads;
            writes = List.map (Access.eval lookup) s.writes;
          }
    | Program.Loop { var; lo; hi; rev; body } ->
        let lookup x = List.assoc x env in
        let lo = Affine.eval lookup lo and hi = Affine.eval lookup hi in
        let visit v = List.iter (go ((var, v) :: env) (v :: vec)) body in
        if rev then for v = hi downto lo do visit v done
        else for v = lo to hi do visit v done
  in
  List.iter (go params []) p.body

let instances ~params p =
  let acc = ref [] in
  iter ~params p (fun i -> acc := i :: !acc);
  List.rev !acc

let accesses ~params p =
  List.concat_map
    (fun i ->
      List.map (fun (a, x) -> (a, x, false)) i.reads
      @ List.map (fun (a, x) -> (a, x, true)) i.writes)
    (instances ~params p)
