module Affine = Iolb_poly.Affine
module Constr = Iolb_poly.Constr
module P = Iolb_symbolic.Polynomial

type stmt = { name : string; writes : Access.t list; reads : Access.t list }

type node =
  | Loop of {
      var : string;
      lo : Affine.t;
      hi : Affine.t;
      rev : bool;
      body : node list;
    }
  | Stmt of stmt

type t = {
  name : string;
  params : string list;
  assumptions : Constr.t list;
  body : node list;
}

let loop var lo hi body = Loop { var; lo; hi; rev = false; body }

let loop_lt var lo hi_excl body =
  Loop { var; lo; hi = Affine.sub hi_excl (Affine.const 1); rev = false; body }

let loop_rev var lo hi body = Loop { var; lo; hi; rev = true; body }

let stmt name ~writes ~reads = Stmt { name; writes; reads }

let rec check_node params path seen_names = function
  | Stmt s ->
      if List.mem s.name !seen_names then
        invalid_arg (Printf.sprintf "Program.make: duplicate statement %s" s.name);
      seen_names := s.name :: !seen_names;
      let visible = path @ params in
      let check_access a =
        List.iter
          (fun x ->
            if not (List.mem x visible) then
              invalid_arg
                (Printf.sprintf
                   "Program.make: access %s in statement %s uses unbound %s"
                   (Format.asprintf "%a" Access.pp a)
                   s.name x))
          (Access.dims_used a)
      in
      List.iter check_access s.writes;
      List.iter check_access s.reads
  | Loop { var; lo; hi; rev = _; body } ->
      if List.mem var path then
        invalid_arg (Printf.sprintf "Program.make: loop variable %s shadows" var);
      let visible = path @ params in
      List.iter
        (fun e ->
          List.iter
            (fun x ->
              if not (List.mem x visible) then
                invalid_arg
                  (Printf.sprintf "Program.make: loop bound uses unbound %s" x))
            (Affine.vars e))
        [ lo; hi ];
      List.iter (check_node params (var :: path) seen_names) body

let make ~name ~params ~assumptions body =
  let seen = ref [] in
  List.iter (check_node params [] seen) body;
  { name; params; assumptions; body }

(* Structural equality.  Polymorphic compare is unsound here: [Affine.t]
   is a balanced map whose internal shape can differ between equal
   expressions, so every affine leaf goes through [Affine.equal]. *)
let stmt_equal (a : stmt) (b : stmt) =
  String.equal a.name b.name
  && List.equal Access.equal a.writes b.writes
  && List.equal Access.equal a.reads b.reads

let rec node_equal a b =
  match (a, b) with
  | Stmt sa, Stmt sb -> stmt_equal sa sb
  | ( Loop { var = v1; lo = lo1; hi = hi1; rev = r1; body = b1 },
      Loop { var = v2; lo = lo2; hi = hi2; rev = r2; body = b2 } ) ->
      String.equal v1 v2 && Affine.equal lo1 lo2 && Affine.equal hi1 hi2
      && r1 = r2
      && List.equal node_equal b1 b2
  | Stmt _, Loop _ | Loop _, Stmt _ -> false

let equal a b =
  String.equal a.name b.name
  && List.equal String.equal a.params b.params
  && List.equal Constr.equal a.assumptions b.assumptions
  && List.equal node_equal a.body b.body

type stmt_info = {
  def : stmt;
  dims : string list;
  bounds : (string * Affine.t * Affine.t) list;
  path : int list;
}

let statements p =
  let counter = ref 0 in
  let rec walk bounds path acc = function
    | Stmt def ->
        {
          def;
          dims = List.map (fun (v, _, _) -> v) (List.rev bounds);
          bounds = List.rev bounds;
          path = List.rev path;
        }
        :: acc
    | Loop { var; lo; hi; rev = _; body } ->
        let id = !counter in
        incr counter;
        List.fold_left (walk ((var, lo, hi) :: bounds) (id :: path)) acc body
  in
  List.rev (List.fold_left (fun acc n -> walk [] [] acc n) [] p.body)

let shared_loop_vars a b =
  let rec go vars pa pb =
    match (vars, pa, pb) with
    | v :: vars, ia :: pa, ib :: pb when ia = ib -> v :: go vars pa pb
    | _ -> []
  in
  go a.dims a.path b.path

let find_stmt p name =
  match List.find_opt (fun i -> i.def.name = name) (statements p) with
  | Some i -> i
  | None -> raise Not_found

let cardinal info =
  List.fold_left
    (fun inner (v, lo, hi) ->
      P.sum_over v ~lo:(Affine.to_polynomial lo) ~hi:(Affine.to_polynomial hi)
        inner)
    P.one (List.rev info.bounds)

(* Adversarial substitution of the outer dimensions into an affine
   expression: replaces each outer variable, innermost first, by whichever
   of its bounds drives the expression towards its minimum (for
   [extent_min]) or maximum (for [extent_max]). *)
let extremize ~minimize info expr =
  let rec go expr = function
    | [] -> expr
    | (v, lo, hi) :: outer_rest ->
        let c = Affine.coeff v expr in
        let expr =
          if c = 0 then expr
          else
            let bound =
              if (c > 0) = minimize then lo else hi
            in
            Affine.subst v bound expr
        in
        go expr outer_rest
  in
  (* bounds are listed outermost first; process innermost first. *)
  go expr (List.rev info.bounds)

let trip_count (_, lo, hi) =
  Affine.add (Affine.sub hi lo) (Affine.const 1)

let find_bound info x =
  match List.find_opt (fun (v, _, _) -> v = x) info.bounds with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Program: %s is not a dimension" x)

let extent_min info x = extremize ~minimize:true info (trip_count (find_bound info x))
let extent_max info x = extremize ~minimize:false info (trip_count (find_bound info x))
