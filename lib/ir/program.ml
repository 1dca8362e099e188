module Affine = Iolb_poly.Affine
module Iset = Iolb_poly.Iset
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

let domain info =
  let cons =
    List.concat_map
      (fun (v, lo, hi) ->
        [ Constr.ge_of (Affine.var v) lo; Constr.le_of (Affine.var v) hi ])
      info.bounds
  in
  Iset.make ~dims:info.dims cons

let cardinal info =
  List.fold_left
    (fun inner (v, lo, hi) ->
      P.sum_over v ~lo:(Affine.to_polynomial lo) ~hi:(Affine.to_polynomial hi)
        inner)
    P.one (List.rev info.bounds)

let total_instances p =
  List.fold_left (fun acc i -> P.add acc (cardinal i)) P.zero (statements p)

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

type instance = {
  stmt_name : string;
  vec : int array;
  loads : (string * int array) list;
  stores : (string * int array) list;
}

(* Compiled execution.  Instantiating a program is the hot path of trace
   and CDAG construction; evaluating every bound and index through string
   environments (an [Smap] fold per affine expression) dominates it.  We
   lower the loop tree once per [iter_*] call: each variable (parameter or
   loop var) gets a dense slot in a flat int environment, and every affine
   expression becomes parallel coefficient/slot arrays, so the
   per-iteration work is flat integer arithmetic. *)
type caffine = { cconst : int; ccoefs : int array; cslots : int array }

(* Unsafe indexing is in bounds by construction: [ccoefs] and [cslots]
   have the same length, and every slot is < nslots = length of [env]. *)
let ceval env a =
  let acc = ref a.cconst in
  for k = 0 to Array.length a.cslots - 1 do
    acc :=
      !acc
      + Array.unsafe_get a.ccoefs k
        * Array.unsafe_get env (Array.unsafe_get a.cslots k)
  done;
  !acc

type caccess = {
  carray : string;
  cindex : caffine array;
  cbuf : int array; (* reusable result buffer, one per compiled access *)
}

type cstmt = {
  cname : string;
  cvec : int array; (* slots of the enclosing loop vars, outermost first *)
  cvbuf : int array; (* reusable iteration-vector buffer, one per stmt *)
  creads : caccess array;
  cwrites : caccess array;
}

type cnode =
  | Cstmt of cstmt
  | Cloop of {
      cslot : int;
      clo : caffine;
      chi : caffine;
      crev : bool;
      cbody : cnode array;
    }

(* Raises [Not_found] on a variable bound neither by [params] nor by an
   enclosing loop, like the interpreted evaluator did. *)
let compile ~params p =
  let nslots = ref 0 in
  let scope = ref [] in
  let fresh v =
    let s = !nslots in
    incr nslots;
    scope := (v, s) :: !scope;
    s
  in
  let pinits = List.map (fun (x, v) -> (fresh x, v)) params in
  let slot_of x =
    match List.assoc_opt x !scope with Some s -> s | None -> raise Not_found
  in
  let caffine e =
    let ts = Affine.terms e in
    {
      cconst = Affine.constant e;
      ccoefs = Array.of_list (List.map fst ts);
      cslots = Array.of_list (List.map (fun (_, x) -> slot_of x) ts);
    }
  in
  let caccess (a : Access.t) =
    let cindex = Array.of_list (List.map caffine a.index) in
    { carray = a.array; cindex; cbuf = Array.make (Array.length cindex) 0 }
  in
  let rec cnode path = function
    | Stmt s ->
        let cvec = Array.of_list (List.rev path) in
        Cstmt
          {
            cname = s.name;
            cvec;
            cvbuf = Array.make (Array.length cvec) 0;
            creads = Array.of_list (List.map caccess s.reads);
            cwrites = Array.of_list (List.map caccess s.writes);
          }
    | Loop { var; lo; hi; rev; body } ->
        (* Bounds are evaluated in the enclosing scope: compile them before
           binding [var]. *)
        let clo = caffine lo and chi = caffine hi in
        let saved = !scope in
        let cslot = fresh var in
        let cbody = Array.of_list (List.map (cnode (cslot :: path)) body) in
        scope := saved;
        Cloop { cslot; clo; chi; crev = rev; cbody }
  in
  let cbody = Array.of_list (List.map (cnode []) p.body) in
  (cbody, !nslots, pinits)

let iter_compiled (cbody, nslots, pinits) fstmt =
  let env = Array.make (max nslots 1) 0 in
  List.iter (fun (s, v) -> env.(s) <- v) pinits;
  let rec exec = function
    | Cstmt s -> fstmt env s
    | Cloop l ->
        let lo = ceval env l.clo and hi = ceval env l.chi in
        if l.crev then
          for v = hi downto lo do
            env.(l.cslot) <- v;
            Array.iter exec l.cbody
          done
        else
          for v = lo to hi do
            env.(l.cslot) <- v;
            Array.iter exec l.cbody
          done
  in
  Array.iter exec cbody

let iter_instances ~params p f =
  iter_compiled (compile ~params p) (fun env s ->
      let eval_access a =
        (a.carray, Array.map (fun e -> ceval env e) a.cindex)
      in
      f
        {
          stmt_name = s.cname;
          vec = Array.map (fun slot -> env.(slot)) s.cvec;
          loads = Array.to_list (Array.map eval_access s.creads);
          stores = Array.to_list (Array.map eval_access s.cwrites);
        })

let iter_accesses ~params p ~on_instance ~on_access =
  iter_compiled (compile ~params p) (fun env s ->
      on_instance ();
      let emit is_write a =
        for d = 0 to Array.length a.cindex - 1 do
          a.cbuf.(d) <- ceval env a.cindex.(d)
        done;
        on_access a.carray a.cbuf is_write
      in
      Array.iter (emit false) s.creads;
      Array.iter (emit true) s.cwrites)

let iter_cells ~params p ~on_load ~on_stmt ~on_store =
  iter_compiled (compile ~params p) (fun env s ->
      (* manual loops: no per-instance closures, no per-instance arrays *)
      let reads = s.creads in
      for i = 0 to Array.length reads - 1 do
        let a = Array.unsafe_get reads i in
        for d = 0 to Array.length a.cindex - 1 do
          a.cbuf.(d) <- ceval env a.cindex.(d)
        done;
        on_load a.carray a.cbuf
      done;
      let vec = s.cvec in
      for d = 0 to Array.length vec - 1 do
        s.cvbuf.(d) <- Array.unsafe_get env (Array.unsafe_get vec d)
      done;
      on_stmt s.cname s.cvbuf;
      let writes = s.cwrites in
      for i = 0 to Array.length writes - 1 do
        let a = Array.unsafe_get writes i in
        for d = 0 to Array.length a.cindex - 1 do
          a.cbuf.(d) <- ceval env a.cindex.(d)
        done;
        on_store a.carray a.cbuf
      done)

let count_instances ~params p =
  let n = ref 0 in
  iter_instances ~params p (fun _ -> incr n);
  !n

(* Exact access count without enumerating instances: a loop whose body's
   count does not depend on its variable contributes extent * body-count,
   so rectangular sub-nests collapse to multiplications and only the
   variables that genuinely shape inner bounds (triangular nests) are
   enumerated.  Lets trace builders allocate exactly once. *)
let n_accesses ~params p =
  let cbody, nslots, pinits = compile ~params p in
  let env = Array.make (max nslots 1) 0 in
  List.iter (fun (s, v) -> env.(s) <- v) pinits;
  let aff_uses slot a = Array.exists (fun s -> s = slot) a.cslots in
  let rec node_uses slot = function
    | Cstmt _ -> false (* access indices never affect the count *)
    | Cloop l ->
        aff_uses slot l.clo || aff_uses slot l.chi
        || Array.exists (node_uses slot) l.cbody
  in
  let rec count = function
    | Cstmt s -> Array.length s.creads + Array.length s.cwrites
    | Cloop l ->
        let lo = ceval env l.clo and hi = ceval env l.chi in
        if hi < lo then 0
        else if not (Array.exists (node_uses l.cslot) l.cbody) then begin
          env.(l.cslot) <- lo;
          (hi - lo + 1) * Array.fold_left (fun a c -> a + count c) 0 l.cbody
        end
        else begin
          let total = ref 0 in
          for v = lo to hi do
            env.(l.cslot) <- v;
            Array.iter (fun c -> total := !total + count c) l.cbody
          done;
          !total
        end
  in
  Array.fold_left (fun a c -> a + count c) 0 cbody

let input_arrays ~params p =
  let written = Hashtbl.create 16 in
  let inputs = ref [] in
  iter_instances ~params p (fun inst ->
      List.iter
        (fun (a, cell) ->
          if (not (Hashtbl.mem written (a, cell))) && not (List.mem a !inputs)
          then inputs := a :: !inputs)
        inst.loads;
      List.iter (fun (a, cell) -> Hashtbl.replace written (a, cell) ()) inst.stores);
  List.rev !inputs

let pp fmt p =
  let rec pp_node indent fmt = function
    | Stmt s ->
        Format.fprintf fmt "%s%s: %a = f(%a)\n" indent s.name
          (Format.pp_print_list
             ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
             Access.pp)
          s.writes
          (Format.pp_print_list
             ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
             Access.pp)
          s.reads
    | Loop { var; lo; hi; rev; body } ->
        if rev then
          Format.fprintf fmt "%sfor %s = %a downto %a:\n" indent var Affine.pp
            hi Affine.pp lo
        else
          Format.fprintf fmt "%sfor %s = %a .. %a:\n" indent var Affine.pp lo
            Affine.pp hi;
        List.iter (pp_node (indent ^ "  ") fmt) body
  in
  Format.fprintf fmt "program %s(%s):\n" p.name (String.concat ", " p.params);
  List.iter (pp_node "  " fmt) p.body
