module Affine = Iolb_poly.Affine
module Access = Iolb_ir.Access
module Program = Iolb_ir.Program
module P = Iolb_symbolic.Polynomial
module Cdag = Iolb_cdag.Cdag

type t = {
  update_stmt : string;
  reduction_stmt : string;
  temporal : string list;
  reduction : string list;
  neutral : string list;
  width : Affine.t list;
}

let width_poly h =
  List.fold_left
    (fun acc e -> P.mul acc (Affine.to_polynomial e))
    P.one h.width

(* A statement is a reduction when it reads its own written cell and its
   other reads use a dimension absent from the write access - the dimension
   being reduced over. *)
let is_reduction (info : Program.stmt_info) =
  match info.def.writes with
  | [ w ] ->
      let reads_self = List.exists (Access.equal w) info.def.reads in
      let wdims =
        Option.value ~default:[] (Access.selected_dims ~dims:info.dims w)
      in
      let extra_read_dim =
        List.exists
          (fun r ->
            List.exists
              (fun d -> not (List.mem d wdims))
              (List.filter (fun d -> List.mem d info.dims) (Access.dims_used r)))
          info.def.reads
      in
      reads_self && extra_read_dim
  | _ -> false

let selected (info : Program.stmt_info) access =
  Access.selected_dims ~dims:info.dims access

let detect p =
  let stmts = Program.statements p in
  let reductions =
    List.filter is_reduction stmts
    |> List.map (fun (i : Program.stmt_info) -> i)
  in
  let writes_array name (i : Program.stmt_info) =
    List.exists (fun (a : Access.t) -> a.array = name) i.def.writes
  in
  let reads_array name (i : Program.stmt_info) =
    List.exists (fun (a : Access.t) -> a.array = name) i.def.reads
  in
  let candidates =
    List.concat_map
      (fun (u : Program.stmt_info) ->
        match u.def.writes with
        | [ wu ] -> (
            match selected u wu with
            | None | Some [] -> []
            | Some wdims ->
                (* Each read of U whose array is produced by a reduction
                   statement is a candidate broadcast value. *)
                List.filter_map
                  (fun (b : Access.t) ->
                    if Access.equal b wu then None
                    else
                      match selected u b with
                      | None -> None
                      | Some bdims -> (
                          let reduction_dims =
                            List.filter (fun d -> not (List.mem d bdims)) wdims
                          in
                          let neutral =
                            List.filter (fun d -> List.mem d bdims) wdims
                          in
                          let temporal =
                            List.filter (fun d -> not (List.mem d wdims)) u.dims
                          in
                          if reduction_dims = [] || temporal = [] then None
                          else
                            (* Find the reduction statement producing b and
                               closing the cycle by reading U's array. *)
                            match
                              List.find_opt
                                (fun r ->
                                  r.Program.def.name <> u.def.name
                                  && writes_array b.array r
                                  && reads_array wu.array r)
                                reductions
                            with
                            | None -> None
                            | Some r ->
                                let width =
                                  List.map (Program.extent_min u) reduction_dims
                                in
                                (* Criterion 3: the width must be parametric. *)
                                if
                                  List.for_all
                                    (fun e -> Affine.is_constant e <> None)
                                    width
                                then None
                                else
                                  Some
                                    {
                                      update_stmt = u.def.name;
                                      reduction_stmt = r.def.name;
                                      temporal;
                                      reduction = reduction_dims;
                                      neutral;
                                      width;
                                    }))
                  u.def.reads)
        | _ -> [])
      stmts
  in
  (* Deduplicate by update statement and classification. *)
  List.fold_left
    (fun acc h ->
      if
        List.exists
          (fun h' ->
            h'.update_stmt = h.update_stmt
            && h'.temporal = h.temporal
            && h'.reduction = h.reduction)
          acc
      then acc
      else h :: acc)
    [] candidates
  |> List.rev

(* The dependence-chain check of one candidate against a concrete CDAG
   and its reachability oracle; [verify] and [detect_verified] share it,
   the latter across every candidate of a program. *)
let check ~budget cdag reach p h =
  let info = Program.find_stmt p h.update_stmt in
  let dim_index d =
    match List.find_index (String.equal d) info.dims with
    | Some i -> i
    | None -> invalid_arg "Hourglass.verify: dimension not found"
  in
  let t_idx = List.map dim_index h.temporal in
  let n_idx = List.map dim_index h.neutral in
  let nodes = Cdag.nodes_of_stmt cdag h.update_stmt in
  let vec_of id =
    match Cdag.kind cdag id with
    | Cdag.Compute (_, vec) -> vec
    | Cdag.Input _ -> assert false
  in
  let key idxs vec = List.map (fun i -> vec.(i)) idxs in
  (* Group instances by (temporal, neutral) coordinates. *)
  let groups = Hashtbl.create 64 in
  List.iter
    (fun id ->
      let vec = vec_of id in
      let k = (key t_idx vec, key n_idx vec) in
      Hashtbl.replace groups k (id :: (try Hashtbl.find groups k with Not_found -> [])))
    nodes;
  (* For each group, find the group with the lexicographically next temporal
     coordinate and the same neutral coordinate, and check reachability for
     a sample of (source, target) instance pairs. *)
  let sample l = match l with [] -> [] | [ x ] -> [ x ] | x :: tl -> [ x; List.nth tl (List.length tl - 1) ] in
  (* Successor index over the distinct temporal coordinates, in
     lexicographic order. *)
  let next_temporal = Hashtbl.create 16 in
  let rec link = function
    | a :: (b :: _ as tl) ->
        Hashtbl.replace next_temporal a b;
        link tl
    | _ -> ()
  in
  Hashtbl.fold (fun (t, _) _ acc -> t :: acc) groups []
  |> List.sort_uniq compare |> link;
  (* The temporal loop may run forward or backward (V2Q iterates k
     downwards), so accept a consistent dependence direction either way.
     Asking both is cheap: [Cdag.reaches] answers the direction against
     the node numbering in O(1). *)
  let forward_ok = ref true and backward_ok = ref true and checked = ref 0 in
  Hashtbl.iter
    (fun (t, n) ids ->
      match Hashtbl.find_opt next_temporal t with
      | None -> ()
      | Some t' -> (
          match Hashtbl.find_opt groups (t', n) with
          | None -> ()
          | Some ids' ->
              List.iter
                (fun src ->
                  List.iter
                    (fun dst ->
                      Iolb_util.Budget.checkpoint budget
                        Iolb_util.Budget.Derivation;
                      incr checked;
                      if not (Cdag.reaches reach src dst) then
                        forward_ok := false;
                      if not (Cdag.reaches reach dst src) then
                        backward_ok := false)
                    (sample ids'))
                (sample ids)))
    groups;
  (!forward_ok || !backward_ok) && !checked > 0

let verify ?(budget = Iolb_util.Budget.unlimited) ~params p h =
  let cdag = Cdag.of_program ~budget ~params p in
  check ~budget cdag (Cdag.reachability cdag) p h

(* One CDAG and one reachability oracle serve every candidate: the
   oracle's visited marks and DFS stack are allocated once per program. *)
let detect_verified ?(budget = Iolb_util.Budget.unlimited) ~params p =
  match detect p with
  | [] -> []
  | candidates ->
      let cdag = Cdag.of_program ~budget ~params p in
      let reach = Cdag.reachability cdag in
      List.filter (check ~budget cdag reach p) candidates

let pp fmt h =
  Format.fprintf fmt
    "hourglass on %s (reduction via %s): temporal=[%s] reduction=[%s] \
     neutral=[%s] width=%s"
    h.update_stmt h.reduction_stmt
    (String.concat "," h.temporal)
    (String.concat "," h.reduction)
    (String.concat "," h.neutral)
    (String.concat " * " (List.map Affine.to_string h.width))
