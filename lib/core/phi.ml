module Access = Iolb_ir.Access
module Program = Iolb_ir.Program

type t = { dims : string list; source : string }

(* Version pinning: a value read from an array produced by other statements
   is identified not only by its cell coordinates (the access's selected
   dimensions D) but also by its version, which changes at every iteration
   of the loops shared by the reader and the value's producers.  Distinct
   (D, version) pairs are distinct value nodes of the CDAG, and values
   produced by statements other than the reader are always outside a set E
   of reader instances, hence chargeable to InSet(E).  This reproduces the
   dependence-path analysis of IOLB on the paper's kernels: e.g. the
   [tau[j]] read of the A2V update statement is pinned by the shared outer
   loop [k], yielding the projection phi_{k,j}.

   Reads of an array that the reader itself writes keep their bare cell
   projection D: the backward chain can stay inside E, and only the first
   version before E is chargeable - injective in D alone. *)
let of_statement ?(version_pinning = true) p (info : Program.stmt_info) =
  let stmts = Program.statements p in
  (* Statement names are unique (checked by [Program.make]); index them
     once instead of rescanning the list for every producer candidate. *)
  let pos = Hashtbl.create 16 in
  List.iteri
    (fun i (s : Program.stmt_info) -> Hashtbl.add pos s.def.name i)
    stmts;
  let position name =
    match Hashtbl.find_opt pos name with
    | Some i -> i
    | None -> raise Not_found
  in
  let u_pos = position info.def.name in
  let producers (access : Access.t) =
    List.filter
      (fun (s : Program.stmt_info) ->
        List.exists
          (fun (w : Access.t) ->
            w.array = access.array && List.length w.index = List.length access.index)
          s.def.writes
        (* A statement in a disjoint loop nest that appears later in the
           program can never produce a value this statement reads. *)
        && not
             (Program.shared_loop_vars info s = []
             && position s.def.name > u_pos))
      stmts
  in
  let projections =
    List.filter_map
      (fun access ->
        match Access.selected_dims ~dims:info.dims access with
        | None ->
            Iolb_util.Engine_error.raise_error
              (Unsupported
                 (Format.asprintf "Phi.of_statement: non-coordinate access %a"
                    Access.pp access))
        | Some sel ->
            let prods = producers access in
            let self_produced =
              List.exists
                (fun (s : Program.stmt_info) -> s.def.name = info.def.name)
                prods
            in
            let dims =
              if (not version_pinning) || self_produced || prods = [] then sel
              else
                let pin =
                  List.fold_left
                    (fun acc s ->
                      List.filter
                        (fun d -> List.mem d (Program.shared_loop_vars info s))
                        acc)
                    info.dims prods
                in
                let pinned = List.sort_uniq String.compare (sel @ pin) in
                (* A full-dimensional projection would assert |E| <= K
                   outright, which the per-statement charging cannot
                   support (the producer's instances would have to sit
                   outside E at full multiplicity).  Refuse the pin and
                   keep the bare cell projection instead. *)
                if List.length pinned = List.length info.dims then sel
                else pinned
            in
            if dims = [] then None
            else
              Some
                {
                  dims = List.sort String.compare dims;
                  source = Format.asprintf "%a" Access.pp access;
                })
      info.def.reads
  in
  (* Deduplicate by dimension set, keeping the first source name. *)
  List.fold_left
    (fun acc p -> if List.exists (fun q -> q.dims = p.dims) acc then acc else p :: acc)
    [] projections
  |> List.rev

let mem dim p = List.mem dim p.dims

let pp fmt p =
  Format.fprintf fmt "phi_{%s} (from %s)" (String.concat "," p.dims) p.source
