module Front = Iolb_lang.Front
module Report = Iolb.Report
module D = Iolb.Derive
module Program = Iolb_ir.Program
module Access = Iolb_ir.Access
module Constr = Iolb_poly.Constr
module Engine_error = Iolb_util.Engine_error

let ( let* ) = Result.bind

(* Verify bindings are order-insensitive: the printer emits them in
   program-parameter order, a hand-written source may not. *)
let verify_equal a b =
  let sort l = List.sort (fun (x, _) (y, _) -> String.compare x y) l in
  List.equal
    (fun (x, (v : int)) (y, w) -> String.equal x y && v = w)
    (sort a) (sort b)

let resolve (src : Front.source) =
  List.find_opt
    (fun (e : Report.entry) ->
      Program.equal e.program src.Front.program
      && verify_equal e.verify_params src.Front.verify)
    Report.registry

(* The exact bytes [iolb analyze] prints after the report: a blank line,
   the bound, then (with [logs]) its derivation log. *)
let render_bounds ~logs bounds =
  String.concat ""
    (List.map
       (fun (b : D.t) ->
         Format.asprintf "@.%a@." D.pp b
         ^
         if logs then
           String.concat ""
             (List.map (fun l -> Format.asprintf "    | %s@." l) b.D.log)
         else "")
       bounds)

let render_analysis ~logs (a : Report.analysis) =
  (* The registry report already lists each bound; the trailing section
     repeats them only to attach the derivation logs. *)
  Format.asprintf "%a@." Report.pp_analysis a
  ^ if logs then render_bounds ~logs a.Report.bounds else ""

let render_outcome ~logs (o : D.outcome) =
  (match o.D.degradation with
  | Some why -> Format.asprintf "degraded: %s@." why
  | None -> (
      match o.D.bounds with
      | [] ->
          Format.asprintf
            "no bound derivable (no hourglass; Brascamp-Lieb exponent <= 1)@."
      | _ :: _ -> ""))
  ^ render_bounds ~logs o.D.bounds

type subject = Paper of Report.entry | Program of Front.source

let source = function
  | Paper e ->
      { Front.program = e.Report.program; verify = e.Report.verify_params }
  | Program src -> src

let lookup name =
  match Engine_error.guard (fun () -> Report.find name) with
  | Ok entry -> Ok (Paper entry)
  | Error e -> (
      match List.find_opt (fun (n, _, _) -> n = name) Report.baselines with
      | Some (_, program, verify) -> Ok (Program { Front.program; verify })
      | None -> Error e)

let eval_entry name =
  let* subject = lookup name in
  match subject with
  | Paper entry -> Ok entry
  | Program _ ->
      Error
        (Engine_error.Unsupported
           (Printf.sprintf
              "eval needs a paper kernel's theorem formula; %s is a \
               baseline (try analyze or simulate)"
              name))

let point ?s ?(overrides = []) subject ~m ~n =
  let invalid = Engine_error.invalid in
  let* params, at =
    match subject with
    | Paper _ when overrides <> [] ->
        invalid
          "--param applies to --file sources and baselines; paper kernels \
           take -m/-n"
    | Paper e ->
        let* params = Report.concrete_params e ~m ~n in
        Ok (params, Printf.sprintf "%s at m=%d n=%d" e.Report.display m n)
    | Program { Front.program; verify } -> (
        let unknown (p, _) = not (List.mem_assoc p verify) in
        match List.find_opt unknown overrides with
        | Some (p, v) ->
            invalid "--param %s=%d: %s is not a parameter of kernel %s" p v p
              program.Program.name
        | None ->
            let value (p, v) =
              (p, Option.value ~default:v (List.assoc_opt p overrides))
            in
            let params = List.map value verify in
            let binding (p, v) = Printf.sprintf "%s=%d" p v in
            Ok
              ( params,
                Printf.sprintf "%s at %s" program.Program.name
                  (String.concat " " (List.map binding params)) ))
  in
  (* the bounds and the simulators are only meaningful on the program's
     domain: reject points outside it instead of printing NaN *)
  let violated c = not (Constr.satisfied (fun p -> List.assoc p params) c) in
  match s with
  | Some s when s < 1 -> invalid "need s >= 1, got s = %d" s
  | _ -> (
      let program = (source subject).Front.program in
      match List.find_opt violated program.Program.assumptions with
      | Some c ->
          invalid "%s violates its assumption %s" at
            (Format.asprintf "%a" Constr.pp c)
      | None -> Ok params)

let render_entry ~budget ~logs entry =
  let* a = Engine_error.guard (fun () -> Report.analyze ~budget entry) in
  Ok (render_analysis ~logs a)

let render_ladder ~budget ~logs ~verify_params program =
  let* o = D.analyze_ladder ~budget ~verify_params program in
  Ok (render_outcome ~logs o)

let render_kernel ~budget ~logs name =
  let* subject = lookup name in
  match subject with
  | Paper entry -> render_entry ~budget ~logs entry
  | Program src ->
      render_ladder ~budget ~logs ~verify_params:src.Front.verify
        src.Front.program

let render_source ~budget ~logs (src : Front.source) =
  match resolve src with
  | Some entry -> render_entry ~budget ~logs entry
  | None ->
      render_ladder ~budget ~logs ~verify_params:src.Front.verify
        src.Front.program

let render_file ~budget ~logs path =
  let* src = Front.parse_file path in
  render_source ~budget ~logs src

let render_bounds ?jobs ~budget files =
  let fan_out render items =
    let tasks = List.map (fun item -> (budget (), item)) items in
    Iolb_util.Pool.map ?jobs (fun (budget, item) -> render ~budget item) tasks
  in
  match files with
  | [] -> fan_out (render_entry ~logs:false) Report.registry
  | files -> fan_out (render_file ~logs:false) files

let rec stmts_of acc = function
  | Program.Stmt s -> s :: acc
  | Program.Loop { body; _ } -> List.fold_left stmts_of acc body

let dependence_relations (stmts : Program.stmt list) =
  let reads = List.concat_map (fun (s : Program.stmt) -> s.reads) stmts in
  let related (w : Access.t) (r : Access.t) =
    r.array = w.array && List.compare_lengths r.index w.index = 0
  in
  List.fold_left
    (fun n w -> n + List.length (List.filter (related w) reads))
    0
    (List.concat_map (fun (s : Program.stmt) -> s.writes) stmts)

let describe (src : Front.source) =
  let p = src.Front.program in
  let stmts = List.fold_left stmts_of [] p.Program.body in
  Printf.sprintf "kernel %s: %d parameters, %d statements, %d dependence relations%s"
    p.Program.name
    (List.length p.Program.params)
    (List.length stmts)
    (dependence_relations stmts)
    (match resolve src with
    | Some e -> Printf.sprintf " (matches built-in %s)" e.Report.display
    | None -> "")
