(* Dataflow soundness of the CDAG against an independent model, and the
   dependence-relation counts of `iolb check --parse`.

   Every compute-to-compute CDAG edge carries a value: some write of the
   producer instance and some read of the consumer instance must name the
   same cell.  Both sides are evaluated with [Access.eval] at their own
   iteration vectors, so the check shares nothing with the CDAG builder's
   last-writer tracking. *)

module Access = Iolb_ir.Access
module Program = Iolb_ir.Program
module Cdag = Iolb_cdag.Cdag
module Report = Iolb.Report
module Front = Iolb_front.Front
module Driver = Iolb_front.Driver

let subjects () =
  List.map
    (fun (e : Report.entry) -> (e.display, e.program, e.verify_params))
    Report.registry
  @ Report.baselines

let test_edges_name_a_common_cell () =
  List.iter
    (fun (name, prog, params) ->
      let cdag = Cdag.of_program ~params prog in
      let stmts = Hashtbl.create 16 in
      List.iter
        (fun (i : Program.stmt_info) -> Hashtbl.replace stmts i.def.name i)
        (Program.statements prog);
      let cells pick (stmt, vec) =
        let info : Program.stmt_info = Hashtbl.find stmts stmt in
        let env = List.combine info.dims (Array.to_list vec) @ params in
        List.map (Access.eval (fun x -> List.assoc x env)) (pick info.def)
      in
      let edges = ref 0 and unsound = ref 0 in
      for id = 0 to Cdag.n_nodes cdag - 1 do
        match Cdag.kind cdag id with
        | Cdag.Compute (rname, rvec) ->
            let reads = cells (fun (d : Program.stmt) -> d.reads) (rname, rvec) in
            Array.iter
              (fun p ->
                match Cdag.kind cdag p with
                | Cdag.Compute (wname, wvec) ->
                    incr edges;
                    let writes =
                      cells (fun (d : Program.stmt) -> d.writes) (wname, wvec)
                    in
                    if not (List.exists (fun c -> List.mem c reads) writes)
                    then incr unsound
                | Cdag.Input _ -> ())
              (Cdag.preds cdag id)
        | Cdag.Input _ -> ()
      done;
      Alcotest.(check bool) (name ^ ": has compute edges") true (!edges > 0);
      Alcotest.(check int)
        (Printf.sprintf "%s: all %d edges name a common cell" name !edges)
        0 !unsound)
    (subjects ())

(* [Driver.describe] of every parseable shipped source, pinned. *)
let test_describe_pinned () =
  List.iter
    (fun (path, expected) ->
      match Front.parse_file path with
      | Error e ->
          Alcotest.failf "%s: %s" path (Iolb_util.Engine_error.to_string e)
      | Ok src -> Alcotest.(check string) path expected (Driver.describe src))
    [
      ( "../examples/kernels/cholesky.iolb",
        "kernel cholesky: 1 parameters, 3 statements, 18 dependence relations"
      );
      ( "../examples/kernels/gebd2.iolb",
        "kernel gebd2: 2 parameters, 31 statements, 496 dependence relations \
         (matches built-in GEBD2)" );
      ( "../examples/kernels/gehd2.iolb",
        "kernel gehd2_split: 2 parameters, 34 statements, 764 dependence \
         relations (matches built-in GEHD2)" );
      ( "../examples/kernels/gemm.iolb",
        "kernel gemm: 3 parameters, 2 statements, 2 dependence relations" );
      ( "../examples/kernels/lu.iolb",
        "kernel lu: 1 parameters, 2 statements, 10 dependence relations" );
      ( "../examples/kernels/mgs.iolb",
        "kernel mgs: 2 parameters, 7 statements, 19 dependence relations \
         (matches built-in MGS)" );
      ( "../examples/kernels/qr_hh_a2v.iolb",
        "kernel qr_hh_a2v: 2 parameters, 12 statements, 93 dependence \
         relations (matches built-in QR HH A2V)" );
      ( "../examples/kernels/qr_hh_v2q.iolb",
        "kernel qr_hh_v2q: 2 parameters, 7 statements, 41 dependence \
         relations (matches built-in QR HH V2Q)" );
      ( "data/hull_overflow.iolb",
        "kernel wrap: 1 parameters, 2 statements, 1 dependence relations" );
      ( "data/rank_mismatch.iolb",
        "kernel ranks: 1 parameters, 2 statements, 2 dependence relations" );
      ( "data/rat_overflow.iolb",
        "kernel bigskip: 1 parameters, 1 statements, 1 dependence relations" );
      ( "data/reverse_inner.iolb",
        "kernel revinner: 2 parameters, 2 statements, 3 dependence relations"
      );
      ( "data/skew.iolb",
        "kernel skew: 1 parameters, 1 statements, 1 dependence relations" );
    ]

let suite =
  [
    Alcotest.test_case "CDAG edges name a common cell" `Quick
      test_edges_name_a_common_cell;
    Alcotest.test_case "check --parse summaries pinned" `Quick
      test_describe_pinned;
  ]
