(* The 14 DSL programs of the [derive] and [serve] workloads: the shipped
   examples/kernels/*.iolb sources plus the remaining built-in baselines,
   printed as DSL.  Together they cover the registry path (the five paper
   kernels resolve structurally to built-ins) and the ladder path. *)

type t = { name : string; file : string; text : string }

let shipped = [ "cholesky"; "gebd2"; "gehd2"; "gemm"; "lu"; "mgs"; "qr_hh_a2v"; "qr_hh_v2q" ]

let printed = [ "syrk"; "syr2k"; "trsm"; "trmm"; "atax"; "jacobi1d" ]

let load ~root =
  let from_file name =
    let file = Filename.concat root ("examples/kernels/" ^ name ^ ".iolb") in
    { name; file; text = Util.read_file file }
  in
  let from_baseline name =
    let _, program, verify =
      List.find (fun (n, _, _) -> n = name) Iolb.Report.baselines
    in
    { name; file = name ^ ".iolb"; text = Iolb_front.Front.print ~verify program }
  in
  Array.of_list (List.map from_file shipped @ List.map from_baseline printed)
