(* The programs the tests analyse, resolved by name the way the CLI
   resolves a KERNEL argument ([Driver.lookup]).  Every registry program
   is the shipped source under examples/kernels. *)

module Driver = Iolb_front.Driver

let source name =
  match Driver.lookup name with
  | Ok subject -> Driver.source subject
  | Error e -> failwith (Iolb_util.Engine_error.to_string e)

let find name = (source name).program

(* The derivation ladder's bounds for [name] at its verify sizes, before
   any registry post-processing (GEHD2's split parameter stays free). *)
let bounds name =
  let src = source name in
  match Iolb.Derive.analyze_ladder ~verify_params:src.verify src.program with
  | Ok o -> o.bounds
  | Error e -> failwith (Iolb_util.Engine_error.to_string e)

let mgs = find "mgs"
let a2v = find "qr_hh_a2v"
let v2q = find "qr_hh_v2q"
let gebd2 = find "gebd2"

(* The registry's GEHD2: Figure 7 with its outer loop split at M. *)
let gehd2 = find "gehd2"
let gemm = find "gemm"
let cholesky = find "cholesky"
let lu = find "lu"
let syrk = find "syrk"
let syr2k = find "syr2k"
let trsm = find "trsm"
let trmm = find "trmm"
let atax = find "atax"
let jacobi1d = find "jacobi1d"

(* Figure 7 verbatim, without the split: no report analyses it. *)
let gehd2_fig7 =
  (Test_front.parse_file_ok (Test_front.locate "data/gehd2_fig7.iolb")).program
