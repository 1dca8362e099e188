(* Gallery: run the engine over every built-in kernel - the five hourglass
   kernels of the paper and the nine baselines - and print one line per
   derived bound, making the landscape visible at a glance: which kernels
   get the parametric hourglass improvement, which stay classical, and
   which defeat the K-partitioning method entirely.

   Run with:  dune exec examples/bound_gallery.exe *)

module D = Iolb.Derive
module R = Iolb_symbolic.Ratfun
module P = Iolb_symbolic.Polynomial
module Report = Iolb.Report

let leading (r : R.t) = R.make (P.leading_terms (R.num r)) (P.leading_terms (R.den r))

let tech_name = function
  | D.Classical -> "classical"
  | D.Hourglass -> "hourglass"
  | D.Hourglass_small_s -> "hourglass small-S"
  | D.Trivial -> "trivial (input footprint)"

(* Keep the strongest bound per technique, judged at a generic reference
   point (every parameter 64, S = 16). *)
let reference_value (b : D.t) =
  let env x = if x = "S" then 16. else if x = "sqrtS" then 4. else 64. in
  try R.eval_float_env env b.formula with _ -> neg_infinity

let dedup_best bounds =
  List.fold_left
    (fun acc (b : D.t) ->
      match
        List.partition (fun (b' : D.t) -> b'.technique = b.technique) acc
      with
      | [], _ -> acc @ [ b ]
      | [ prev ], rest ->
          if reference_value b > reference_value prev then rest @ [ b ] else acc
      | _ -> acc)
    [] bounds

let show_bounds name bounds =
  if bounds = [] then
    Printf.printf "%-12s   (no K-partition bound: matvec/stencil class)\n" name
  else
    List.iter
      (fun (b : D.t) ->
        Format.printf "%-12s %-18s Q >= %s@." name (tech_name b.technique)
          (R.to_string (leading b.formula)))
      bounds

let () =
  print_endline "=== paper kernels (hourglass) ===";
  List.iter
    (fun entry ->
      let a = Report.analyze entry in
      show_bounds
        (Iolb.Paper_formulas.kernel_name entry.Report.kernel)
        (dedup_best a.Report.bounds))
    Report.registry;
  print_endline "";
  print_endline "=== baselines ===";
  List.iter
    (fun (name, prog, verify_params) ->
      (* The input-footprint bound is no K-partition bound. *)
      let bounds =
        match D.analyze_ladder ~verify_params prog with
        | Ok o -> List.filter (fun (b : D.t) -> b.technique <> D.Trivial) o.bounds
        | Error e -> failwith (Iolb_util.Engine_error.to_string e)
      in
      show_bounds name (dedup_best bounds))
    Report.baselines
