(* IR derived views: symbolic cardinalities vs concrete instance counts,
   extents, execution order, input detection. *)

module Program = Iolb_ir.Program
module Interp = Iolb_check.Interp
module P = Iolb_symbolic.Polynomial

let count_stmt prog params name =
  List.length
    (List.filter
       (fun (i : Interp.instance) -> i.stmt = name)
       (Interp.instances ~params prog))

let test_cardinal_matches_concrete () =
  List.iter
    (fun (prog, params) ->
      List.iter
        (fun (info : Program.stmt_info) ->
          let symbolic =
            P.eval_int params (Program.cardinal info) |> Iolb_util.Rat.to_int
          in
          let concrete = count_stmt prog params info.def.name in
          Alcotest.(check int)
            (Printf.sprintf "%s.%s" prog.Program.name info.def.name)
            concrete symbolic)
        (Program.statements prog))
    [
      (Programs.mgs, [ ("M", 6); ("N", 4) ]);
      (Programs.a2v, [ ("M", 7); ("N", 4) ]);
      (Programs.v2q, [ ("M", 7); ("N", 4) ]);
      (Programs.gebd2, [ ("M", 7); ("N", 4) ]);
      (Programs.gehd2_fig7, [ ("N", 7) ]);
      (Programs.gehd2, [ ("N", 9); ("M", 3) ]);
      (Programs.gemm, [ ("M", 3); ("N", 4); ("K", 5) ]);
    ]

let test_total_instances () =
  let params = [ ("M", 6); ("N", 4) ] in
  let symbolic =
    P.eval_int params (Program.total_instances Programs.mgs)
    |> Iolb_util.Rat.to_int
  in
  Alcotest.(check int)
    "total = concrete" symbolic
    (List.length (Interp.instances ~params Programs.mgs))

let test_extents () =
  let su = Program.find_stmt Programs.mgs "SU" in
  Alcotest.(check string) "min extent of i" "M"
    (Iolb_poly.Affine.to_string (Program.extent_min su "i"));
  (* j runs k+1..N-1, so its trip count vanishes at k = N-1. *)
  Alcotest.(check string) "min extent of j (at k = N-1)" "0"
    (Iolb_poly.Affine.to_string (Program.extent_min su "j"));
  Alcotest.(check string) "max extent of j (at k = 0)" "N - 1"
    (Iolb_poly.Affine.to_string (Program.extent_max su "j"));
  let su_a2v = Program.find_stmt Programs.a2v "SU" in
  Alcotest.(check string) "a2v min extent of i" "M - N"
    (Iolb_poly.Affine.to_string (Program.extent_min su_a2v "i"))

(* Arrays read before ever being written, in first-use order. *)
let input_arrays ~params prog =
  let written = Hashtbl.create 16 and inputs = ref [] in
  Interp.iter ~params prog (fun inst ->
      List.iter
        (fun (a, cell) ->
          if (not (Hashtbl.mem written (a, cell))) && not (List.mem a !inputs)
          then inputs := a :: !inputs)
        inst.reads;
      List.iter (fun c -> Hashtbl.replace written c ()) inst.writes);
  List.rev !inputs

let test_inputs () =
  let inputs = input_arrays ~params:[ ("M", 5); ("N", 3) ] Programs.mgs in
  Alcotest.(check (list string)) "mgs inputs" [ "A" ] inputs;
  let inputs =
    input_arrays ~params:[ ("M", 5); ("N", 3) ] Programs.v2q
  in
  (* V2Q consumes the taus computed by A2V (tau[N-1] first, at the initial
     descending iteration) and the reflectors stored in A. *)
  Alcotest.(check (list string)) "v2q inputs" [ "tau"; "A" ] inputs

let test_rev_loop_order () =
  (* V2Q's outer loop descends: the first SU instance visited has k = N-2. *)
  let first_su = ref None in
  Interp.iter ~params:[ ("M", 5); ("N", 3) ] Programs.v2q
    (fun inst ->
      if inst.stmt = "SU" && !first_su = None then
        first_su := Some inst.vec.(0));
  Alcotest.(check (option int)) "first SU at k=N-2" (Some 1) !first_su

let test_shared_loop_vars () =
  let sr = Program.find_stmt Programs.mgs "SR"
  and su = Program.find_stmt Programs.mgs "SU" in
  Alcotest.(check (list string))
    "SR/SU share k,j but not their i loops" [ "k"; "j" ]
    (Program.shared_loop_vars sr su)

let test_wellformedness_checks () =
  let open Iolb_ir in
  let bad_duplicate () =
    Program.make ~name:"bad" ~params:[] ~assumptions:[]
      [
        Program.stmt "S" ~writes:[ Access.scalar "x" ] ~reads:[];
        Program.stmt "S" ~writes:[ Access.scalar "y" ] ~reads:[];
      ]
  in
  Alcotest.check_raises "duplicate statement name"
    (Invalid_argument "Program.make: duplicate statement S") (fun () ->
      ignore (bad_duplicate ()));
  let bad_unbound () =
    Program.make ~name:"bad2" ~params:[] ~assumptions:[]
      [
        Program.stmt "S"
          ~writes:[ Access.make "A" [ Iolb_poly.Affine.var "i" ] ]
          ~reads:[];
      ]
  in
  Alcotest.check_raises "unbound variable in access"
    (Invalid_argument "Program.make: access A[i] in statement S uses unbound i")
    (fun () -> ignore (bad_unbound ()))

let suite =
  [
    Alcotest.test_case "symbolic cardinal = concrete count" `Quick
      test_cardinal_matches_concrete;
    Alcotest.test_case "total instances" `Quick test_total_instances;
    Alcotest.test_case "extent min/max" `Quick test_extents;
    Alcotest.test_case "input arrays" `Quick test_inputs;
    Alcotest.test_case "descending loop order" `Quick test_rev_loop_order;
    Alcotest.test_case "shared loops distinguish same-named loops" `Quick
      test_shared_loop_vars;
    Alcotest.test_case "well-formedness checks" `Quick test_wellformedness_checks;
  ]
