(* Projection derivation: the paper's stated projection sets (Section 4,
   "Running example") must come out of Phi, including version pinning. *)

module Phi = Iolb.Phi
module Program = Iolb_ir.Program

let dims_of phis = List.map (fun (p : Phi.t) -> p.dims) phis

let check prog stmt expected =
  let info = Program.find_stmt prog stmt in
  let got = List.sort compare (dims_of (Phi.of_statement prog info)) in
  Alcotest.(check (list (list string))) (stmt ^ " projections")
    (List.sort compare expected)
    got

let test_mgs () =
  (* Paper, Section 4: "the projections are phi_ij, phi_ik and phi_kj". *)
  check Programs.mgs "SU" [ [ "i"; "j" ]; [ "i"; "k" ]; [ "j"; "k" ] ];
  check Programs.mgs "SR" [ [ "i"; "j" ]; [ "i"; "k" ]; [ "j"; "k" ] ]

let test_a2v_pinning () =
  (* tau[j] is re-produced at every k, so it pins to {j, k}. *)
  check Programs.a2v "SU" [ [ "i"; "j" ]; [ "i"; "k" ]; [ "j"; "k" ] ]

let test_gemm () =
  check Programs.gemm "SC" [ [ "i"; "j" ]; [ "i"; "k" ]; [ "j"; "k" ] ]

let test_no_pinning_flag () =
  let info = Program.find_stmt Programs.a2v "SU" in
  let raw =
    dims_of (Phi.of_statement ~version_pinning:false Programs.a2v info)
  in
  Alcotest.(check bool) "raw tau[j] projection stays 1-D" true
    (List.mem [ "j" ] raw)

let test_gehd2 () =
  (* SU1 reads A[i][k] (self, {i,k}), A[i][j] ({i,j}), tmp[k] (pinned to
     {j,k}). *)
  check Programs.gehd2_fig7 "SU1" [ [ "i"; "k" ]; [ "i"; "j" ]; [ "j"; "k" ] ]

let test_scalar_reads_pin_to_shared_loops () =
  (* GEHD2's Hs1 reads the scalar tau, re-produced every j: pinned {j};
     together with tmp[i] (self-ish? tmp written by several statements,
     pinned by shared loop j) -> {i, j}. *)
  let info = Program.find_stmt Programs.gehd2_fig7 "Hs1" in
  let got = dims_of (Phi.of_statement Programs.gehd2_fig7 info) in
  Alcotest.(check bool) "tau pinned to {j}" true (List.mem [ "j" ] got)

let test_rejects_non_coordinate () =
  (* An access like A[i+j] is not a coordinate selection. *)
  let open Iolb_ir in
  let open Iolb_poly in
  let prog =
    Program.make ~name:"skewed" ~params:[ "N" ] ~assumptions:[]
      [
        Program.loop_lt "i" (Affine.const 0) (Affine.var "N")
          [
            Program.loop_lt "j" (Affine.const 0) (Affine.var "N")
              [
                Program.stmt "S"
                  ~writes:[ Access.make "B" [ Affine.var "i" ] ]
                  ~reads:
                    [ Access.make "A" [ Affine.add (Affine.var "i") (Affine.var "j") ] ];
              ];
          ];
      ]
  in
  let info = Program.find_stmt prog "S" in
  Alcotest.(check bool) "raises Unsupported on skewed access" true
    (match Phi.of_statement prog info with
    | _ -> false
    | exception Iolb_util.Engine_error.Error (Unsupported _) -> true)

let suite =
  [
    Alcotest.test_case "mgs projections match the paper" `Quick test_mgs;
    Alcotest.test_case "a2v tau[j] pinned to {j,k}" `Quick test_a2v_pinning;
    Alcotest.test_case "gemm canonical projections" `Quick test_gemm;
    Alcotest.test_case "pinning can be disabled" `Quick test_no_pinning_flag;
    Alcotest.test_case "gehd2 projections" `Quick test_gehd2;
    Alcotest.test_case "scalars pin to shared loops" `Quick
      test_scalar_reads_pin_to_shared_loops;
    Alcotest.test_case "non-coordinate accesses rejected" `Quick
      test_rejects_non_coordinate;
  ]
