(* Input validation of the kernel APIs: shape preconditions must be
   rejected loudly, not produce garbage - and the engine's entry points,
   behind Engine_error.guard, must classify failures into the exact
   Engine_error constructor the exit-code contract promises. *)

module K = Iolb_kernels
module Matrix = Iolb_kernels.Matrix
module Report = Iolb.Report
module Budget = Iolb_util.Budget
module EE = Iolb_util.Engine_error

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let test_shape_preconditions () =
  let wide = Matrix.random 3 5 in
  Alcotest.(check bool) "mgs needs m >= n" true
    (raises_invalid (fun () -> K.Mgs.factor wide));
  Alcotest.(check bool) "geqr2 needs m >= n" true
    (raises_invalid (fun () -> K.Householder.geqr2 wide));
  Alcotest.(check bool) "gebd2 needs m >= n" true
    (raises_invalid (fun () -> K.Gebd2.reduce wide));
  Alcotest.(check bool) "gebd2 needs n >= 1" true
    (raises_invalid (fun () -> K.Gebd2.reduce (Matrix.create 3 0)));
  Alcotest.(check bool) "gehd2 needs square" true
    (raises_invalid (fun () -> K.Gehd2.reduce wide));
  Alcotest.(check bool) "cholesky needs square" true
    (raises_invalid (fun () -> K.Cholesky.factor wide));
  Alcotest.(check bool) "lu needs square" true
    (raises_invalid (fun () -> K.Lu.factor wide));
  Alcotest.(check bool) "gemm needs compatible dims" true
    (raises_invalid (fun () -> K.Gemm.run wide wide));
  Alcotest.(check bool) "trsm needs matching sizes" true
    (raises_invalid (fun () -> K.Trsm.solve wide wide));
  Alcotest.(check bool) "atax needs matching vector" true
    (raises_invalid (fun () -> K.Atax.run wide [| 1.; 2. |]));
  Alcotest.(check bool) "org2r needs matching rows" true
    (raises_invalid (fun () ->
         K.Householder.org2r (K.Householder.geqr2 (Matrix.random 5 3)) ~rows:4));
  Alcotest.(check bool) "geqr2_tiled needs m >= n" true
    (raises_invalid (fun () -> K.Householder.geqr2_tiled ~b:1 wide));
  Alcotest.(check bool) "factor_tiled needs m >= n" true
    (raises_invalid (fun () -> K.Mgs.factor_tiled ~b:1 wide))

let test_matrix_preconditions () =
  Alcotest.(check bool) "create rejects negative dims" true
    (raises_invalid (fun () -> Matrix.create (-1) 3));
  Alcotest.(check bool) "mul rejects mismatched dims" true
    (raises_invalid (fun () -> Matrix.mul (Matrix.create 2 3) (Matrix.create 2 3)));
  Alcotest.(check bool) "sub rejects mismatched dims" true
    (raises_invalid (fun () -> Matrix.sub (Matrix.create 2 3) (Matrix.create 3 2)));
  Alcotest.(check bool) "submatrix rejects out-of-range" true
    (raises_invalid (fun () ->
         Matrix.submatrix (Matrix.create 3 3) ~row:2 ~col:0 ~rows:2 ~cols:1))

let test_numeric_preconditions () =
  (* Cholesky on a non-SPD matrix must fail, not return NaNs. *)
  let not_spd = Matrix.init 3 3 (fun i j -> if i = j then -1. else 0.) in
  Alcotest.(check bool) "cholesky rejects non-SPD" true
    (raises_invalid (fun () -> K.Cholesky.factor not_spd));
  (* LU with a structurally zero pivot. *)
  let singular = Matrix.create 3 3 in
  Alcotest.(check bool) "lu rejects zero pivot" true
    (raises_invalid (fun () -> K.Lu.factor singular))

let test_tiled_spec_preconditions () =
  Alcotest.(check bool) "tiled mgs: b must divide n" true
    (raises_invalid (fun () -> K.Mgs.tiled_spec ~m:8 ~n:6 ~b:4));
  Alcotest.(check bool) "tiled mgs: b >= 1" true
    (raises_invalid (fun () -> K.Mgs.tiled_spec ~m:8 ~n:6 ~b:0));
  Alcotest.(check bool) "tiled a2v: b must divide n" true
    (raises_invalid (fun () -> K.Householder.tiled_spec ~m:8 ~n:6 ~b:4));
  Alcotest.(check bool) "tiled a2v: b >= 1" true
    (raises_invalid (fun () -> K.Householder.tiled_spec ~m:8 ~n:6 ~b:0));
  Alcotest.(check bool) "tiled gemm: b must divide all" true
    (raises_invalid (fun () -> K.Gemm.tiled_spec ~m:8 ~n:6 ~k:8 ~b:4));
  Alcotest.(check bool) "tiled gemm: b >= 1" true
    (raises_invalid (fun () -> K.Gemm.tiled_spec ~m:8 ~n:6 ~k:8 ~b:0));
  Alcotest.(check bool) "tiled right mgs: b must divide n" true
    (raises_invalid (fun () -> K.Mgs.tiled_right_spec ~m:8 ~n:6 ~b:4));
  Alcotest.(check bool) "tiled right mgs: b >= 1" true
    (raises_invalid (fun () -> K.Mgs.tiled_right_spec ~m:8 ~n:6 ~b:0));
  Alcotest.(check bool) "geqr2_tiled: b >= 1" true
    (raises_invalid (fun () ->
         K.Householder.geqr2_tiled ~b:0 (Matrix.random 5 3)));
  Alcotest.(check bool) "factor_tiled: b >= 1" true
    (raises_invalid (fun () -> K.Mgs.factor_tiled ~b:0 (Matrix.random 5 3)))

(* The typed-error layer: exact constructors, not just "some failure". *)
let test_typed_error_paths () =
  (match EE.guard (fun () -> Report.find "no-such-kernel") with
  | Error (EE.Invalid_input _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "find: expected Invalid_input");
  (match EE.guard (fun () -> Report.find "mgs") with
  | Ok e -> Alcotest.(check string) "find resolves" "MGS" e.display
  | Error _ -> Alcotest.fail "find rejected a known kernel");
  let gehd2 = Report.find "gehd2" in
  (match Report.concrete_params gehd2 ~m:0 ~n:3 with
  | Error (EE.Invalid_input _) -> ()
  | Ok _ | Error _ ->
      Alcotest.fail "concrete_params: gehd2 n < 4 must be Invalid_input");
  (match Report.concrete_params gehd2 ~m:0 ~n:9 with
  | Ok params ->
      Alcotest.(check (list (pair string int)))
        "gehd2 split pinned at M = n/2 - 1"
        [ ("N", 9); ("M", 3) ]
        params
  | Error e -> Alcotest.failf "concrete_params gehd2: %s" (EE.to_string e));
  (match Report.concrete_params (Report.find "mgs") ~m:0 ~n:4 with
  | Error (EE.Invalid_input _) -> ()
  | Ok _ | Error _ ->
      Alcotest.fail "concrete_params: m < 1 must be Invalid_input");
  (* Budget construction validates its inputs... *)
  (match EE.guard (fun () -> Budget.make ~max_steps:(-1) ()) with
  | Error (EE.Invalid_input _) -> ()
  | Ok _ | Error _ ->
      Alcotest.fail "Budget.make: negative cap must be Invalid_input");
  (* ... and the simulators, behind the no-raise boundary, classify their
     failures. *)
  let cdag =
    Iolb_cdag.Cdag.of_program
      ~params:[ ("M", 4); ("N", 3) ]
      Iolb_kernels.Mgs.spec
  in
  let schedule = Iolb_pebble.Game.program_schedule cdag in
  (match EE.guard (fun () -> Iolb_pebble.Game.run cdag ~s:1 ~schedule) with
  | Error (EE.Invalid_input _) -> ()
  | Ok _ | Error _ ->
      Alcotest.fail "Game.run: infeasible S must be Invalid_input");
  (* ... which stays distinguishable from a bad schedule *)
  let reversed = Array.of_list (List.rev (Array.to_list schedule)) in
  (match Iolb_pebble.Game.run cdag ~s:16 ~schedule:reversed with
  | _ -> Alcotest.fail "Game.run: reversed schedule accepted"
  | exception Invalid_argument _ -> ());
  (match
     EE.guard (fun () ->
         Iolb_pebble.Cache.lru ~size:0
           (Iolb_pebble.Trace.of_program ~params:[]
              (K.Mgs.tiled_spec ~m:4 ~n:2 ~b:1)))
   with
  | Error (EE.Invalid_input _) -> ()
  | Ok _ | Error _ ->
      Alcotest.fail "Cache.lru: size < 1 must be Invalid_input");
  (* The exit-code contract is part of the CLI's public interface. *)
  Alcotest.(check (list int))
    "exit codes" [ 2; 3; 4; 5 ]
    (List.map EE.exit_code
       [
         EE.Invalid_input "x";
         EE.Budget_exhausted Budget.Derivation;
         EE.Unsupported "x";
         EE.Internal "x";
       ]);
  (* Exception classification at the no-raise boundary. *)
  (match EE.of_exn (Budget.Exhausted Budget.Cache_sim) with
  | EE.Budget_exhausted Budget.Cache_sim -> ()
  | _ -> Alcotest.fail "of_exn: Budget.Exhausted must keep its stage");
  match EE.of_exn (Failure "boom") with
  | EE.Internal _ -> ()
  | _ -> Alcotest.fail "of_exn: Failure must be Internal"

let test_tiled_block_one_matches_untiled_io_order () =
  (* b = 1 tiled MGS is the plain left-looking column algorithm: its trace
     is valid and its CDAG executes the same multiset of statement kinds
     as b = 2 at the same sizes (same work, different order). *)
  let count spec =
    Iolb_ir.Program.count_instances ~params:[] spec
  in
  Alcotest.(check int) "same work across block sizes"
    (count (K.Mgs.tiled_spec ~m:8 ~n:4 ~b:1))
    (count (K.Mgs.tiled_spec ~m:8 ~n:4 ~b:2))

(* The CLI's `simulate --sizes` maps every size-spec parse failure to
   Invalid_input, i.e. exit code 2: the parser must reject malformed
   specs with a message and accept both documented syntaxes. *)
let test_size_spec_errors () =
  let module Sweep = Iolb_pebble.Sweep in
  List.iter
    (fun spec ->
      match Sweep.parse_sizes spec with
      | Ok _ -> Alcotest.failf "%S: expected a parse error" spec
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S: non-empty message" spec)
            true
            (String.length msg > 0);
          Alcotest.(check int)
            (Printf.sprintf "%S maps to exit code 2" spec)
            2
            (EE.exit_code (EE.Invalid_input msg)))
    [ ""; "  "; "x,y"; "3,-1"; "0:4:1"; "4:2:1"; "1:9:0"; "1:9"; "1:9:2:3" ];
  (match Sweep.parse_sizes "8,16,32" with
  | Ok l -> Alcotest.(check (list int)) "comma list" [ 8; 16; 32 ] l
  | Error m -> Alcotest.failf "comma list rejected: %s" m);
  match Sweep.parse_sizes "4:17:4" with
  | Ok l -> Alcotest.(check (list int)) "range" [ 4; 8; 12; 16 ] l
  | Error m -> Alcotest.failf "range rejected: %s" m

let suite =
  [
    Alcotest.test_case "shape preconditions" `Quick test_shape_preconditions;
    Alcotest.test_case "matrix preconditions" `Quick test_matrix_preconditions;
    Alcotest.test_case "numeric preconditions" `Quick test_numeric_preconditions;
    Alcotest.test_case "tiled spec preconditions" `Quick
      test_tiled_spec_preconditions;
    Alcotest.test_case "typed error paths" `Quick test_typed_error_paths;
    Alcotest.test_case "size sweep spec errors" `Quick test_size_spec_errors;
    Alcotest.test_case "tiled work invariant across block sizes" `Quick
      test_tiled_block_one_matches_untiled_io_order;
  ]
