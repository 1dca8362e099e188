(* Input validation of the tiled orderings: bad block sizes must be
   rejected loudly, not produce garbage - and the engine's entry points,
   behind Engine_error.guard, must classify failures into the exact
   Engine_error constructor the exit-code contract promises.  Plus the
   check that each tiled ordering computes its registry program. *)

module K = Iolb_kernels
module Interp = Iolb_check.Interp
module Report = Iolb.Report
module Budget = Iolb_util.Budget
module EE = Iolb_util.Engine_error

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

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
    (raises_invalid (fun () -> Orderings.gemm_tiled_spec ~m:8 ~n:6 ~k:8 ~b:4));
  Alcotest.(check bool) "tiled gemm: b >= 1" true
    (raises_invalid (fun () -> Orderings.gemm_tiled_spec ~m:8 ~n:6 ~k:8 ~b:0));
  Alcotest.(check bool) "tiled right mgs: b must divide n" true
    (raises_invalid (fun () -> Orderings.mgs_tiled_right_spec ~m:8 ~n:6 ~b:4));
  Alcotest.(check bool) "tiled right mgs: b >= 1" true
    (raises_invalid (fun () -> Orderings.mgs_tiled_right_spec ~m:8 ~n:6 ~b:0))

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
      Programs.mgs
  in
  let schedule = Iolb_pebble.Game.program_schedule cdag in
  let game = Iolb_pebble.Game.plan cdag ~schedule in
  (match EE.guard (fun () -> Iolb_pebble.Game.run_plan game ~s:1) with
  | Error (EE.Invalid_input _) -> ()
  | Ok _ | Error _ ->
      Alcotest.fail "Game.run_plan: infeasible S must be Invalid_input");
  (* ... which stays distinguishable from a bad schedule *)
  let reversed = Array.of_list (List.rev (Array.to_list schedule)) in
  (match Iolb_pebble.Game.plan cdag ~schedule:reversed with
  | _ -> Alcotest.fail "Game.plan: reversed schedule accepted"
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

(* The traced tiled orderings compute what the registry programs compute.
   A term is an input cell, or [f] of the terms read, in statement order.
   Both walks intern their terms in one shared table, so a term is an int
   and equal terms are equal ints.  [final_terms] maps an array name to
   its written cells with their last terms, in index order. *)
let interner () =
  let ids = Hashtbl.create 4096 in
  fun term ->
    match Hashtbl.find_opt ids term with
    | Some id -> id
    | None ->
        let id = Hashtbl.length ids in
        Hashtbl.add ids term id;
        id

let final_terms intern ~params program =
  let cells = Hashtbl.create 256 in
  let term cell =
    match Hashtbl.find_opt cells cell with
    | Some t -> t
    | None -> intern (`Input cell)
  in
  Interp.iter ~params program (fun (inst : Interp.instance) ->
      let t = intern (`F (List.map term inst.reads)) in
      List.iter (fun cell -> Hashtbl.replace cells cell t) inst.writes);
  fun array ->
    Hashtbl.fold
      (fun (a, idx) t acc ->
        if a = array then (Array.to_list idx, t) :: acc else acc)
      cells []
    |> List.sort compare

let test_tiled_orderings_compute_registry_terms () =
  let count ~params p = List.length (Interp.instances ~params p) in
  let check ~b what tiled registry ~params arrays =
    let intern = interner () in
    let tiled_terms = final_terms intern ~params:[] tiled in
    let registry_terms = final_terms intern ~params registry in
    List.iter
      (fun (t, r) ->
        let expected = registry_terms r in
        Alcotest.(check bool)
          (Printf.sprintf "%s b=%d: registry %s is written" what b r)
          true (expected <> []);
        Alcotest.(check (list (pair (list int) int)))
          (Printf.sprintf "%s b=%d: tiled %s = registry %s" what b t r)
          expected (tiled_terms t))
      arrays;
    (* the same work as the registry program, whatever the block size *)
    Alcotest.(check int)
      (Printf.sprintf "%s b=%d: same work" what b)
      (count ~params registry) (count ~params:[] tiled)
  in
  let mn = [ ("M", 8); ("N", 4) ] in
  List.iter
    (fun b ->
      (* The MGS orderings normalise in place: their A ends as Q. *)
      check ~b "mgs" (K.Mgs.tiled_spec ~m:8 ~n:4 ~b) Programs.mgs ~params:mn
        [ ("A", "Q"); ("R", "R") ];
      check ~b "right-looking mgs"
        (Orderings.mgs_tiled_right_spec ~m:8 ~n:4 ~b)
        Programs.mgs ~params:mn
        [ ("A", "Q"); ("R", "R") ];
      check ~b "a2v"
        (K.Householder.tiled_spec ~m:8 ~n:4 ~b)
        Programs.a2v ~params:mn
        [ ("A", "A"); ("tau", "tau") ];
      check ~b "gemm"
        (Orderings.gemm_tiled_spec ~m:4 ~n:4 ~k:4 ~b)
        Programs.gemm
        ~params:[ ("M", 4); ("N", 4); ("K", 4) ]
        [ ("C", "C") ])
    [ 1; 2; 4 ]

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
    Alcotest.test_case "tiled spec preconditions" `Quick
      test_tiled_spec_preconditions;
    Alcotest.test_case "typed error paths" `Quick test_typed_error_paths;
    Alcotest.test_case "size sweep spec errors" `Quick test_size_spec_errors;
    Alcotest.test_case "tiled orderings = registry terms" `Quick
      test_tiled_orderings_compute_registry_terms;
  ]
