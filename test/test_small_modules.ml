(* Coverage for the small substrate modules: monomials, accesses, traces,
   the shared max-heap, plus the stencil negative control and the
   priority-driven scheduler. *)

module M = Iolb_symbolic.Monomial
module Access = Iolb_ir.Access
module Affine = Iolb_poly.Affine
module Trace = Iolb_pebble.Trace
module Heap = Iolb_util.Maxheap
module Rat = Iolb_util.Rat

let test_monomial () =
  let xy2 = M.of_list [ ("x", 1); ("y", 2) ] in
  Alcotest.(check int) "degree" 3 (M.degree xy2);
  Alcotest.(check int) "degree_in y" 2 (M.degree_in "y" xy2);
  Alcotest.(check int) "degree_in z" 0 (M.degree_in "z" xy2);
  Alcotest.(check bool) "mul" true
    (M.equal (M.mul (M.var "x") xy2) (M.of_list [ ("x", 2); ("y", 2) ]));
  (match M.divide xy2 (M.var "y") with
  | Some d -> Alcotest.(check bool) "divide" true (M.equal d (M.of_list [ ("x", 1); ("y", 1) ]))
  | None -> Alcotest.fail "y divides xy^2");
  Alcotest.(check bool) "non-divisor" true (M.divide (M.var "x") xy2 = None);
  Alcotest.(check bool) "pow 0 = 1" true (M.is_one (M.pow xy2 0));
  Alcotest.(check bool) "eval" true
    (Rat.equal
       (M.eval (fun _ -> Rat.of_int 2) xy2)
       (Rat.of_int 8));
  Alcotest.(check bool) "of_list rejects dup" true
    (try
       ignore (M.of_list [ ("x", 1); ("x", 2) ]);
       false
     with Invalid_argument _ -> true)

let test_access () =
  let a = Access.make "A" [ Affine.var "i"; Affine.add (Affine.var "j") (Affine.const 1) ] in
  Alcotest.(check (list string)) "dims_used" [ "i"; "j" ] (Access.dims_used a);
  (* i and j+1 are coordinate selections. *)
  Alcotest.(check (option (list string))) "selected"
    (Some [ "i"; "j" ])
    (Access.selected_dims ~dims:[ "i"; "j"; "k" ] a);
  (* i+j is not. *)
  let skew = Access.make "A" [ Affine.add (Affine.var "i") (Affine.var "j") ] in
  Alcotest.(check (option (list string))) "skewed rejected" None
    (Access.selected_dims ~dims:[ "i"; "j" ] skew);
  (* A dim used twice is not a coordinate selection either. *)
  let dup = Access.make "A" [ Affine.var "i"; Affine.var "i" ] in
  Alcotest.(check (option (list string))) "duplicate rejected" None
    (Access.selected_dims ~dims:[ "i" ] dup);
  (* Parameter-only indices select nothing. *)
  let param = Access.make "A" [ Affine.var "N"; Affine.var "i" ] in
  Alcotest.(check (option (list string))) "param index skipped"
    (Some [ "i" ])
    (Access.selected_dims ~dims:[ "i" ] param);
  let env = function "i" -> 2 | "j" -> 5 | _ -> 0 in
  Alcotest.(check bool) "eval" true (Access.eval env a = ("A", [| 2; 6 |]))

let test_trace () =
  let params = [ ("M", 4); ("N", 3) ] in
  let trace = Trace.of_program ~params Programs.mgs in
  Alcotest.(check bool) "non-empty" true (Trace.length trace > 0);
  (* Footprint: A (12), Q (12), R (6 upper cells), nrm -> 31. *)
  Alcotest.(check int) "footprint" 31 (Trace.footprint trace);
  (* Reads+writes per instance: consistent with the instance count. *)
  let accesses =
    List.length (Iolb_check.Interp.accesses ~params Programs.mgs)
  in
  Alcotest.(check int) "length = all accesses" accesses (Trace.length trace)

let test_maxheap () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  List.iter (fun (p, x) -> Heap.push h ~pos:p ~payload:x)
    [ (3, 30); (1, 10); (4, 40); (1, 11); (5, 50) ];
  Alcotest.(check int) "length" 5 (Heap.length h);
  Alcotest.(check (pair int int)) "max first" (5, 50) (Heap.pop h);
  Alcotest.(check (pair int int)) "then 4" (4, 40) (Heap.pop h);
  Alcotest.(check (pair int int)) "then 3" (3, 30) (Heap.pop h);
  let p1, _ = Heap.pop h and p2, _ = Heap.pop h in
  Alcotest.(check (pair int int)) "ties drain" (1, 1) (p1, p2);
  Alcotest.(check bool) "pop empty raises" true
    (try
       ignore (Heap.pop h);
       false
     with Not_found -> true)

let test_jacobi_negative_control () =
  (* No hourglass, and no useful classical bound: stencils defeat the
     K-partitioning method (single full-dimensional projection, rho = 1). *)
  let spec = Programs.jacobi1d in
  Alcotest.(check int) "no hourglass" 0
    (List.length
       (Iolb.Hourglass.detect_verified ~params:[ ("T", 4); ("N", 8) ] spec));
  Alcotest.(check bool) "no classical bound" true
    (Iolb.Derive.classical spec ~stmt:"SB" = None)

let test_priority_schedule () =
  let cdag =
    Iolb_cdag.Cdag.of_program ~params:[ ("M", 12); ("N", 8) ] Programs.mgs
  in
  (* Column-block-major priority: process a block of b columns across all k
     before moving on - the left-looking tiled flavour of Appendix A.1. *)
  let b = 4 in
  let priority ~stmt ~vec =
    match (stmt, vec) with
    | ("SR" | "SU"), [| k; j; _ |] -> (j / b * 10000) + (k * 100) + j
    | "Sr0", [| k; j |] -> (j / b * 10000) + (k * 100) + j
    | _, [| k |] -> (k / b * 10000) + (k * 100)
    | _, [| k; _ |] -> (k / b * 10000) + (k * 100)
    | _ -> 0
  in
  let sched = Iolb_pebble.Game.priority_topological cdag ~priority in
  Alcotest.(check bool) "topological" true
    (Iolb_pebble.Game.is_topological cdag sched);
  let s = 64 in
  let prio = (Iolb_pebble.Game.run cdag ~s ~schedule:sched).loads in
  let prog =
    (Iolb_pebble.Game.run cdag ~s
       ~schedule:(Iolb_pebble.Game.program_schedule cdag))
      .loads
  in
  (* The locality-aware schedule should beat the plain program order. *)
  Alcotest.(check bool)
    (Printf.sprintf "column schedule better (%d < %d)" prio prog)
    true (prio < prog)

let suite =
  [
    Alcotest.test_case "monomials" `Quick test_monomial;
    Alcotest.test_case "accesses" `Quick test_access;
    Alcotest.test_case "traces" `Quick test_trace;
    Alcotest.test_case "max-heap" `Quick test_maxheap;
    Alcotest.test_case "jacobi1d: stencil negative control" `Quick
      test_jacobi_negative_control;
    Alcotest.test_case "priority schedules beat program order" `Quick
      test_priority_schedule;
  ]
