(* Remaining corners: pretty-printers, DOT export, the final cache flush,
   leading-term extraction, Rat infix operators. *)

module P = Iolb_symbolic.Polynomial
module R = Iolb_symbolic.Ratfun
module Rat = Iolb_util.Rat
module A = Iolb_poly.Affine
module C = Iolb_poly.Constr

let test_printers () =
  Alcotest.(check string) "affine" "2i - j + 3"
    (A.to_string (A.of_terms [ (2, "i"); (-1, "j") ] 3));
  Alcotest.(check string) "affine const" "-4" (A.to_string (A.const (-4)));
  Alcotest.(check string) "poly" "-2*M*N + M^2 + 1/2"
    (P.to_string
       (P.add
          (P.sub (P.mul (P.var "M") (P.var "M"))
             (P.scale Rat.two (P.mul (P.var "M") (P.var "N"))))
          (P.of_rat Rat.half)));
  Alcotest.(check string) "poly zero" "0" (P.to_string P.zero);
  Alcotest.(check string) "ratfun poly" "M" (R.to_string (R.var "M"));
  Alcotest.(check string) "ratfun ratio" "(M) / (S + 1)"
    (R.to_string (R.make (P.var "M") (P.add (P.var "S") P.one)));
  Alcotest.(check string) "rat" "-3/7" (Rat.to_string (Rat.make 3 (-7)));
  Alcotest.(check string) "constraint" "i - 1 >= 0"
    (Format.asprintf "%a" C.pp (C.ge (A.sub (A.var "i") (A.const 1))))

let test_rat_infix () =
  let open Rat.Infix in
  Alcotest.(check bool) "infix arithmetic" true
    (Rat.of_int 2 * Rat.half + Rat.one - Rat.of_int 2 = Rat.zero);
  Alcotest.(check bool) "infix compare" true
    (Rat.half < Rat.one && Rat.one <= Rat.one && Rat.two > Rat.one
   && Rat.two >= Rat.two);
  Alcotest.(check bool) "infix div neg" true (~-Rat.one / Rat.two = Rat.make (-1) 2)

let test_leading_terms () =
  (* leading_terms keeps exactly the max-total-degree monomials. *)
  let p =
    P.add
      (P.mul (P.var "M") (P.mul (P.var "N") (P.var "N")))
      (P.add (P.mul (P.var "M") (P.var "N")) P.one)
  in
  Alcotest.(check string) "leading" "M*N^2" (P.to_string (P.leading_terms p))

let test_dot_export () =
  let cdag =
    Iolb_cdag.Cdag.of_program ~params:[ ("M", 3); ("N", 2) ] Programs.mgs
  in
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Iolb_cdag.Dot.emit ~highlight:[ 0 ] fmt cdag;
  Format.pp_print_flush fmt ();
  let dot = Buffer.contents buf in
  Alcotest.(check bool) "digraph header" true
    (String.length dot > 20 && String.sub dot 0 12 = "digraph cdag");
  (* One node line per node, one edge line per edge. *)
  let count_sub sub =
    let n = ref 0 and i = ref 0 in
    let len = String.length sub in
    while !i + len <= String.length dot do
      if String.sub dot !i len = sub then incr n;
      incr i
    done;
    !n
  in
  Alcotest.(check int) "edges rendered"
    (Array.fold_left
       (fun acc id -> acc + Array.length (Iolb_cdag.Cdag.preds cdag id))
       0
       (Array.init (Iolb_cdag.Cdag.n_nodes cdag) Fun.id))
    (count_sub " -> ")

let test_cache_final_flush () =
  let open Iolb_pebble in
  let trace =
    Trace.of_events [ Trace.Write ("A", [| 0 |]); Trace.Write ("A", [| 1 |]) ]
  in
  (* nothing is evicted at size 4: every store is the flush's *)
  List.iter
    (fun (engine, stats) ->
      Alcotest.(check int)
        (engine ^ ": the flush stores the dirty lines")
        2 stats.Cache.stores)
    [
      ("lru", Cache.lru ~size:4 trace);
      ("opt", Cache.opt ~size:4 trace);
      ("sweep", Sweep.stats (Sweep.run trace) ~size:4);
    ]

let suite =
  [
    Alcotest.test_case "pretty printers" `Quick test_printers;
    Alcotest.test_case "rat infix" `Quick test_rat_infix;
    Alcotest.test_case "leading terms" `Quick test_leading_terms;
    Alcotest.test_case "dot export" `Quick test_dot_export;
    Alcotest.test_case "cache final flush" `Quick test_cache_final_flush;
  ]
