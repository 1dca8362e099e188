(* End-to-end Householder QR study: numeric correctness of GEQR2/ORG2R, the
   hourglass bounds of both passes, and the tiled A2V validation of
   Appendix A.2.

   Run with:  dune exec examples/qr_io_study.exe *)

module K = Iolb_kernels
module Matrix = Iolb_kernels.Matrix
module Report = Iolb.Report
module Cache = Iolb_pebble.Cache
module Sweep = Iolb_pebble.Sweep
module Trace = Iolb_pebble.Trace

let () =
  (* Numerics first: the kernels must actually factor. *)
  let m = 64 and n = 24 in
  let a = Matrix.random ~seed:5 m n in
  let q, r = K.Householder.qr a in
  Printf.printf "GEQR2+ORG2R on %dx%d:\n" m n;
  Printf.printf "  |A - QR| / |A|    = %.2e\n" (Matrix.rel_error a (Matrix.mul q r));
  Printf.printf "  |Q^T Q - I|       = %.2e\n" (Matrix.orthogonality_error q);
  let f_tiled = K.Householder.geqr2_tiled ~b:8 a in
  let f = K.Householder.geqr2 a in
  Printf.printf "  tiled vs untiled  = %.2e\n"
    (Matrix.rel_error f.K.Householder.vr f_tiled.K.Householder.vr);

  (* Lower bounds for both passes. *)
  Printf.printf "\nLower bounds (derived automatically):\n";
  List.iter
    (fun name ->
      let analysis = Report.analyze (Report.find name) in
      List.iter
        (fun b -> Format.printf "  %a@." Iolb.Derive.pp b)
        analysis.Report.bounds)
    [ "qr_hh_a2v"; "qr_hh_v2q" ];

  (* Appendix A.2: the tiled A2V measured I/O against the prediction. *)
  let m = 48 and n = 16 and s = 400 in
  Printf.printf "\nTiled A2V at m=%d n=%d S=%d:\n" m n s;
  Printf.printf "%6s | %10s %10s | %10s\n" "B" "opt loads" "lru loads" "predicted";
  List.iter
    (fun b ->
      if n mod b = 0 then begin
        let trace =
          Trace.of_program ~params:[] (K.Householder.tiled_spec ~m ~n ~b)
        in
        let opt = Cache.opt ~size:s trace in
        let lru = Cache.lru ~size:s trace in
        let predicted =
          (0.5
           *. (float_of_int (m * n * n) -. (float_of_int (n * n * n) /. 3.))
           /. float_of_int b)
          +. (2. *. float_of_int (m * n))
        in
        Printf.printf "%6d | %10d %10d | %10.0f\n" b opt.Cache.loads
          lru.Cache.loads predicted
      end)
    [ 1; 2; 4; 8 ];

  (* How the tiled trace behaves as the cache shrinks or grows: one
     reuse-distance pass answers every size (exact LRU loads/hits/stores),
     and one shared OPT plan feeds the per-size forward runs. *)
  let b = 4 in
  let trace = Trace.of_program ~params:[] (K.Householder.tiled_spec ~m ~n ~b) in
  let plan = Cache.opt_plan trace in
  Printf.printf
    "\nCache-size sweep of the tiled A2V trace (B=%d, one pass for all S):\n" b;
  Printf.printf "%8s | %10s %10s %10s | %10s\n" "S" "lru loads" "hits" "stores"
    "opt loads";
  let sweep = Sweep.run trace in
  List.iter
    (fun sz ->
      let lru = Sweep.stats sweep ~size:sz in
      let opt = Cache.opt_run ~size:sz plan in
      Printf.printf "%8d | %10d %10d %10d | %10d\n" sz lru.Cache.loads
        lru.Cache.read_hits lru.Cache.stores opt.Cache.loads)
    [ 50; 100; 200; 400; 800; 1600 ]
