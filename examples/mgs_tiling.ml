(* The Appendix A.1 experiment as a study: sweep the block size B of the
   tiled left-looking MGS against the cache simulator and watch the I/O
   descend towards the hourglass lower bound, bottoming out at the paper's
   no-spill condition (M+1)B < S.

   Run with:  dune exec examples/mgs_tiling.exe -- [m] [n] [s] *)

module K = Iolb_kernels
module Cache = Iolb_pebble.Cache
module Sweep = Iolb_pebble.Sweep
module Trace = Iolb_pebble.Trace
module Report = Iolb.Report

let () =
  let m, n, s =
    match Sys.argv with
    | [| _; m; n; s |] -> (int_of_string m, int_of_string n, int_of_string s)
    | _ -> (48, 16, 400)
  in
  Printf.printf "Tiled MGS I/O study: m=%d n=%d S=%d\n" m n s;
  Printf.printf "paper block choice: B = floor(S/M) - 1 = %d\n" ((s / m) - 1);
  let analysis = Report.analyze (Report.find "mgs") in
  let lower =
    Option.get (Report.eval_best analysis ~technique:`Hourglass ~m ~n ~s)
  in
  let predicted b =
    (0.5 *. float_of_int (m * n * n) /. float_of_int b) +. float_of_int (m * n)
  in
  (* OPT through one plan run, LRU through the reuse-distance sweep *)
  let loads trace ~size =
    ( (Cache.opt_run ~size (Cache.opt_plan trace)).Cache.loads,
      (Sweep.stats (Sweep.run trace) ~size).Cache.loads )
  in
  Printf.printf "\n%6s | %10s %10s | %10s | %10s | %8s\n" "B" "opt loads"
    "lru loads" "predicted" "lower bnd" "no-spill";
  List.iter
    (fun b ->
      if n mod b = 0 then begin
        let trace = Trace.of_program ~params:[] (K.Mgs.tiled_spec ~m ~n ~b) in
        let opt, lru = loads trace ~size:s in
        Printf.printf "%6d | %10d %10d | %10.0f | %10.0f | %8b\n" b opt lru
          (predicted b) lower ((m + 1) * b < s)
      end)
    [ 1; 2; 4; 8; 16; 32 ];
  (* The untiled right-looking ordering for contrast. *)
  let untiled =
    Trace.of_program ~params:[ ("M", m); ("N", n) ] analysis.entry.program
  in
  let opt, lru = loads untiled ~size:s in
  Printf.printf "\nuntiled right-looking (program order): opt=%d lru=%d\n" opt
    lru;
  (* Cache-size sweep at the paper's block: every S below is answered by a
     single reuse-distance pass (LRU, exact hits/stores for all sizes at
     once) plus per-size forward runs over one shared OPT plan. *)
  let b = Iolb.Upper_bounds.paper_block ~m ~n ~s in
  let trace = Trace.of_program ~params:[] (K.Mgs.tiled_spec ~m ~n ~b) in
  let sizes =
    List.filter (fun x -> x > 0) [ s / 8; s / 4; s / 2; s; 2 * s; 4 * s ]
  in
  let plan = Cache.opt_plan trace in
  Printf.printf
    "\ncache-size sweep of the tiled trace (B=%d, one stack-distance pass):\n" b;
  Printf.printf "%8s | %10s %10s %10s | %10s\n" "S" "lru loads" "hits" "stores"
    "opt loads";
  let sweep = Sweep.run trace in
  List.iter
    (fun sz ->
      let lru = Sweep.stats sweep ~size:sz in
      let opt = Cache.opt_run ~size:sz plan in
      Printf.printf "%8d | %10d %10d %10d | %10d\n" sz lru.Cache.loads
        lru.Cache.read_hits lru.Cache.stores opt.Cache.loads)
    sizes;
  Printf.printf
    "\nReading: larger blocks divide the dominant (1/2)MN^2/B term until the\n\
     block no longer fits (no-spill false), at which point locality collapses.\n"
