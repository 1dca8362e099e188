(* The one loop-nest compiler against the reference interpreter
   ([Iolb_check.Interp]), access for access: the numbered walk ([iter]:
   the first-occurrence ids of the slice's cells, write flags,
   footprint, and one budget checkpoint per instance with an access),
   and the CDAG builder's walk ([iter_instances]: the same ids with
   every instance announced, statement and vector, and each cell decoded
   back), whatever the plan's layout.  [iter] takes the seek walk on a
   dense layout and the instance walk otherwise (sparse_hull,
   hull_overflow); [iter_instances] takes the instance walk on both.
   The id comparison is what checks the layout: addresses that alias
   two cells merge their ids, and the table read that numbers an address
   is bounds-checked against the address space.  The seek contract: producing [0, k) and then the rest -
   or any finer slicing - reproduces the full stream, with [globalize]
   turning the slices' ids into the whole stream's.  The sampled scan
   must keep exactly the reference accesses whose cell hash falls below
   the threshold, in order.  Covers the paper kernels, the baselines, the
   tiled specs, the parseable test/data programs and random generated
   programs. *)

module C = Iolb_ir.Cplan
module Interp = Iolb_check.Interp
module Report = Iolb.Report
module K = Iolb_kernels
module Spec = Iolb_check.Spec
module Gen = Iolb_check.Gen
module Budget = Iolb_util.Budget

let first_difference what got want =
  let rec go k = function
    | x :: xs, y :: ys when x = y -> go (k + 1) (xs, ys)
    | [], [] -> ()
    | _ -> Alcotest.failf "%s: event %d differs from the reference" what k
  in
  go 0 (got, want)

(* The reference stream with, per access, the index of its instance. *)
let reference_instances ~params prog =
  Array.of_list
    (List.concat
       (List.mapi
          (fun k (i : Interp.instance) ->
            List.map (fun (a, x) -> (a, x, false, k)) i.reads
            @ List.map (fun (a, x) -> (a, x, true, k)) i.writes)
          (Interp.instances ~params prog)))

(* First-occurrence numbering of the reference accesses [lo, hi): the id
   of each access, and the number of distinct cells. *)
let reference_ids full lo hi =
  let ids = Hashtbl.create 64 in
  let seq =
    List.init (hi - lo) (fun k ->
        let a, x, _, _ = full.(lo + k) in
        match Hashtbl.find_opt ids (a, x) with
        | Some c -> c
        | None ->
            let c = Hashtbl.length ids in
            Hashtbl.add ids (a, x) c;
            c)
  in
  (seq, Hashtbl.length ids)

let walks = [ ("iter", C.iter) ]

(* One numbered walk of [lo, hi) against the reference: ids and write
   flags, footprint, and one [Cdag_build] checkpoint per instance with an
   access in the slice.  Returns the slice's cells and emitted ids. *)
let check_walk ~what full plan (wname, walk) (lo, hi) =
  let what = Printf.sprintf "%s: %s [%d, %d)" what wname lo hi in
  let want_ids, fp = reference_ids full lo hi in
  let slice = List.init (hi - lo) (fun k -> full.(lo + k)) in
  let budget = Budget.make ~max_steps:max_int () in
  let got = ref [] in
  let cells =
    walk plan ~budget ~lo ~hi ~on_access:(fun id w -> got := (id, w) :: !got)
  in
  let got = List.rev !got in
  first_difference (what ^ ": ids") got
    (List.map2 (fun id (_, _, w, _) -> (id, w)) want_ids slice);
  Alcotest.(check int) (what ^ ": footprint") fp (C.footprint cells);
  let instances = Hashtbl.create 64 in
  List.iter (fun (_, _, _, k) -> Hashtbl.replace instances k ()) slice;
  Alcotest.(check int) (what ^ ": gated instances") (Hashtbl.length instances)
    (Budget.stage_steps budget Budget.Cdag_build);
  (cells, List.map fst got)

(* The whole stream with every instance announced, statement and
   vector, before its accesses, those without accesses included; the
   returned cells decode to the reference's cells in first-occurrence
   order. *)
let check_instances ~what ~params prog plan =
  let got = ref [] in
  let cells =
    C.iter_instances plan
      ~on_instance:(fun s v ->
        got := `Inst (C.stmt_name plan s, Array.copy v) :: !got)
      ~on_access:(fun id w -> got := `Access (id, w) :: !got)
  in
  let ids = Hashtbl.create 64 and order = ref [] in
  let id_of cell =
    match Hashtbl.find_opt ids cell with
    | Some c -> c
    | None ->
        let c = Hashtbl.length ids in
        Hashtbl.add ids cell c;
        order := cell :: !order;
        c
  in
  let want =
    List.concat_map
      (fun (i : Interp.instance) ->
        (* the reads number their cells before the writes do *)
        let reads = List.map (fun c -> `Access (id_of c, false)) i.reads in
        let writes = List.map (fun c -> `Access (id_of c, true)) i.writes in
        (`Inst (i.stmt, i.vec) :: reads) @ writes)
      (Interp.instances ~params prog)
  in
  first_difference (what ^ ": iter_instances") (List.rev !got) want;
  Alcotest.(check int) (what ^ ": iter_instances footprint")
    (Hashtbl.length ids) (C.footprint cells);
  List.iteri
    (fun id (name, idx) ->
      let name', idx' = C.cell plan cells id in
      if name' <> name || idx' <> idx then
        Alcotest.failf "%s: cell %d decodes to %s, not %s" what id name' name)
    (List.rev !order)

(* The counts and the numbered walks over the whole stream. *)
let check_full ?(layout = true) ~what ~params prog =
  let full = reference_instances ~params prog in
  let n = Array.length full in
  let plan = C.make ~params prog in
  Alcotest.(check int) (what ^ ": n_accesses") n (C.n_accesses plan);
  Alcotest.(check int) (what ^ ": n_instances")
    (List.length
       (List.filter
          (fun (i : Interp.instance) -> i.reads <> [] || i.writes <> [])
          (Interp.instances ~params prog)))
    (C.n_instances plan);
  Alcotest.(check bool) (what ^ ": has a layout") layout
    (C.addr_space plan <> None);
  check_instances ~what ~params prog plan;
  List.iter (fun w -> ignore (check_walk ~what full plan w (0, n))) walks

(* The seek contract: emitting [0, k) and then [k, n) - or any finer
   slicing - reproduces the full stream, slice-local ids and all, and
   [globalize] maps each slice's ids to the whole stream's. *)
let check_slices ~what ~params prog cuts_list =
  let full = reference_instances ~params prog in
  let n = Array.length full in
  let plan = C.make ~params prog in
  let whole, _ = reference_ids full 0 n in
  List.iter
    (fun cuts ->
      let bounds = (0 :: cuts) @ [ n ] in
      let rec pairs = function
        | a :: (b :: _ as rest) -> (a, b) :: pairs rest
        | _ -> []
      in
      List.iter
        (fun ((wname, _) as walk) ->
          let slices =
            List.map (check_walk ~what full plan walk) (pairs bounds)
          in
          let global =
            List.concat
              (List.map2
                 (fun gids (_, ids) -> List.map (fun id -> gids.(id)) ids)
                 (C.globalize plan (List.map fst slices))
                 slices)
          in
          first_difference
            (Printf.sprintf "%s: %s globalized at cuts %s" what wname
               (String.concat "," (List.map string_of_int cuts)))
            global whole)
        walks)
    cuts_list

(* The sampled scan keeps exactly the reference accesses whose cell hash
   is below [thresh], in program order, numbers their arrays one to one
   with the (name, rank) pairs, and ticks for every access.  Rate 1e-3
   keeps nothing in most loops, 0.99 almost everything. *)
let check_sampled ~what ~params prog =
  let plan = C.make ~params prog and reference = Interp.accesses ~params prog in
  List.iter
    (fun (seed, rate) ->
      let thresh = int_of_float (rate *. 4611686018427387904.0) in
      let want =
        List.filter_map
          (fun (name, idx, w) ->
            let h = C.sample_hash ~seed name idx in
            if h < thresh then Some (h, (name, Array.length idx), w) else None)
          reference
      in
      let got = ref [] and ticked = ref 0 in
      C.iter_sampled plan ~seed ~thresh
        ~on_tick:(fun n -> ticked := !ticked + n)
        ~on_access:(fun h a w -> got := (h, a, w) :: !got);
      let got = List.rev !got in
      let what = Printf.sprintf "%s seed=%d rate=%g" what seed rate in
      Alcotest.(check (list (pair int bool)))
        (what ^ ": kept")
        (List.map (fun (h, _, w) -> (h, w)) want)
        (List.map (fun (h, _, w) -> (h, w)) got);
      let pairs =
        List.sort_uniq compare
          (List.map2 (fun (_, key, _) (_, a, _) -> (key, a)) want got)
      in
      let distinct f = List.length (List.sort_uniq compare (List.map f pairs)) in
      if distinct fst <> List.length pairs || distinct snd <> List.length pairs
      then Alcotest.failf "%s: array numbers not one to one with (name, rank)" what;
      Alcotest.(check int) (what ^ ": ticks") (C.n_accesses plan) !ticked)
    [ (0, 0.05); (7, 0.4); (42, 0.9); (3, 1e-3); (9, 0.99) ]

(* test/data programs, parsed as [bounds --file] would. *)
let data_program name =
  let src =
    Test_front.parse_file_ok (Test_front.locate ("data/" ^ name ^ ".iolb"))
  in
  (src.Iolb_front.Front.program, src.Iolb_front.Front.verify)

let paper_kernels () =
  List.iter
    (fun (e : Report.entry) ->
      check_full ~what:e.Report.display ~params:e.Report.verify_params
        e.Report.program)
    Report.registry;
  List.iter
    (fun (name, prog, params) -> check_full ~what:name ~params prog)
    Report.baselines

let tiled_kernels () =
  check_full ~what:"mgs tiled" ~params:[] (K.Mgs.tiled_spec ~m:16 ~n:8 ~b:2);
  check_full ~what:"a2v tiled" ~params:[]
    (K.Householder.tiled_spec ~m:16 ~n:8 ~b:2)

(* An array name used at two ranks names two disjoint cell sets; an
   innermost loop running downwards steps its cursors backwards, in the
   exact production, its seeks and the sampled scan.  sampled_strides
   gives the sampled scan's skip walk a downward loop, stride-2 and
   stride-4 subscripts, a negative coefficient, loop-invariant sites
   beside strided ones, and triangular innermost loops down to trips 1
   and 0.  A skewed subscript and a program whose derivation leaves
   63-bit rationals still get a laid-out plan, and so does a hull of
   about 9e7 addresses around 42 cells, too sparse for a flat numbering
   table.  Statements without accesses, beside an accessing one or alone
   in an innermost loop, gate nothing and are skipped by every seek. *)
let data_programs () =
  List.iter
    (fun name ->
      let prog, params = data_program name in
      let n = C.n_accesses (C.make ~params prog) in
      check_full ~what:name ~params prog;
      check_slices ~what:name ~params prog
        [ [ n / 2 ]; [ 1; 2; 3 ]; [ n / 3; (2 * n) / 3; n - 2 ] ];
      check_sampled ~what:name ~params prog)
    [
      "rank_mismatch"; "reverse_inner"; "skew"; "rat_overflow"; "sparse_hull";
      "no_access"; "no_access_loop"; "sampled_strides";
    ]

(* A hull whose volume is 2^63 leaves the plan without an address layout
   instead of wrapping into a tiny address space; its cell walk, the
   numbered walk, its slicings and the sampled scan still equal the
   reference. *)
let hull_overflow () =
  let prog, params = data_program "hull_overflow" in
  let n = C.n_accesses (C.make ~params prog) in
  check_full ~layout:false ~what:"hull_overflow" ~params prog;
  check_slices ~what:"hull_overflow" ~params prog [ [ n / 2 ]; [ 1; 2; 3 ] ];
  check_sampled ~what:"hull_overflow" ~params prog

(* The closed-form counts are checked, not wrapped: at A = 2^30 and
   B = 2^31 - 1, count_wrap makes exactly 2^62 - 2^31 accesses (two per
   instance), which fit; at B = 2^32 it would make 2^63, and both counts
   raise a typed invalid input instead of returning the wrapped 0. *)
let count_overflow () =
  let prog, _ = data_program "count_wrap" in
  let plan b = C.make ~params:[ ("A", 1 lsl 30); ("B", b) ] prog in
  let fits = plan ((1 lsl 31) - 1) in
  Alcotest.(check int) "accesses at (2^30, 2^31 - 1)"
    (max_int - (1 lsl 31) + 1)
    (C.n_accesses fits);
  Alcotest.(check int) "instances at (2^30, 2^31 - 1)"
    ((1 lsl 61) - (1 lsl 30))
    (C.n_instances fits);
  let huge = plan (1 lsl 32) in
  List.iter
    (fun (what, count) ->
      match count huge with
      | n -> Alcotest.failf "%s at (2^30, 2^32): returned %d" what n
      | exception Iolb_util.Engine_error.(Error (Invalid_input _)) -> ())
    [ ("n_accesses", C.n_accesses); ("n_instances", C.n_instances) ]

let sampled_kernels () =
  List.iter
    (fun (e : Report.entry) ->
      check_sampled ~what:e.Report.display ~params:e.Report.verify_params
        e.Report.program)
    Report.registry;
  List.iter
    (fun (name, prog, params) -> check_sampled ~what:name ~params prog)
    Report.baselines;
  check_sampled ~what:"mgs tiled" ~params:[] (K.Mgs.tiled_spec ~m:16 ~n:8 ~b:2);
  check_sampled ~what:"a2v tiled" ~params:[]
    (K.Householder.tiled_spec ~m:16 ~n:8 ~b:2)

let kernel_slices () =
  let params = [ ("M", 24); ("N", 12) ] in
  let n = C.n_accesses (C.make ~params Programs.mgs) in
  check_slices ~what:"mgs" ~params Programs.mgs
    [ []; [ n / 2 ]; [ 1; 2; 3 ]; [ n / 3; n / 2; n - 1 ]; [ 7; 7 ] ];
  (* V2Q exercises reverse loops *)
  let e = Report.find "qr_hh_v2q" in
  let params = e.Report.verify_params in
  let n = C.n_accesses (C.make ~params e.Report.program) in
  check_slices ~what:"v2q" ~params e.Report.program
    [ []; [ n / 2 ]; [ n / 4; (3 * n) / 4 ] ]

(* Random programs x random split points: seek k + produce-rest = full. *)
let prop_random_slices =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"cplan: seek k + rest = full production (random)"
       ~count:120
       QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 9999))
       (fun (seed, cut_seed) ->
         let spec = Gen.spec ~seed in
         let prog, params = Spec.to_program spec in
         let n = C.n_accesses (C.make ~params prog) in
         let k = if n = 0 then 0 else cut_seed mod (n + 1) in
         check_full ~what:(Spec.to_string spec) ~params prog;
         check_slices ~what:(Spec.to_string spec) ~params prog
           [ [ k ]; [ k / 2; k ] ];
         true))

let prop_random_sampled =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"cplan: sampled scan = filtered reference (random)"
       ~count:60 (QCheck2.Gen.int_range 0 1_000_000) (fun seed ->
         let spec = Gen.spec ~seed in
         let prog, params = Spec.to_program spec in
         check_sampled ~what:(Spec.to_string spec) ~params prog;
         true))

(* The scan's skip walk takes innermost loops of at least 16 iterations,
   which the verify points rarely reach: the paper kernels, the baselines
   and test/data programs at three times their verify point. *)
let sampled_larger_points () =
  let x3 params = List.map (fun (x, v) -> (x, 3 * v)) params in
  List.iter
    (fun (what, prog, params) ->
      check_sampled ~what:(what ^ " x3") ~params:(x3 params) prog)
    (List.map
       (fun (e : Report.entry) -> (e.display, e.program, e.verify_params))
       Report.registry
    @ Report.baselines
    @ List.map
        (fun name ->
          let prog, params = data_program name in
          (name, prog, params))
        [ "column_hourglass"; "two_regime"; "reverse_inner"; "skew"; "rank_mismatch" ])

let suite =
  [
    Alcotest.test_case "paper + baseline kernels" `Quick paper_kernels;
    Alcotest.test_case "tiled kernels (concrete params)" `Quick tiled_kernels;
    Alcotest.test_case "kernel slicings (incl. reverse loops)" `Quick
      kernel_slices;
    Alcotest.test_case "two ranks, reverse inner loops" `Quick
      data_programs;
    Alcotest.test_case "hull overflow leaves no layout" `Quick
      hull_overflow;
    Alcotest.test_case "sampled scan = filtered reference" `Quick
      sampled_kernels;
    Alcotest.test_case "counts past max_int raise" `Quick count_overflow;
    prop_random_slices;
    prop_random_sampled;
    Alcotest.test_case "sampled scan = filtered reference (x3 points)" `Quick
      sampled_larger_points;
  ]
