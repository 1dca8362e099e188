(* The one loop-nest compiler against the reference interpreter
   ([Iolb_check.Interp]), access for access: the cell walk ([iter_cells]:
   reads, then the instance, then writes), the dense-address production
   ([iter]: cell, write flag, position, instance granularity, injective
   in-range addresses) wherever the plan has a layout, and - the seek
   contract - producing [0, k) and then the rest must reproduce the full
   stream for every split point.  The sampled scan must keep exactly the
   reference accesses whose cell hash falls below the threshold, in
   order.  Covers the paper kernels, the baselines, the tiled specs, the
   parseable test/data programs and random generated programs. *)

module C = Iolb_ir.Cplan
module Interp = Iolb_check.Interp
module Report = Iolb.Report
module K = Iolb_kernels
module Spec = Iolb_check.Spec
module Gen = Iolb_check.Gen

(* Reference stream: (name, index, is_write) in emission order. *)
let reference ~params prog = Array.of_list (Interp.accesses ~params prog)

type event =
  | Load of string * int array
  | Inst of string * int array
  | Store of string * int array

let first_difference what got want =
  let rec go k = function
    | x :: xs, y :: ys when x = y -> go (k + 1) (xs, ys)
    | [], [] -> ()
    | _ -> Alcotest.failf "%s: event %d differs from the reference" what k
  in
  go 0 (got, want)

(* The cell walk, with its borrowed buffers copied. *)
let check_cells ~what ~params prog plan =
  let want =
    List.concat_map
      (fun (i : Interp.instance) ->
        List.map (fun (a, x) -> Load (a, x)) i.reads
        @ Inst (i.stmt, i.vec)
          :: List.map (fun (a, x) -> Store (a, x)) i.writes)
      (Interp.instances ~params prog)
  in
  let got = ref [] in
  let push mk name v = got := mk name (Array.copy v) :: !got in
  C.iter_cells plan
    ~on_load:(push (fun a x -> Load (a, x)))
    ~on_stmt:(push (fun s v -> Inst (s, v)))
    ~on_store:(push (fun a x -> Store (a, x)));
  first_difference (what ^ ": iter_cells") (List.rev !got) want

(* Full-range dense production through a laid-out plan, decoded. *)
let check_dense ~what ~params prog plan full space =
  let n = Array.length full in
  let instances = ref 0 in
  let pos = ref 0 in
  let cell_of = Hashtbl.create 64 in
  C.iter plan ~lo:0 ~hi:max_int
    ~on_instance:(fun () -> incr instances)
    ~on_access:(fun p addr w ->
      Alcotest.(check int) (what ^ ": position") !pos p;
      if p >= n then Alcotest.failf "%s: access beyond reference length" what;
      if addr < 0 || addr >= space then
        Alcotest.failf "%s: address %d outside [0, %d)" what addr space;
      let en, ei, ew = full.(p) in
      if ew <> w then Alcotest.failf "%s: write flag differs at %d" what p;
      (* the address must be injective on cells and decode to the cell *)
      let dn, di = C.decode plan addr in
      if not (dn = en && di = ei) then
        Alcotest.failf "%s: decode %d gives %s, reference %s" what addr dn en;
      (match Hashtbl.find_opt cell_of addr with
      | Some (n0, i0) ->
          if not (n0 = en && i0 = ei) then
            Alcotest.failf "%s: address %d aliases two cells" what addr
      | None -> Hashtbl.add cell_of addr (en, Array.copy ei));
      incr pos);
  Alcotest.(check int) (what ^ ": all accesses") n !pos;
  Alcotest.(check int)
    (what ^ ": instance count")
    (List.length (Interp.instances ~params prog))
    !instances;
  (* distinct cells <-> distinct addresses *)
  let cells = Hashtbl.create 64 in
  Array.iter (fun (n, i, _) -> Hashtbl.replace cells (n, i) ()) full;
  Alcotest.(check int)
    (what ^ ": footprint = distinct addresses")
    (Hashtbl.length cells) (Hashtbl.length cell_of)

(* The count, the cell walk and, when the plan has an address layout,
   full-range dense production, decoded. *)
let check_full ?(layout = true) ~what ~params prog =
  let full = reference ~params prog in
  let n = Array.length full in
  let plan = C.make ~params prog in
  Alcotest.(check int) (what ^ ": n_accesses") n (C.n_accesses plan);
  Alcotest.(check bool) (what ^ ": has a layout") layout
    (C.addr_space plan <> None);
  check_cells ~what ~params prog plan;
  Option.iter (check_dense ~what ~params prog plan full) (C.addr_space plan)

(* The seek contract: emitting [0, k) and then [k, n) - or any finer
   slicing - reproduces the full production. *)
let check_slices ~what ~params prog cuts_list =
  let full = reference ~params prog in
  let n = Array.length full in
  let plan = C.make ~params prog in
  List.iter
    (fun cuts ->
      let bounds = (0 :: cuts) @ [ n ] in
      let rec pairs = function
        | a :: (b :: _ as rest) -> (a, b) :: pairs rest
        | _ -> []
      in
      let pos = ref 0 in
      List.iter
        (fun (lo, hi) ->
          C.iter plan ~lo ~hi
            ~on_instance:(fun () -> ())
            ~on_access:(fun p addr w ->
              Alcotest.(check int) (what ^ ": slice position") !pos p;
              let en, ei, ew = full.(p) in
              let dn, di = C.decode plan addr in
              if not (dn = en && di = ei && w = ew) then
                Alcotest.failf "%s: access %d differs in slice [%d, %d)" what p
                  lo hi;
              incr pos))
        (pairs bounds);
      Alcotest.(check int) (what ^ ": slices cover") n !pos)
    cuts_list

(* The sampled scan keeps exactly the reference accesses whose cell hash
   is below [thresh], in program order, and ticks for every access. *)
let check_sampled ~what ~params prog =
  let plan = C.make ~params prog in
  List.iter
    (fun (seed, rate) ->
      let thresh = int_of_float (rate *. 4611686018427387904.0) in
      let want =
        List.filter_map
          (fun (name, idx, w) ->
            let h = C.sample_hash ~seed name idx in
            if h < thresh then Some (h, w) else None)
          (Interp.accesses ~params prog)
      in
      let got = ref [] and ticked = ref 0 in
      C.iter_sampled plan ~seed ~thresh
        ~on_tick:(fun n -> ticked := !ticked + n)
        ~on_access:(fun h w -> got := (h, w) :: !got);
      let what = Printf.sprintf "%s seed=%d rate=%g" what seed rate in
      Alcotest.(check (list (pair int bool)))
        (what ^ ": kept") want (List.rev !got);
      Alcotest.(check int) (what ^ ": ticks") (C.n_accesses plan) !ticked)
    [ (0, 0.05); (7, 0.4); (42, 0.9) ]

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
   exact production, its seeks and the sampled scan.  A skewed subscript
   and a program whose derivation leaves 63-bit rationals still get a
   laid-out plan. *)
let data_programs () =
  List.iter
    (fun name ->
      let prog, params = data_program name in
      let n = C.n_accesses (C.make ~params prog) in
      check_full ~what:name ~params prog;
      check_slices ~what:name ~params prog
        [ [ n / 2 ]; [ 1; 2; 3 ]; [ n / 3; (2 * n) / 3; n - 2 ] ];
      check_sampled ~what:name ~params prog)
    [ "rank_mismatch"; "reverse_inner"; "skew"; "rat_overflow" ]

(* A hull whose volume is 2^63 leaves the plan without an address layout
   instead of wrapping into a tiny address space; its cell walk and
   sampled scan still equal the reference, and dense production refuses
   it. *)
let hull_overflow () =
  let prog, params = data_program "hull_overflow" in
  check_full ~layout:false ~what:"hull_overflow" ~params prog;
  check_sampled ~what:"hull_overflow" ~params prog;
  let plan = C.make ~params prog in
  Alcotest.check_raises "no dense production"
    (Invalid_argument "Cplan.iter: the plan has no address layout") (fun () ->
      C.iter plan ~lo:0 ~hi:1 ~on_instance:ignore ~on_access:(fun _ _ _ -> ()))

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
  let n = C.n_accesses (C.make ~params K.Mgs.spec) in
  check_slices ~what:"mgs" ~params K.Mgs.spec
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
    prop_random_slices;
    prop_random_sampled;
  ]
