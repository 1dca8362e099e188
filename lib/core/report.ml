module P = Iolb_symbolic.Polynomial
module R = Iolb_symbolic.Ratfun
module Rat = Iolb_util.Rat
module Budget = Iolb_util.Budget
module Engine_error = Iolb_util.Engine_error
module K = Iolb_kernels

type entry = {
  kernel : Paper_formulas.kernel;
  display : string;
  program : Iolb_ir.Program.t;
  verify_params : (string * int) list;
  grid : (int * int * int) list;
  finalize : R.t -> R.t;
}

let default_grid =
  [
    (64, 32, 16);
    (64, 32, 256);
    (128, 64, 64);
    (256, 64, 1024);
    (256, 128, 4096);
    (512, 128, 1024);
  ]

(* GEHD2 is square (M is the loop-split point, not a matrix size); its
   bounds are functions of N and S only after the split parameter is
   instantiated at M = N/2 - 1 as in the proof of Theorem 9. *)
let gehd2_split_subst =
  P.add (P.scale Rat.half (P.var "N")) (P.of_int (-1))

let registry =
  [
    {
      kernel = Paper_formulas.Mgs;
      display = "MGS";
      program = K.Mgs.spec;
      verify_params = [ ("M", 6); ("N", 4) ];
      grid = default_grid;
      finalize = Fun.id;
    };
    {
      kernel = Paper_formulas.A2v;
      display = "QR HH A2V";
      program = K.Householder.a2v_spec;
      verify_params = [ ("M", 7); ("N", 4) ];
      grid = default_grid;
      finalize = Fun.id;
    };
    {
      kernel = Paper_formulas.V2q;
      display = "QR HH V2Q";
      program = K.Householder.v2q_spec;
      verify_params = [ ("M", 7); ("N", 4) ];
      grid = default_grid;
      finalize = Fun.id;
    };
    {
      kernel = Paper_formulas.Gebd2;
      display = "GEBD2";
      program = K.Gebd2.spec;
      verify_params = [ ("M", 7); ("N", 4) ];
      grid = default_grid;
      finalize = Fun.id;
    };
    {
      kernel = Paper_formulas.Gehd2;
      display = "GEHD2";
      program = K.Gehd2.split_spec;
      verify_params = [ ("N", 9); ("M", 3) ];
      grid =
        [
          (* m is ignored for GEHD2 (square N x N). *)
          (0, 64, 16);
          (0, 64, 128);
          (0, 128, 64);
          (0, 256, 1024);
          (0, 512, 4096);
        ];
      finalize = R.subst "M" gehd2_split_subst;
    };
  ]

let baselines =
  [
    ("gemm", K.Gemm.spec, [ ("M", 4); ("N", 4); ("K", 4) ]);
    ("cholesky", K.Cholesky.spec, [ ("N", 8) ]);
    ("lu", K.Lu.spec, [ ("N", 8) ]);
    ("syrk", K.Syrk.spec, [ ("N", 6); ("K", 5) ]);
    ("syr2k", K.Syr2k.spec, [ ("N", 6); ("K", 5) ]);
    ("trsm", K.Trsm.spec, [ ("N", 6); ("M", 4) ]);
    ("trmm", K.Trmm.spec, [ ("M", 6); ("N", 4) ]);
    ("atax", K.Atax.spec, [ ("M", 6); ("N", 4) ]);
    ("jacobi1d", K.Jacobi1d.spec, [ ("T", 4); ("N", 8) ]);
  ]

let find name =
  match
    List.find_opt
      (fun e ->
        String.lowercase_ascii e.display = String.lowercase_ascii name
        || Paper_formulas.kernel_name e.kernel = String.lowercase_ascii name
        || e.program.Iolb_ir.Program.name = name)
      registry
  with
  | Some e -> e
  | None ->
      let paper =
        List.map (fun e -> Paper_formulas.kernel_name e.kernel) registry
      in
      let baseline = List.map (fun (n, _, _) -> n) baselines in
      Engine_error.raise_error
        (Engine_error.Invalid_input
           (Printf.sprintf
              "unknown kernel %S (paper kernels: %s; baselines: %s; or pass \
               a DSL source with --file PROG.iolb)"
              name
              (String.concat ", " paper)
              (String.concat ", " baseline)))

type analysis = {
  entry : entry;
  hourglasses : Hourglass.t list;
  bounds : Derive.t list;
  degradation : string option;
}

let analyze ?(budget = Budget.unlimited) entry =
  (* Detection for display only: if it blows the budget here, the ladder
     below records the abort; an empty pattern list is an honest display. *)
  let hourglasses =
    match
      Hourglass.detect_verified ~budget ~params:entry.verify_params
        entry.program
    with
    | hgs -> hgs
    | exception Budget.Exhausted _ -> []
  in
  match
    Derive.analyze_ladder ~budget ~verify_params:entry.verify_params
      entry.program
  with
  | Error e -> Engine_error.raise_error e
  | Ok (o : Derive.outcome) ->
      {
        entry;
        hourglasses;
        bounds =
          List.map
            (fun (b : Derive.t) ->
              let valid =
                {
                  Derive.s_lo = entry.finalize b.Derive.valid.Derive.s_lo;
                  s_hi =
                    Option.map entry.finalize b.Derive.valid.Derive.s_hi;
                }
              in
              {
                b with
                Derive.formula = entry.finalize b.Derive.formula;
                valid;
                validity = Derive.region_validity valid;
                s_max = valid.Derive.s_hi;
              })
            o.bounds;
        degradation = o.degradation;
      }

(* Memoized unlimited-budget analyses.  The registry is a fixed set of
   entries analysed identically by many consumers (every bench section, the
   CLI); the symbolic derivation is deterministic, so computing each entry
   once per process is observationally equivalent.  Keyed by display name
   (unique in the registry).  The table is the only shared mutable state:
   lookups and insertions are mutex-protected, while the analysis itself
   runs outside the lock so distinct entries can warm up concurrently; on a
   race the first insertion wins (both candidates are equal anyway). *)
let memo : (string, analysis) Hashtbl.t = Hashtbl.create 8
let memo_mutex = Mutex.create ()

(* Counters let the bound service's [stats] endpoint (and the tests)
   observe memoization directly instead of probing physical equality.
   A lost insertion race still counts as a miss: the analysis ran. *)
type cache_stats = { hits : int; misses : int; entries : int }

let memo_hits = Atomic.make 0
let memo_misses = Atomic.make 0

let cache_stats () =
  {
    hits = Atomic.get memo_hits;
    misses = Atomic.get memo_misses;
    entries = Mutex.protect memo_mutex (fun () -> Hashtbl.length memo);
  }

let analyze_cached entry =
  let key = entry.display in
  match Mutex.protect memo_mutex (fun () -> Hashtbl.find_opt memo key) with
  | Some a ->
      Atomic.incr memo_hits;
      a
  | None ->
      Atomic.incr memo_misses;
      let a = analyze entry in
      Mutex.protect memo_mutex (fun () ->
          match Hashtbl.find_opt memo key with
          | Some winner -> winner
          | None ->
              Hashtbl.add memo key a;
              a)

let analyze_all ?jobs () = Iolb_util.Pool.map ?jobs analyze_cached registry

let params_of entry ~m ~n =
  match entry.kernel with
  | Paper_formulas.Gehd2 -> [ ("N", n) ]
  | _ -> [ ("M", m); ("N", n) ]

(* Concrete instantiation parameters for CDAG/trace building.  GEHD2 is
   square: N is the matrix size and M the loop-split point, pinned at
   M = N/2 - 1 as in the proof of Theorem 9 - which requires n >= 4 for the
   split domain to be non-degenerate. *)
let concrete_params entry ~m ~n =
  match entry.kernel with
  | Paper_formulas.Gehd2 ->
      if n < 4 then
        Engine_error.invalid
          "GEHD2 needs n >= 4 (loop split M = n/2 - 1 must be >= 1), got n = %d"
          n
      else Ok [ ("N", n); ("M", (n / 2) - 1) ]
  | _ ->
      if m < 1 || n < 1 then
        Engine_error.invalid "need m >= 1 and n >= 1, got m = %d, n = %d" m n
      else Ok [ ("M", m); ("N", n) ]

let eval_best a ~technique ~m ~n ~s =
  let keep (b : Derive.t) =
    match (technique, b.technique) with
    | `Classical, Derive.Classical -> true
    | `Hourglass, (Derive.Hourglass | Derive.Hourglass_small_s) -> true
    | _ -> false
  in
  let params = params_of a.entry ~m ~n in
  Derive.best ~params ~s (List.filter keep a.bounds)
  |> Option.map (fun b -> Derive.eval b ~params ~s)

type comparison_row = { m : int; n : int; s : int; engine : float; paper : float }

let compare_with_paper a ~technique =
  let paper_formula =
    match technique with
    | `Classical -> Paper_formulas.fig5_old a.entry.kernel
    | `Hourglass -> Paper_formulas.fig5_new a.entry.kernel
  in
  List.filter_map
    (fun (m, n, s) ->
      match eval_best a ~technique ~m ~n ~s with
      | None -> None
      | Some engine ->
          Some { m; n; s; engine; paper = Paper_formulas.eval_at paper_formula ~m ~n ~s })
    a.entry.grid

let pp_analysis fmt a =
  Format.fprintf fmt "@[<v>== %s ==@," a.entry.display;
  (match a.hourglasses with
  | [] -> Format.fprintf fmt "no verified hourglass pattern@,"
  | hs ->
      List.iter
        (fun h ->
          Format.fprintf fmt "%a@," Hourglass.pp h;
          (* Regime decomposition of the sharpened Brascamp-Lieb LP: one
             parametric sweep over W = K^theta, theta in [1/2, 1]. *)
          let dims, projs = Derive.sharpened_projections a.entry.program h in
          match Bl.exponent_regions ~dims projs with
          | None -> ()
          | Some rs ->
              Format.fprintf fmt "  |I'| regimes (W = K^theta):@,";
              List.iter
                (fun r -> Format.fprintf fmt "    %a@," Bl.pp_exponent_region r)
                rs)
        hs);
  (match a.degradation with
  | None -> ()
  | Some why -> Format.fprintf fmt "degraded: %s@," why);
  List.iter (fun b -> Format.fprintf fmt "%a@," Derive.pp b) a.bounds;
  Format.fprintf fmt "@]"
