module P = Iolb_symbolic.Polynomial
module R = Iolb_symbolic.Ratfun
module Rat = Iolb_util.Rat
module Engine_error = Iolb_util.Engine_error

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

(* Every registry program is defined once, by its shipped source under
   examples/kernels, embedded at build time ([Kernel_text]) and parsed
   here when the library initialises.  The embedded text is part of the
   build, so a parse failure is a packaging defect, not an input error. *)
let parse name text =
  let file = "examples/kernels/" ^ name ^ ".iolb" in
  match Iolb_lang.Front.parse_string ~file text with
  | Ok src -> src
  | Error d -> failwith (Iolb_lang.Diag.to_string d)

let paper ?(grid = default_grid) ?(finalize = Fun.id) kernel display text =
  let src = parse (Paper_formulas.kernel_name kernel) text in
  {
    kernel;
    display;
    program = src.program;
    verify_params = src.verify;
    grid;
    finalize;
  }

let registry =
  [
    paper Paper_formulas.Mgs "MGS" Kernel_text.mgs;
    paper Paper_formulas.A2v "QR HH A2V" Kernel_text.qr_hh_a2v;
    paper Paper_formulas.V2q "QR HH V2Q" Kernel_text.qr_hh_v2q;
    paper Paper_formulas.Gebd2 "GEBD2" Kernel_text.gebd2;
    paper Paper_formulas.Gehd2 "GEHD2" Kernel_text.gehd2
      ~grid:
        [
          (* m is ignored for GEHD2 (square N x N). *)
          (0, 64, 16);
          (0, 64, 128);
          (0, 128, 64);
          (0, 256, 1024);
          (0, 512, 4096);
        ]
      ~finalize:(R.subst "M" gehd2_split_subst);
  ]

let baseline name text =
  let src = parse name text in
  (name, src.program, src.verify)

let baselines =
  [
    baseline "gemm" Kernel_text.gemm;
    baseline "cholesky" Kernel_text.cholesky;
    baseline "lu" Kernel_text.lu;
    baseline "syrk" Kernel_text.syrk;
    baseline "syr2k" Kernel_text.syr2k;
    baseline "trsm" Kernel_text.trsm;
    baseline "trmm" Kernel_text.trmm;
    baseline "atax" Kernel_text.atax;
    baseline "jacobi1d" Kernel_text.jacobi1d;
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

let analyze ?budget entry =
  match
    Derive.ladder ?budget ~verify_params:entry.verify_params entry.program
  with
  | Error e -> Engine_error.raise_error e
  | Ok (hourglasses, (o : Derive.outcome)) ->
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

let pp_analysis fmt a =
  Format.fprintf fmt "@[<v>== %s ==@," a.entry.display;
  (match a.hourglasses with
  | [] -> Format.fprintf fmt "no verified hourglass pattern@,"
  | hs ->
      List.iter
        (fun h ->
          Format.fprintf fmt "%a@," Hourglass.pp h;
          (* Regime decomposition of the sharpened Brascamp-Lieb LP over
             W = K^theta, theta in [1/2, 1]. *)
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
