module Program = Iolb_ir.Program
module Cdag = Iolb_cdag.Cdag
module Game = Iolb_pebble.Game
module Game_ref = Iolb_pebble.Game_ref
module Trace = Iolb_pebble.Trace
module Cache = Iolb_pebble.Cache
module Sweep = Iolb_pebble.Sweep
module Budget = Iolb_util.Budget
module Engine_error = Iolb_util.Engine_error
module Pool = Iolb_util.Pool
module P = Iolb_symbolic.Polynomial
module R = Iolb_symbolic.Ratfun
module Rat = Iolb_util.Rat
module D = Iolb.Derive

type outcome = Pass | Fail of string | Skip of string

type ctx = {
  spec : Spec.t;
  prog : Program.t;
  params : (string * int) list;
  budget : Budget.t;
  trace : Trace.t Lazy.t;
  cdag : Cdag.t Lazy.t;
  schedule : int array Lazy.t;
  plan : Game.plan Lazy.t;  (** the program schedule's, built once for every S *)
  derivation : (Iolb.Hourglass.t list * D.outcome) Lazy.t;
      (** the verified patterns and outcome of one {!D.ladder} call *)
  sizes : int list Lazy.t;
  games : (int, Game.result option) Hashtbl.t;
      (** memoized pebble-game runs per cache size; [None] = infeasible *)
}

(* [D.ladder], the derivation users see, with its error raised again:
   budget exhaustion the ladder could not absorb stays a budget skip,
   and any other error fails the oracle that forced it. *)
let ladder ~budget ~params prog =
  match D.ladder ~budget ~verify_params:params prog with
  | Ok r -> r
  | Error (Engine_error.Budget_exhausted stage) ->
      raise (Budget.Exhausted stage)
  | Error e -> raise (Engine_error.Error e)

let make_ctx ?(budget = Budget.unlimited) spec =
  let prog, params = Spec.to_program spec in
  let trace = lazy (Trace.of_program ~budget ~params prog) in
  let cdag = lazy (Cdag.of_program ~budget ~params prog) in
  let schedule = lazy (Game.program_schedule (Lazy.force cdag)) in
  let plan =
    lazy (Game.plan (Lazy.force cdag) ~schedule:(Lazy.force schedule))
  in
  let derivation = lazy (ladder ~budget ~params prog) in
  let sizes =
    lazy
      (let fp = Trace.footprint (Lazy.force trace) in
       List.sort_uniq compare
         (List.filter (fun s -> s >= 2) [ 2; 3; 4; 6; 8; 12; fp + 2 ]))
  in
  {
    spec;
    prog;
    params;
    budget;
    trace;
    cdag;
    schedule;
    plan;
    derivation;
    sizes;
    games = Hashtbl.create 8;
  }

let ctx_hourglasses c = fst (Lazy.force c.derivation)
let ctx_bounds c = (snd (Lazy.force c.derivation)).D.bounds

(* Under a step, time or node cap, a degraded outcome may be budget
   exhaustion the ladder absorbed.  Checks that need the full derivation
   skip it, as they skip a budget kill. *)
let degraded_by_budget c (o : D.outcome) =
  if Budget.is_unlimited c.budget then None else o.D.degradation

(* Clairvoyant-discard pebble game at size [s] on the program schedule;
   [None] when [s] is below some node's fan-in. *)
let game_at c s =
  match Hashtbl.find_opt c.games s with
  | Some r -> r
  | None ->
      let r =
        match Game.run_plan ~budget:c.budget (Lazy.force c.plan) ~s with
        | r -> Some r
        | exception Engine_error.Error (Invalid_input _) -> None
      in
      Hashtbl.add c.games s r;
      r

let fail fmt = Printf.ksprintf (fun s -> Fail s) fmt

let collect issues = if !issues = [] then Pass else Fail (String.concat "; " (List.rev !issues))

let push issues fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt

(* Index of the first position where two sequences differ, if any. *)
let first_diff a b =
  let rec go k = function
    | x :: xs, y :: ys -> if x = y then go (k + 1) (xs, ys) else Some k
    | [], [] -> None
    | _ -> Some k
  in
  go 0 (a, b)

(* ------------------------------------------------------------------ *)
(* card: symbolic cardinality (iterated Faulhaber) = the reference
   interpreter's instance count, per statement.                         *)

let prop_card c =
  let per_stmt = Hashtbl.create 8 in
  Interp.iter ~params:c.params c.prog (fun inst ->
      Hashtbl.replace per_stmt inst.stmt
        (1 + Option.value ~default:0 (Hashtbl.find_opt per_stmt inst.stmt)));
  let issues = ref [] in
  List.iter
    (fun (info : Program.stmt_info) ->
      let name = info.def.name in
      let concrete = Option.value ~default:0 (Hashtbl.find_opt per_stmt name) in
      let symbolic =
        P.eval_int c.params (Program.cardinal info) |> Iolb_util.Rat.to_int
      in
      if symbolic <> concrete then
        push issues "%s: symbolic=%d concrete=%d" name symbolic concrete)
    (Program.statements c.prog);
  collect issues

(* ------------------------------------------------------------------ *)
(* cdag: the compute nodes, in id order, are the reference
   interpreter's instances (statement and vector) in program order; plus
   structural invariants (every edge runs to a larger id, the numbering
   [Cdag.reaches] relies on) and the compulsory cold-cache loads.      *)

let prop_cdag c =
  let cdag = Lazy.force c.cdag in
  let schedule = Lazy.force c.schedule in
  let issues = ref [] in
  let computes = ref [] in
  let upward = ref true in
  for id = Cdag.n_nodes cdag - 1 downto 0 do
    Array.iter (fun p -> if p >= id then upward := false) (Cdag.preds cdag id);
    match Cdag.kind cdag id with
    | Cdag.Compute (s, v) -> computes := (s, v) :: !computes
    | Cdag.Input _ -> ()
  done;
  if not !upward then push issues "an edge runs from a node to a smaller id";
  let reference =
    List.map
      (fun (i : Interp.instance) -> (i.stmt, i.vec))
      (Interp.instances ~params:c.params c.prog)
  in
  (match first_diff !computes reference with
  | None -> ()
  | Some k ->
      push issues
        "compute node #%d differs from the reference (%d computes, %d \
         instances)"
        k (Cdag.n_computes cdag) (List.length reference));
  if not (Game.is_topological cdag schedule) then
    push issues "program schedule is not topological";
  (match game_at c (Cdag.n_nodes cdag + 2) with
  | None -> push issues "pebble game infeasible at S > n_nodes"
  | Some big ->
      if big.Game.loads <> Cdag.n_inputs cdag then
        push issues "cold loads=%d but n_inputs=%d" big.Game.loads
          (Cdag.n_inputs cdag));
  collect issues

(* ------------------------------------------------------------------ *)
(* footprint: the trace's events are the reference interpreter's
   accesses, event for event - write flags, and cell ids numbered by
   first occurrence - so its footprint is the distinct cells touched.   *)

let prop_footprint c =
  let trace = Lazy.force c.trace in
  let ids = Hashtbl.create 64 in
  let reference = ref [] in
  List.iter
    (fun (a, idx, w) ->
      let id =
        match Hashtbl.find_opt ids (a, idx) with
        | Some id -> id
        | None ->
            let id = Hashtbl.length ids in
            Hashtbl.add ids (a, idx) id;
            id
      in
      reference := (id, w) :: !reference)
    (Interp.accesses ~params:c.params c.prog);
  let events =
    List.init (Trace.length trace) (fun i ->
        (Trace.cell_id trace i, Trace.is_write trace i))
  in
  if Trace.footprint trace <> Hashtbl.length ids then
    fail "trace footprint=%d but %d distinct cells" (Trace.footprint trace)
      (Hashtbl.length ids)
  else
    match first_diff events (List.rev !reference) with
    | None -> Pass
    | Some k ->
        fail
          "trace event #%d differs from the reference (%d events, %d \
           accesses)"
          k (Trace.length trace) (List.length !reference)

(* ------------------------------------------------------------------ *)
(* phi: derived projections are well-formed for every statement.        *)

let prop_phi c =
  let ok =
    List.for_all
      (fun (i : Program.stmt_info) ->
        List.for_all
          (fun (p : Iolb.Phi.t) ->
            p.dims <> [] && List.for_all (fun d -> List.mem d i.dims) p.dims)
          (Iolb.Phi.of_statement c.prog i))
      (Program.statements c.prog)
  in
  if ok then Pass else Fail "ill-formed projection (empty or foreign dims)"

(* ------------------------------------------------------------------ *)
(* bound-le-opt: every applicable derived bound must sit below the
   clairvoyant pebble-game loads of the program schedule, at every
   tested cache size.  This is the paper's soundness invariant.         *)

let prop_bound_le_opt c =
  match ctx_bounds c with
  | [] -> Skip "no derivable bound"
  | bounds ->
      let issues = ref [] in
      List.iter
        (fun s ->
          match game_at c s with
          | None -> () (* S below the max fan-in: no legal schedule here *)
          | Some res -> (
              match D.best ~params:c.params ~s bounds with
              | None -> ()
              | Some b ->
                  let v = D.eval b ~params:c.params ~s in
                  if v > float_of_int res.Game.loads +. 1e-6 then
                    push issues
                      "S=%d: bound %.3f (%s) exceeds measured OPT loads %d" s v
                      b.D.stmt res.Game.loads))
        (Lazy.force c.sizes);
      collect issues

(* ------------------------------------------------------------------ *)
(* monotone-s: the best applicable bound never increases with S.        *)

let prop_monotone c =
  match ctx_bounds c with
  | [] -> Skip "no derivable bound"
  | bounds ->
      let issues = ref [] in
      let prev = ref None in
      List.iter
        (fun s ->
          match D.best ~params:c.params ~s bounds with
          | None -> ()
          | Some b ->
              let v = D.eval b ~params:c.params ~s in
              (match !prev with
              | Some (s0, v0) when v > v0 +. 1e-6 ->
                  push issues "bound grows with S: %.3f at S=%d vs %.3f at S=%d"
                    v s v0 s0
              | _ -> ());
              prev := Some (s, v))
        (Lazy.force c.sizes);
      collect issues

(* ------------------------------------------------------------------ *)
(* sweep-lru: the single-pass reuse-distance sweep agrees field by field
   with the direct LRU simulator at every size, for both flush modes.   *)

let prop_sweep_lru c =
  let trace = Lazy.force c.trace in
  let issues = ref [] in
  List.iter
    (fun flush ->
      let sweep = Sweep.run ~budget:c.budget ~flush trace in
      List.iter
        (fun s ->
          let sw = Sweep.stats sweep ~size:s in
          let direct = Cache.lru ~budget:c.budget ~size:s ~flush trace in
          if sw <> direct then
            push issues
              "S=%d flush=%b: sweep (l=%d st=%d h=%d) vs lru (l=%d st=%d h=%d)"
              s flush sw.Cache.loads sw.Cache.stores sw.Cache.read_hits
              direct.Cache.loads direct.Cache.stores direct.Cache.read_hits)
        (Lazy.force c.sizes))
    [ true; false ];
  collect issues

(* ------------------------------------------------------------------ *)
(* opt-ref: Belady's OPT over one shared plan equals the naive reference
   {!Opt_ref} field by field at every size, for both flush modes; its
   loads lie between the cold and LRU loads and never increase with S. *)

let prop_opt_ref c =
  let trace = Lazy.force c.trace in
  let plan = Cache.opt_plan ~budget:c.budget trace in
  let cold = (Cache.cold trace).Cache.loads in
  let issues = ref [] in
  List.iter
    (fun flush ->
      List.iter
        (fun s ->
          let opt = Cache.opt_run ~budget:c.budget ~size:s ~flush plan in
          let reference = Opt_ref.run ~size:s ~flush trace in
          if opt <> reference then
            push issues
              "S=%d flush=%b: opt (l=%d st=%d h=%d) vs reference (l=%d st=%d \
               h=%d)"
              s flush opt.Cache.loads opt.Cache.stores opt.Cache.read_hits
              reference.Cache.loads reference.Cache.stores
              reference.Cache.read_hits)
        (Lazy.force c.sizes))
    [ true; false ];
  let prev = ref None in
  List.iter
    (fun s ->
      let opt = (Cache.opt_run ~budget:c.budget ~size:s plan).Cache.loads in
      let lru = (Cache.lru ~budget:c.budget ~size:s trace).Cache.loads in
      if opt < cold || opt > lru then
        push issues "S=%d: opt loads %d outside [cold %d, lru %d]" s opt cold
          lru;
      (match !prev with
      | Some (s0, l0) when opt > l0 ->
          push issues "opt loads grow with S: %d at S=%d vs %d at S=%d" opt s
            l0 s0
      | _ -> ());
      prev := Some (s, opt))
    (Lazy.force c.sizes);
  collect issues

(* ------------------------------------------------------------------ *)
(* jobs-det: the per-size empirical report rendered through a Pool
   fan-out is byte-identical at every worker count.                     *)

let render_report c ~jobs =
  let buf = Buffer.create 256 in
  List.iter
    (fun (b : D.t) -> Buffer.add_string buf (Format.asprintf "%a@." D.pp b))
    (ctx_bounds c);
  let trace = Lazy.force c.trace in
  let cdag = Lazy.force c.cdag in
  let schedule = Lazy.force c.schedule in
  let rows =
    Pool.map ~jobs
      (fun s ->
        let lru = Cache.lru ~size:s trace in
        let game =
          match Game.run cdag ~s ~schedule with
          | r -> string_of_int r.Game.loads
          | exception Engine_error.Error (Invalid_input _) -> "infeasible"
        in
        Printf.sprintf "S=%d lru=%d/%d/%d game=%s" s lru.Cache.loads
          lru.Cache.stores lru.Cache.read_hits game)
      (Lazy.force c.sizes)
  in
  List.iter
    (fun r ->
      Buffer.add_string buf r;
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let prop_jobs_det c =
  let seq = render_report c ~jobs:1 in
  let par = render_report c ~jobs:3 in
  if String.equal seq par then Pass
  else fail "report differs between --jobs 1 and --jobs 3"

(* ------------------------------------------------------------------ *)
(* sweep-stream: the sharded in-memory sweep ([run ~jobs]) and the
   program sweeps over both numbered walks ([run_program] on [Cplan.iter],
   [run_program_stream] on [Cplan.iter_interned]) share one engine, so
   each is checked against the independent per-size LRU simulator, at
   every jobs width, for both flush modes; the three are also compared
   pairwise on footprint, accesses and reuse histogram.  This is the
   determinism contract behind byte-identical --jobs output. *)

let prop_sweep_stream c =
  let trace = Lazy.force c.trace in
  let sizes = Lazy.force c.sizes in
  let issues = ref [] in
  List.iter
    (fun flush ->
      let lru =
        List.map
          (fun s -> (s, Cache.lru ~budget:c.budget ~size:s ~flush trace))
          sizes
      in
      List.iter
        (fun jobs ->
          let sweeps =
            List.map
              (fun (kind, sweep) ->
                (Printf.sprintf "%s jobs=%d flush=%b" kind jobs flush, sweep))
              [
                ("run", Sweep.run ~budget:c.budget ~flush ~jobs trace);
                ( "dense",
                  Sweep.run_program ~budget:c.budget ~flush ~jobs
                    ~params:c.params c.prog );
                ( "interned",
                  Sweep.run_program_stream ~budget:c.budget ~flush ~jobs
                    ~params:c.params c.prog );
              ]
          in
          List.iter
            (fun (what, sweep) ->
              List.iter
                (fun (s, direct) ->
                  if Sweep.stats sweep ~size:s <> direct then
                    push issues "%s: stats differ from lru at S=%d" what s)
                lru)
            sweeps;
          (* equal to the first, hence pairwise equal *)
          match sweeps with
          | [] -> ()
          | (wa, a) :: rest ->
              List.iter
                (fun (wb, b) ->
                  let what = wb ^ " vs " ^ wa in
                  if Sweep.footprint b <> Sweep.footprint a then
                    push issues "%s: footprint %d vs %d" what
                      (Sweep.footprint b) (Sweep.footprint a);
                  if Sweep.accesses b <> Sweep.accesses a then
                    push issues "%s: accesses %d vs %d" what
                      (Sweep.accesses b) (Sweep.accesses a);
                  if Sweep.distance_histogram b <> Sweep.distance_histogram a
                  then push issues "%s: distance histogram differs" what)
                rest)
        [ 1; 2; 4; 8 ])
    [ true; false ];
  collect issues

(* ------------------------------------------------------------------ *)
(* game-compiled: the compiled (CSR + bitset + reusable-runner) pebble
   engine must agree with the retained reference engine on every
   (schedule, S) point, including which points are infeasible.          *)

let prop_game_compiled c =
  let cdag = Lazy.force c.cdag in
  let issues = ref [] in
  if Game.program_schedule cdag <> Game_ref.program_schedule cdag then
    push issues "program_schedule disagrees with the reference";
  let schedules =
    [
      ("program", Lazy.force c.schedule);
      ("random1", Game.random_topological ~seed:1 cdag);
      ("random2", Game.random_topological ~seed:2 cdag);
    ]
  in
  List.iter
    (fun (what, schedule) ->
      if
        Game.is_topological cdag schedule
        <> Game_ref.is_topological cdag schedule
      then push issues "%s: is_topological disagrees" what;
      let plan = Game.plan cdag ~schedule in
      let runner = Game.runner plan in
      List.iter
        (fun s ->
          let compiled =
            match Game.run_runner ~budget:c.budget runner ~s with
            | res -> Some (res.Game.loads, res.Game.peak_red)
            | exception Engine_error.Error (Invalid_input _) -> None
          in
          let reference =
            match Game_ref.run ~budget:c.budget cdag ~s ~schedule with
            | res -> Some (res.Game_ref.loads, res.Game_ref.peak_red)
            | exception Game_ref.Infeasible _ -> None
          in
          if compiled <> reference then begin
            let show = function
              | None -> "infeasible"
              | Some (l, p) -> Printf.sprintf "loads=%d peak=%d" l p
            in
            push issues "%s S=%d: compiled %s vs reference %s" what s
              (show compiled) (show reference)
          end)
        (Lazy.force c.sizes))
    schedules;
  collect issues

(* ------------------------------------------------------------------ *)
(* sampled-ci: rate 1 falls back to the exact engine; statistical rates
   must produce confidence intervals that contain their own centre and
   whose double-widened form covers the exact sweep at every size
   (degenerate intervals are the whole [0, total] range and cover
   trivially).  Doubling the width turns the z=4 statistical statement
   into a hard oracle: a miss means the estimator is broken, not
   unlucky.                                                             *)

let prop_sampled_ci c =
  let trace = Lazy.force c.trace in
  let sizes = Lazy.force c.sizes in
  let issues = ref [] in
  let exact = Sweep.run ~budget:c.budget trace in
  let s1 =
    Sweep.run_sampled ~budget:c.budget ~rate:1.0 ~seed:11 ~params:c.params
      c.prog
  in
  if not (Sweep.sampled_exact s1) then push issues "rate 1 is not exact";
  List.iter
    (fun s ->
      if Sweep.stats (Sweep.sampled_union s1) ~size:s <> Sweep.stats exact ~size:s
      then push issues "rate 1: stats differ at S=%d" s)
    sizes;
  List.iter
    (fun rate ->
      List.iter
        (fun seed ->
          let sp =
            Sweep.run_sampled ~budget:c.budget ~rate ~seed ~params:c.params
              c.prog
          in
          List.iter
            (fun s ->
              let ex = Sweep.stats exact ~size:s in
              let l, h, st = Sweep.sampled_stats sp ~size:s in
              let check what e (a : Sweep.estimate) =
                let w = a.hi -. a.lo in
                let e = float_of_int e in
                if not (a.lo <= a.est && a.est <= a.hi) then
                  push issues
                    "rate=%.2f seed=%d S=%d %s estimate %g outside [%g, %g]"
                    rate seed s what a.est a.lo a.hi;
                if e < a.lo -. w || e > a.hi +. w then
                  push issues "rate=%.2f seed=%d S=%d %s=%g outside [%g, %g]"
                    rate seed s what e a.lo a.hi
              in
              check "loads" ex.Cache.loads l;
              check "read_hits" ex.Cache.read_hits h;
              check "stores" ex.Cache.stores st)
            sizes)
        [ 1; 2 ])
    [ 0.5; 0.25 ];
  collect issues

(* ------------------------------------------------------------------ *)
(* hourglass-path: every member of the hourglass-bearing family must be
   detected, empirically verified, and must reach the tightened
   derivation (a bound with the Hourglass technique).  This is the
   coverage guarantee that the certifier actually exercises the paper's
   path, not just the classical one.                                    *)

let prop_hourglass_path c =
  match c.spec with
  | Spec.Nest _ -> Skip "nest family"
  | Spec.Hourglass _ -> (
      let hgs, o = Lazy.force c.derivation in
      match (hgs, degraded_by_budget c o) with
      | _, Some note -> Skip ("degraded under the budget: " ^ note)
      | [], None ->
          Fail "no verified hourglass detected on an hourglass-family spec"
      | _ :: _, None ->
          if
            List.exists
              (fun (b : D.t) ->
                match b.D.technique with
                | D.Hourglass | D.Hourglass_small_s -> true
                | D.Classical | D.Trivial -> false)
              o.D.bounds
          then Pass
          else Fail "hourglass detected but the tightened derivation produced no bound")

(* ------------------------------------------------------------------ *)
(* region-cover: the theta-regions of the sharpened Brascamp-Lieb LP
   must tile [1/2, 1] contiguously, and on each region the closed-form
   optimum must match a fresh pinned-theta simplex solve exactly
   (rational arithmetic on both sides).                                 *)

let prop_region_cover c =
  match ctx_hourglasses c with
  | [] -> Skip "no verified hourglass (parametric LP not exercised)"
  | hs ->
      let issues = ref [] in
      List.iter
        (fun h ->
          let dims, projs = D.sharpened_projections c.prog h in
          match Iolb.Bl.exponent_regions ~dims projs with
          | None ->
              push issues "theta-regime solves infeasible on a verified hourglass"
          | Some [] -> push issues "empty region decomposition"
          | Some (r0 :: _ as rs) ->
              if not (Rat.equal r0.Iolb.Bl.theta_lo Rat.half) then
                push issues "regions start at %s, not 1/2"
                  (Rat.to_string r0.Iolb.Bl.theta_lo);
              let rec contig = function
                | a :: (b :: _ as tl) ->
                    if
                      not (Rat.equal a.Iolb.Bl.theta_hi b.Iolb.Bl.theta_lo)
                    then
                      push issues "gap between regions at %s"
                        (Rat.to_string a.Iolb.Bl.theta_hi);
                    contig tl
                | [ last ] ->
                    if not (Rat.equal last.Iolb.Bl.theta_hi Rat.one) then
                      push issues "regions end at %s, not 1"
                        (Rat.to_string last.Iolb.Bl.theta_hi)
                | [] -> ()
              in
              contig rs;
              List.iter
                (fun (r : Iolb.Bl.exponent_region) ->
                  let mid =
                    Rat.mul Rat.half (Rat.add r.theta_lo r.theta_hi)
                  in
                  List.iter
                    (fun theta ->
                      let predicted =
                        Rat.add r.region_sol.Iolb.Bl.k_exponent
                          (Rat.mul theta r.region_sol.Iolb.Bl.w_exponent)
                      in
                      match Iolb.Bl.exponent_at ~dims projs ~theta with
                      | None ->
                          push issues
                            "plain solve infeasible at theta = %s inside a \
                             region"
                            (Rat.to_string theta)
                      | Some v ->
                          if not (Rat.equal v predicted) then
                            push issues
                              "theta = %s: region predicts %s, plain solve \
                               gives %s"
                              (Rat.to_string theta) (Rat.to_string predicted)
                              (Rat.to_string v))
                    [ r.theta_lo; mid; r.theta_hi ])
                rs)
        hs;
      collect issues

(* ------------------------------------------------------------------ *)
(* parse-roundtrip: printing the generated program as DSL source and
   re-parsing it must reproduce the program exactly - structural
   equality on the IR and the same verify bindings.  This pins the
   printer/parser/elaborator composition as the identity on every
   program the generator can produce, so textual kernel sources are a
   faithful exchange format, not an approximation.                      *)

module Front = Iolb_lang.Front
module Front_diag = Iolb_lang.Diag

let prop_parse_roundtrip c =
  let printed = Front.print ~verify:c.params c.prog in
  match Front.parse_string ~file:"<spec>" printed with
  | Error d ->
      fail "printed source does not re-parse: %s" (Front_diag.to_string d)
  | Ok src ->
      let issues = ref [] in
      if not (Program.equal src.Front.program c.prog) then
        push issues "re-parsed program is not structurally equal to the original";
      let sort l = List.sort compare l in
      if sort src.Front.verify <> sort c.params then
        push issues "verify bindings differ: printed %s, re-parsed %s"
          (String.concat ", "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) c.params))
          (String.concat ", "
             (List.map
                (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                src.Front.verify));
      collect issues

(* ------------------------------------------------------------------ *)
(* parse-derive: the derivation ladder (exactly as [ctx] runs it) on the
   re-parsed copy of the program must verify as many hourglasses and
   produce the same bounds, rendered through [Derive.pp], and the same
   degradation note as the original.  Catches anything the
   round-trip's structural equality is too weak to see - e.g. a printer
   normalisation that [Program.equal] accepts but that shifts a
   projection or a cardinality downstream.                              *)

let prop_parse_derive c =
  let printed = Front.print ~verify:c.params c.prog in
  match Front.parse_string ~file:"<spec>" printed with
  | Error d ->
      fail "printed source does not re-parse: %s" (Front_diag.to_string d)
  | Ok src ->
      let hgs, o = Lazy.force c.derivation in
      let hgs', o' =
        ladder ~budget:c.budget ~params:src.Front.verify src.Front.program
      in
      match (degraded_by_budget c o, degraded_by_budget c o') with
      | Some note, _ | None, Some note ->
          Skip ("degraded under the budget: " ^ note)
      | None, None ->
          let render bs =
            List.map (fun (b : D.t) -> Format.asprintf "%a" D.pp b) bs
          in
          let orig = render o.D.bounds and reparsed = render o'.D.bounds in
          let note = Option.value ~default:"none" in
          let issues = ref [] in
          if List.length hgs <> List.length hgs' then
            push issues "hourglass count differs: %d original, %d re-parsed"
              (List.length hgs) (List.length hgs');
          if orig <> reparsed then
            push issues "derived bounds differ: original [%s] vs re-parsed [%s]"
              (String.concat " | " orig)
              (String.concat " | " reparsed);
          if o.D.degradation <> o'.D.degradation then
            push issues "degradation differs: original %s, re-parsed %s"
              (note o.D.degradation) (note o'.D.degradation);
          collect issues

(* ------------------------------------------------------------------ *)
(* Registry.                                                           *)

type t = { name : string; doc : string }

let impl = function
  | "card" -> prop_card
  | "cdag" -> prop_cdag
  | "footprint" -> prop_footprint
  | "phi" -> prop_phi
  | "bound-le-opt" -> prop_bound_le_opt
  | "monotone-s" -> prop_monotone
  | "sweep-lru" -> prop_sweep_lru
  | "sweep-stream" -> prop_sweep_stream
  | "opt-ref" -> prop_opt_ref
  | "game-compiled" -> prop_game_compiled
  | "sampled-ci" -> prop_sampled_ci
  | "jobs-det" -> prop_jobs_det
  | "hourglass-path" -> prop_hourglass_path
  | "region-cover" -> prop_region_cover
  | "parse-roundtrip" -> prop_parse_roundtrip
  | "parse-derive" -> prop_parse_derive
  | "demo-broken" ->
      fun _ ->
        Fail
          "deliberately broken oracle (fault injection): every spec is a \
           counterexample"
  | name -> fun _ -> Skip ("unknown property " ^ name)

let run o c =
  match impl o.name c with
  | outcome -> outcome
  | exception (Budget.Exhausted _ as e) -> raise e
  | exception e -> Fail ("exception: " ^ Printexc.to_string e)

let all =
  [
    { name = "card"; doc = "symbolic cardinality = reference instance count" };
    {
      name = "cdag";
      doc = "CDAG compute nodes = reference instances; structure; cold loads";
    };
    {
      name = "footprint";
      doc = "trace events = reference accesses, cell ids too";
    };
    { name = "phi"; doc = "derived projections are well-formed" };
    {
      name = "bound-le-opt";
      doc = "derived bounds sit below clairvoyant pebble-game loads";
    };
    { name = "monotone-s"; doc = "best bound never increases with S" };
    { name = "sweep-lru"; doc = "reuse-distance sweep = per-size LRU" };
    {
      name = "sweep-stream";
      doc = "sharded/dense/interned sweeps = per-size LRU at every jobs width";
    };
    {
      name = "opt-ref";
      doc = "OPT simulator = naive Belady reference; cold <= opt <= lru";
    };
    {
      name = "game-compiled";
      doc = "compiled pebble engine = reference engine on every (schedule, S)";
    };
    {
      name = "sampled-ci";
      doc = "sampled sweep intervals cover the exact sweep; rate 1 is exact";
    };
    { name = "jobs-det"; doc = "reports byte-identical across worker counts" };
    {
      name = "hourglass-path";
      doc = "hourglass family reaches the tightened derivation";
    };
    {
      name = "region-cover";
      doc = "parametric-simplex regions tile [1/2,1] and match pinned solves";
    };
    {
      name = "parse-roundtrip";
      doc = "print-as-DSL then re-parse is the identity on the IR";
    };
    {
      name = "parse-derive";
      doc = "re-parsed source derives byte-identical bounds";
    };
  ]

let demo_broken =
  {
    name = "demo-broken";
    doc = "deliberately failing oracle for fault-injection tests";
  }

let find names =
  let known = all @ [ demo_broken ] in
  let resolve name =
    match List.find_opt (fun o -> o.name = name) known with
    | Some o -> Ok [ o ]
    | None -> (
        match name with
        | "all" | "default" -> Ok all
        | _ ->
            Error
              (Printf.sprintf "unknown property %S (known: %s)" name
                 (String.concat ", " (List.map (fun o -> o.name) known))))
  in
  List.fold_left
    (fun acc name ->
      match (acc, resolve (String.trim name)) with
      | Error _, _ -> acc
      | _, (Error _ as e) -> e
      | Ok sofar, Ok os ->
          Ok (sofar @ List.filter (fun o -> not (List.mem o sofar)) os))
    (Ok [])
    (String.split_on_char ',' names)
