(* Command-line interface to the lower-bound engine.

   iolb list                          enumerate the built-in kernels
   iolb analyze mgs                   full derivation report for one kernel
   iolb bounds --all                  formulas for every kernel
   iolb bounds --file prog.iolb       same, for a DSL source file
   iolb print mgs                     emit a built-in kernel as DSL source
   iolb check --parse prog.iolb       parse/elaborate a DSL source only
   iolb eval mgs -m 128 -n 64 -s 256  numeric bounds at a concrete point
   iolb simulate mgs -m 12 -n 8 -s 16 pebble-game I/O vs the bounds
   iolb simulate mgs --sizes 8,16,32  cache sweep: every S from one pass
   iolb tile mgs -m 48 -n 16 -s 400   tiled-ordering cache simulation
   iolb check --count 200 --seed 42   certify the pipeline on random programs
   iolb serve --socket /tmp/iolb.sock the crash-tolerant bound service
   iolb client --socket ... analyze mgs  query a running service

   Exit codes: 0 success, 1 counterexample found (check) or unsound bound
   (simulate), 2 invalid input, 3 budget exhausted, 4 unsupported,
   5 internal error, 6 server overloaded (client only; 124/125 are
   cmdliner's own). *)

open Cmdliner

module Report = Iolb.Report
module D = Iolb.Derive
module Budget = Iolb_util.Budget
module Engine_error = Iolb_util.Engine_error
module Cdag = Iolb_cdag.Cdag
module Game = Iolb_pebble.Game
module Cache = Iolb_pebble.Cache
module Sweep = Iolb_pebble.Sweep
module Trace = Iolb_pebble.Trace
module K = Iolb_kernels
module Front = Iolb_front.Front
module Driver = Iolb_front.Driver

let ( let* ) = Result.bind
let invalid = Engine_error.invalid

let kernel_arg =
  let doc =
    "Kernel name: a paper kernel (mgs, qr_hh_a2v, qr_hh_v2q, gebd2, gehd2) \
     or a baseline (see $(b,iolb list))."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc)

let m_arg = Arg.(value & opt int 64 & info [ "m" ] ~docv:"M" ~doc:"Rows M.")
let n_arg = Arg.(value & opt int 32 & info [ "n" ] ~docv:"N" ~doc:"Columns N.")

let s_arg =
  Arg.(value & opt int 256 & info [ "s" ] ~docv:"S" ~doc:"Fast memory size S.")

(* Resource-budget flags, shared by every analysing command. *)
let budget_args =
  let timeout_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget in milliseconds.  A passed deadline always \
             fails the command with exit code 3.")
  in
  let max_steps_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "Cap on total engine work steps.  Analyses degrade to weaker \
             bounds when a derivation rung exceeds it.  $(b,bounds) applies \
             the cap to each kernel (or $(b,--file) source) on its own.")
  in
  let max_nodes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:
            "Cap on the size of any built structure (CDAG nodes, the \
             statement instances of a trace or exact sweep).  $(b,bounds) \
             applies the cap to each kernel (or $(b,--file) source) on its \
             own.  $(b,simulate) applies it to the game or exact sweep it \
             runs and to a baseline's or source's derivation, not to a \
             sampled sweep or a paper kernel's derivation.")
  in
  let tuple t s n = (t, s, n) in
  Term.(const tuple $ timeout_arg $ max_steps_arg $ max_nodes_arg)

let check_jobs = function
  | Some j when j < 1 -> invalid "--jobs must be >= 1, got %d" j
  | _ -> Ok ()

let make_budget (timeout_ms, max_steps, max_nodes) =
  Engine_error.guard (fun () ->
      Budget.make ?timeout_ms ?max_steps ?max_nodes ())

(* Error boundary for command bodies: print one clean line on stderr and
   map the typed error to its exit code. *)
let run_checked f =
  match f () with
  | Ok () -> 0
  | Error e ->
      Format.eprintf "iolb: error: %a@." Engine_error.pp e;
      Engine_error.exit_code e

let engine_exits =
  Cmd.Exit.info 2 ~doc:"on invalid input (unknown kernel, bad sizes)."
  :: Cmd.Exit.info 3
       ~doc:"on budget exhaustion ($(b,--timeout-ms)/$(b,--max-steps)/$(b,--max-nodes))."
  :: Cmd.Exit.info 4 ~doc:"on well-formed but unsupported requests."
  :: Cmd.Exit.info 5 ~doc:"on internal errors."
  :: Cmd.Exit.defaults

let list_cmd =
  let run () =
    Printf.printf "paper kernels:\n";
    List.iter
      (fun (e : Report.entry) ->
        Printf.printf "  %-12s %s\n"
          (Iolb.Paper_formulas.kernel_name e.kernel)
          e.display)
      Report.registry;
    Printf.printf "baselines (classical path / negative controls):\n";
    List.iter
      (fun (name, _, _) -> Printf.printf "  %s\n" name)
      Report.baselines;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in kernels")
    Term.(const run $ const ())

let analyze_cmd =
  (* Rendering lives in [Iolb_front.Driver]: the same bytes answer
     [analyze NAME], [bounds --file], and the differential tests. *)
  let run name budget_spec =
    run_checked @@ fun () ->
    let* budget = make_budget budget_spec in
    let* report = Driver.render_kernel ~budget ~logs:true name in
    Ok (print_string report)
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Derivation report for one kernel"
       ~exits:engine_exits)
    Term.(const run $ kernel_arg $ budget_args)

let jobs_arg =
  let doc =
    "Number of worker domains for the per-kernel analyses.  Defaults to \
     $(b,IOLB_JOBS) or the recommended domain count; 1 disables parallelism. \
     Output is identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let file_arg =
  let doc =
    "Analyse the affine program in $(i,FILE) (DSL source, see the README \
     grammar) instead of a built-in kernel.  Repeatable.  A source that is \
     structurally identical to a built-in kernel gets that kernel's full \
     paper report; anything else gets the graceful-degradation ladder."
  in
  Arg.(value & opt_all string [] & info [ "file" ] ~docv:"FILE" ~doc)

let bounds_cmd =
  let run jobs files budget_spec =
    run_checked @@ fun () ->
    let* () = check_jobs jobs in
    (* Validate the budget flags once; [Driver.render_bounds] then mints
       one budget per report.  Reports print sequentially in registry (or
       command-line file) order, up to the first failed entry. *)
    let* _validated = make_budget budget_spec in
    let timeout_ms, max_steps, max_nodes = budget_spec in
    let budget () = Budget.make ?timeout_ms ?max_steps ?max_nodes () in
    let results = Driver.render_bounds ?jobs ~budget files in
    List.fold_left
      (fun acc result ->
        let* () = acc in
        let* report = result in
        Ok (print_string report))
      (Ok ()) results
  in
  Cmd.v
    (Cmd.info "bounds"
       ~doc:
         "Derived bound formulas for every kernel (or for $(b,--file) \
          sources)"
       ~exits:engine_exits)
    Term.(const run $ jobs_arg $ file_arg $ budget_args)

let eval_cmd =
  let run name m n s budget_spec =
    run_checked @@ fun () ->
    let* budget = make_budget budget_spec in
    let* entry = Driver.eval_entry name in
    let* _params = Driver.point ~s (Driver.Paper entry) ~m ~n in
    let* a = Engine_error.guard (fun () -> Report.analyze ~budget entry) in
    Printf.printf "%s at m=%d n=%d s=%d:\n" entry.display m n s;
    (match a.degradation with
    | Some why -> Printf.printf "  degraded: %s\n" why
    | None -> ());
    List.iter
      (fun tech ->
        let label =
          match tech with
          | `Classical -> "classical"
          | `Hourglass -> "hourglass"
        in
        match Report.eval_best a ~technique:tech ~m ~n ~s with
        | Some v -> Printf.printf "  %-10s Q >= %.1f\n" label v
        | None -> Printf.printf "  %-10s (no bound)\n" label)
      [ `Classical; `Hourglass ];
    Printf.printf "  %-10s %s\n" "paper"
      (Printf.sprintf "Q >= %.1f (theorem formula)"
         (Iolb.Paper_formulas.eval_at
            (Iolb.Paper_formulas.theorem_main entry.kernel)
            ~m ~n ~s));
    Ok ()
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate the bounds at a concrete point"
       ~exits:engine_exits)
    Term.(const run $ kernel_arg $ m_arg $ n_arg $ s_arg $ budget_args)

let simulate_cmd =
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Random schedule seed.")
  in
  let sizes_arg =
    let doc =
      "Cache sizes to sweep: a comma list $(b,a,b,c) or a range \
       $(b,lo:hi:step).  Every size is answered from a single \
       reuse-distance pass over the program trace (LRU) plus one shared \
       OPT plan, instead of playing the single-$(b,-s) pebble game."
    in
    Arg.(value & opt (some string) None & info [ "sizes" ] ~docv:"SIZES" ~doc)
  in
  let sample_rate_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "sample-rate" ] ~docv:"RATE"
          ~doc:
            "Spatially-sampled sweep: keep each cell iff its seeded hash \
             falls below $(docv), a value in (0, 1] and at least 2^-62 (the \
             hash resolution), and report confidence intervals instead of \
             exact counts.  Makes billion-access \
             traces sweepable.  Requires $(b,--sizes).")
  in
  let sample_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "sample-seed" ] ~docv:"SEED"
          ~doc:
            "Hash seed for $(b,--sample-rate); the kept cell set is a pure \
             function of (seed, cell).")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Shard the sweep across $(docv) domains, each producing its \
             slice of the trace straight from the program: the trace is \
             never materialized, so memory follows the footprint, not the \
             trace length (the OPT column, which needs the whole trace, is \
             dropped).  The merge is deterministic: output is identical at \
             every width.  Requires $(b,--sizes).")
  in
  let parse_spec spec =
    match Sweep.parse_sizes spec with
    | Ok sizes -> Ok sizes
    | Error msg -> invalid "--sizes: %s" msg
  in
  (* One sweep answers every size: exact LRU stats from the reuse-distance
     pass, exact OPT loads from per-size forward runs over a shared plan.
     The helpers take the program, its concrete sizes, a lower-bound
     evaluator and the audit of exact loads against it, so built-in
     kernels and parsed --file sources share them. *)
  let run_sweep ~program ~params ~budget ~lb ~audit spec =
    let* sizes = parse_spec spec in
    let* trace =
      Engine_error.guard (fun () -> Trace.of_program ~budget ~params program)
    in
    let* sweep = Engine_error.guard (fun () -> Sweep.run ~budget trace) in
    let* plan = Engine_error.guard (fun () -> Cache.opt_plan ~budget trace) in
    Printf.printf
      "cache sweep over %d events, footprint %d cells (program order):\n"
      (Trace.length trace) (Trace.footprint trace);
    Printf.printf "  %8s | %9s %9s %9s | %9s | %10s\n" "S" "lru loads" "hits"
      "stores" "opt loads" "lower bnd";
    Engine_error.guard (fun () ->
        List.iter
          (fun s ->
            let lru = Sweep.stats sweep ~size:s in
            let opt = Cache.opt_run ~budget ~size:s plan in
            let bound = lb ~s in
            Printf.printf "  %8d | %9d %9d %9d | %9d | %10.1f\n" s
              lru.Cache.loads lru.Cache.read_hits lru.Cache.stores
              opt.Cache.loads bound;
            audit "LRU" ~s lru.Cache.loads ("lower bound", bound);
            audit "OPT" ~s opt.Cache.loads ("lower bound", bound))
          sizes)
  in
  (* Streaming / sharded variant: the trace is never materialized, so the
     shared OPT plan (which needs the whole trace) is unavailable and its
     column is dropped.  The LRU columns are exact and byte-identical at
     every jobs width. *)
  let run_sweep_streamed ~program ~params ~budget ~jobs ~lb ~audit spec =
    let* sizes = parse_spec spec in
    let* sweep =
      Engine_error.guard (fun () ->
          Sweep.run_program ~budget ~jobs ~params program)
    in
    Printf.printf
      "streamed cache sweep over %d events, footprint %d cells (no OPT \
       column: the trace is never materialized):\n"
      (Sweep.accesses sweep) (Sweep.footprint sweep);
    Engine_error.guard (fun () ->
        Printf.printf "  %8s | %9s %9s %9s | %10s\n" "S" "lru loads" "hits"
          "stores" "lower bnd";
        List.iter
          (fun s ->
            let lru = Sweep.stats sweep ~size:s in
            let bound = lb ~s in
            Printf.printf "  %8d | %9d %9d %9d | %10.1f\n" s lru.Cache.loads
              lru.Cache.read_hits lru.Cache.stores bound;
            audit "LRU" ~s lru.Cache.loads ("lower bound", bound))
          sizes)
  in
  (* Sampled variant: below rate 1 every column is an estimate with an
     interval, so none is audited.  At rate 1 the sweep is exact, and its
     LRU loads are audited as an unsampled sweep's are. *)
  let run_sweep_sampled ~program ~params ~budget ~rate ~seed ~lb ~audit spec
      =
    let* sizes = parse_spec spec in
    let* sampled =
      Engine_error.guard (fun () ->
          Sweep.run_sampled ~budget ~rate ~seed ~params program)
    in
    Printf.printf
      "sampled cache sweep: kept %d of %d accesses (rate %g, seed %d), \
       sampled footprint %d cells%s:\n"
      (Sweep.sampled_kept_accesses sampled)
      (Sweep.sampled_total_accesses sampled)
      rate seed
      (Sweep.footprint (Sweep.sampled_union sampled))
      (if Sweep.sampled_degenerate sampled then
         "; sample too thin for error bars"
       else "");
    Engine_error.guard (fun () ->
        Printf.printf "  %8s | %12s [%12s,%12s] | %9s %9s | %10s\n" "S"
          "lru loads" "CI lo" "CI hi" "hits" "stores" "lower bnd";
        List.iter
          (fun s ->
            let loads, hits, stores =
              Sweep.sampled_stats sampled ~size:s
            in
            let bound = lb ~s in
            Printf.printf
              "  %8d | %12.4g [%12.4g,%12.4g] | %9.4g %9.4g | %10.1f\n" s
              loads.Sweep.est loads.Sweep.lo loads.Sweep.hi hits.Sweep.est
              stores.Sweep.est bound;
            if Sweep.sampled_exact sampled then
              audit "LRU" ~s
                (Sweep.stats (Sweep.sampled_union sampled) ~size:s).Cache.loads
                ("lower bound", bound))
          sizes)
  in
  let parse_param spec =
    match String.index_opt spec '=' with
    | Some i -> (
        let name = String.sub spec 0 i in
        let v = String.sub spec (i + 1) (String.length spec - i - 1) in
        match int_of_string_opt v with
        | Some v when name <> "" -> Ok (name, v)
        | _ -> invalid "--param expects NAME=INT, got %S" spec)
    | None -> invalid "--param expects NAME=INT, got %S" spec
  in
  let simulate ~audit name file param_overrides m n s seed sizes sample_rate
      sample_seed jobs budget_spec =
    let* () =
      match (Option.map Sweep.check_rate sample_rate, jobs) with
      | Some (Error rule), _ -> invalid "--sample-rate %s" rule
      | _, Some j when j < 1 -> invalid "--jobs must be at least 1"
      | (Some _, _ | _, Some _) when sizes = None ->
          invalid
            "--sample-rate/--jobs apply to the cache sweep: pass --sizes"
      | _ -> Ok ()
    in
    let* budget = make_budget budget_spec in
    (* Resolve the subject - a paper kernel evaluated at -m/-n, or a
       program (a baseline or a parsed --file source) at its verify sizes,
       overridable per parameter with --param - then its point, which must
       lie in the program's domain, and its labelled lower bounds at S. *)
    let* subject =
      match (name, file) with
      | Some _, Some _ ->
          invalid "KERNEL and --file are exclusive: simulate one subject"
      | None, None -> invalid "need a KERNEL name or --file PROG.iolb"
      | Some name, None -> Driver.lookup name
      | None, Some path ->
          let* src = Front.parse_file path in
          Ok (Driver.Program src)
    in
    let* overrides =
      List.fold_left
        (fun acc spec ->
          let* acc = acc in
          let* o = parse_param spec in
          Ok (o :: acc))
        (Ok []) param_overrides
    in
    let* params =
      Driver.point
        ?s:(if sizes = None then Some s else None)
        ~overrides subject ~m ~n
    in
    let program = (Driver.source subject).Front.program in
    (* A paper kernel verifies at its own small point, so the node cap
       bounds only what is played; a program verifies at the point
       played, where the cap must stop its derivation's CDAG too. *)
    let* degradation, pebble_lines =
      match subject with
      | Driver.Paper entry ->
          let* a =
            Engine_error.guard (fun () ->
                Report.analyze ~budget:(Budget.without_node_cap budget) entry)
          in
          let pebble_lines ~s =
            List.filter_map
              (fun tech ->
                Report.eval_best a ~technique:tech ~m ~n ~s
                |> Option.map (fun v ->
                       ( (match tech with
                         | `Classical -> "classical"
                         | `Hourglass -> "hourglass"),
                         v )))
              [ `Classical; `Hourglass ]
          in
          Ok (a.Report.degradation, pebble_lines)
      | Driver.Program _ ->
          let* (o : D.outcome) =
            D.analyze_ladder ~budget ~verify_params:params program
          in
          let pebble_lines ~s =
            match D.best ~params ~s o.D.bounds with
            | Some b -> [ ("derived", D.eval b ~params ~s) ]
            | None -> []
          in
          Ok (o.D.degradation, pebble_lines)
    in
    let show_degradation () =
      match degradation with
      | Some why -> Printf.printf "degraded: %s\n" why
      | None -> ()
    in
    let lb ~s =
      List.fold_left
        (fun acc (_, v) -> Float.max acc v)
        0. (pebble_lines ~s)
    in
    match sizes with
    | Some spec -> (
        show_degradation ();
        match (sample_rate, jobs) with
        | Some rate, _ ->
            run_sweep_sampled ~program ~params ~budget ~rate
              ~seed:sample_seed ~lb ~audit spec
        | None, Some jobs ->
            run_sweep_streamed ~program ~params ~budget ~jobs ~lb ~audit spec
        | None, None -> run_sweep ~program ~params ~budget ~lb ~audit spec)
    | None ->
        let* cdag =
          Engine_error.guard (fun () -> Cdag.of_program ~budget ~params program)
        in
        (* Both games run before anything is printed, so an S below some
           node's fan-in leaves stdout empty. *)
        let* prog_run, random =
          Engine_error.guard (fun () ->
              let run schedule =
                Game.run_plan ~budget (Game.plan cdag ~schedule) ~s
              in
              let prog_run = run (Game.program_schedule cdag) in
              (prog_run, run (Game.random_topological ~seed cdag)))
        in
        Format.printf "%a@." Cdag.pp_stats cdag;
        show_degradation ();
        Printf.printf "pebble game at S=%d:\n" s;
        Printf.printf "  program order : %d loads (peak red %d)\n"
          prog_run.Game.loads prog_run.Game.peak_red;
        Printf.printf "  random order  : %d loads (peak red %d)\n"
          random.Game.loads random.Game.peak_red;
        List.iter
          (fun (label, v) ->
            Printf.printf "  lower bound (%s): %.1f\n" label v;
            let bound = (Printf.sprintf "lower bound (%s)" label, v) in
            audit "program order" ~s prog_run.Game.loads bound;
            audit "random order" ~s random.Game.loads bound)
          (pebble_lines ~s);
        Ok ()
  in
  (* Every load count [simulate] prints but the sampled estimates below
     rate 1 is exact, so one below a lower bound printed beside it refutes
     that bound.  The first such pair is reported after stdout, with exit
     1. *)
  let run name file param_overrides m n s seed sizes sample_rate sample_seed
      jobs budget_spec =
    let unsound = ref None in
    let audit what ~s loads (label, bound) =
      if !unsound = None && float_of_int loads < bound then
        unsound :=
          Some
            (Printf.sprintf "%s at S=%d: %d loads, below the %s %.1f" what s
               loads label bound)
    in
    let rc =
      run_checked (fun () ->
          simulate ~audit name file param_overrides m n s seed sizes
            sample_rate sample_seed jobs budget_spec)
    in
    match !unsound with
    | Some msg when rc = 0 ->
        flush stdout;
        Printf.eprintf "iolb: unsound bound: %s\n" msg;
        1
    | _ -> rc
  in
  let sim_kernel_arg =
    let doc =
      "Kernel name: a paper kernel (mgs, qr_hh_a2v, qr_hh_v2q, gebd2, gehd2) \
       or a baseline, simulated like its $(b,--file) source (omit with \
       $(b,--file))."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc)
  in
  let sim_file_arg =
    let doc =
      "Simulate the affine program in $(i,FILE) (DSL source) at its \
       $(b,verify) sizes; $(b,-m)/$(b,-n) are ignored in this mode."
    in
    Arg.(value & opt (some string) None & info [ "file" ] ~docv:"FILE" ~doc)
  in
  let sim_param_arg =
    let doc =
      "With $(b,--file) or a baseline: override one verify binding, e.g. \
       $(b,--param N=16).  Repeatable."
    in
    Arg.(value & opt_all string [] & info [ "param" ] ~docv:"NAME=V" ~doc)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Play the red-white pebble game (or, with $(b,--sizes), sweep the \
          cache simulators over many sizes at once) and compare with the \
          bounds"
       ~exits:
         (Cmd.Exit.info 1
            ~doc:
              "when an exact load count (a pebble game, an LRU or OPT \
               column of an unsampled sweep, or the LRU column of a sweep \
               at $(b,--sample-rate) 1) is below a lower bound printed \
               beside it: an unsound bound."
         :: engine_exits))
    Term.(
      const run $ sim_kernel_arg $ sim_file_arg $ sim_param_arg $ m_arg
      $ n_arg $ s_arg $ seed_arg $ sizes_arg $ sample_rate_arg
      $ sample_seed_arg $ jobs_arg $ budget_args)

let tile_cmd =
  let b_arg =
    let doc = "Block size, a divisor of $(b,-n) (0 = the paper's choice)." in
    Arg.(value & opt int 0 & info [ "b" ] ~doc)
  in
  let run name m n s b budget_spec =
    run_checked @@ fun () ->
    let* budget = make_budget budget_spec in
    (* KERNEL resolves like every other command's; the tiled orderings
       run the registry kernel's point *)
    let* subject = Driver.lookup name in
    let* label, tiled_spec, predicted =
      match subject with
      | Driver.Paper { kernel = Iolb.Paper_formulas.Mgs; _ } ->
          let predicted b =
            Printf.sprintf " predicted=%.0f"
              ((0.5 *. float_of_int (m * n * n) /. float_of_int b)
              +. float_of_int (m * n))
          in
          Ok ("MGS", K.Mgs.tiled_spec, predicted)
      | Driver.Paper { kernel = Iolb.Paper_formulas.A2v; _ } ->
          Ok ("A2V", K.Householder.tiled_spec, fun _ -> "")
      | Driver.Paper _ | Driver.Program _ ->
          Error
            (Engine_error.Unsupported
               (Printf.sprintf "no tiled ordering for %S (mgs, qr_hh_a2v)"
                  name))
    in
    let* _params = Driver.point ~s subject ~m ~n in
    (* Block size: an explicit -b must divide n (no silent fallback); 0
       takes the paper's choice, which always divides. *)
    let* b =
      if b < 0 then invalid "block size b=%d is negative (0 = paper choice)" b
      else if b = 0 then Ok (Iolb.Upper_bounds.paper_block ~m ~n ~s)
      else if n mod b = 0 then Ok b
      else
        invalid "block size b=%d does not divide n=%d (pick b with n mod b = 0)"
          b n
    in
    (* LRU through the production sweep, OPT through one plan run *)
    let* opt, lru =
      Engine_error.guard (fun () ->
          let trace =
            Trace.of_program ~budget ~params:[] (tiled_spec ~m ~n ~b)
          in
          let plan = Cache.opt_plan ~budget trace in
          let opt = Cache.opt_run ~budget ~size:s plan in
          (opt, Sweep.stats (Sweep.run ~budget trace) ~size:s))
    in
    Printf.printf "tiled %s m=%d n=%d s=%d b=%d: opt=%d lru=%d%s\n" label m n s
      b opt.Cache.loads lru.Cache.loads (predicted b);
    Ok ()
  in
  Cmd.v
    (Cmd.info "tile" ~doc:"Cache-simulate a tiled ordering (Appendix A)"
       ~exits:engine_exits)
    Term.(const run $ kernel_arg $ m_arg $ n_arg $ s_arg $ b_arg $ budget_args)

let check_cmd =
  let count_arg =
    Arg.(
      value
      & opt int 100
      & info [ "count" ] ~docv:"N"
          ~doc:"Number of random program specs to certify.")
  in
  let seed_arg =
    Arg.(
      value
      & opt int 0
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Base seed.  Spec $(i,k) of the run is derived from $(i,SEED+k) \
             alone, so any failure replays with $(b,--seed) $(i,failing-seed) \
             $(b,--count 1).")
  in
  let props_arg =
    Arg.(
      value
      & opt string "default"
      & info [ "props" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated property names to run ($(b,default) = the full \
             registry).  $(b,demo-broken) is a deliberately failing oracle \
             for exercising the counterexample path.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the machine-readable report (counterexamples included) to \
             $(i,FILE); $(b,-) writes it to stdout.")
  in
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ] ~doc:"Suppress the human-readable summary.")
  in
  let parse_arg =
    Arg.(
      value & opt_all string []
      & info [ "parse" ] ~docv:"FILE"
          ~doc:
            "Parse and elaborate the DSL source in $(i,FILE) and print a \
             one-line structural summary instead of running the random \
             certification; a diagnostic exits with code 2.  Repeatable.")
  in
  let run count seed props json quiet parse_files budget_spec =
    if parse_files <> [] then
      run_checked @@ fun () ->
      List.fold_left
        (fun acc file ->
          let* () = acc in
          let* src = Front.parse_file file in
          Ok (Printf.printf "%s: %s\n" file (Driver.describe src)))
        (Ok ()) parse_files
    else
    let code = ref 0 in
    let rc =
      run_checked @@ fun () ->
      let* () =
        if count < 1 then invalid "--count must be >= 1, got %d" count
        else Ok ()
      in
      let* props =
        match Iolb_check.Oracle.find props with
        | Ok ps -> Ok ps
        | Error msg -> invalid "%s" msg
      in
      (* Validate the budget flags once, then mint a fresh budget per
         (spec, property) evaluation: budgets are stateful counters, and
         per-evaluation minting is what makes a budget kill degrade one
         check instead of aborting the whole run. *)
      let* _validated = make_budget budget_spec in
      let timeout_ms, max_steps, max_nodes = budget_spec in
      let budget () = Budget.make ?timeout_ms ?max_steps ?max_nodes () in
      (* The report file is opened before certifying, so an unusable path
         fails before any output. *)
      let* json_out =
        match json with
        | None -> Ok None
        | Some "-" -> Ok (Some (stdout, None))
        | Some file -> (
            match open_out file with
            | oc -> Ok (Some (oc, Some file))
            | exception Sys_error msg -> invalid "cannot write %s" msg)
      in
      let report =
        Iolb_check.Check.run ~budget ~count ~seed ~props ()
      in
      if not quiet then Format.printf "%a@." Iolb_check.Check.pp report;
      (match json_out with
      | None -> ()
      | Some (oc, file) -> (
          output_string oc
            (Iolb_util.Json.to_string_pretty (Iolb_check.Check.to_json report));
          match file with
          | None -> ()
          | Some file ->
              close_out oc;
              if not quiet then Printf.printf "wrote %s\n" file));
      if not (Iolb_check.Check.ok report) then code := 1;
      Ok ()
    in
    if rc <> 0 then rc else !code
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"when a property found a counterexample."
    :: engine_exits
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Certify the derivation pipeline on random programs (differential \
          and metamorphic oracles, with shrinking)"
       ~exits)
    Term.(
      const run $ count_arg $ seed_arg $ props_arg $ json_arg $ quiet_arg
      $ parse_arg $ budget_args)

let print_cmd =
  let run name =
    run_checked @@ fun () ->
    (* Emitting then re-parsing a built-in is the round-trip identity the
       shipped examples/kernels/*.iolb files are generated from. *)
    let* subject = Driver.lookup name in
    let src = Driver.source subject in
    Ok (print_string (Front.print ~verify:src.Front.verify src.Front.program))
  in
  Cmd.v
    (Cmd.info "print"
       ~doc:
         "Emit the DSL source of a built-in kernel (re-parses to the \
          identical program)"
       ~exits:engine_exits)
    Term.(const run $ kernel_arg)

(* ------------------------------------------------------------------ *)
(* Bound service: `iolb serve` and its line client.                    *)

module Server = Iolb_serve.Server
module Sclient = Iolb_serve.Client
module Protocol = Iolb_serve.Protocol
module Json = Iolb_util.Json

let address_args =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Serve on (or connect to) a Unix-domain socket at $(i,PATH).")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:"Serve on (or connect to) a TCP endpoint.")
  in
  let pair s t = (s, t) in
  Term.(const pair $ socket_arg $ tcp_arg)

let parse_address (socket, tcp) =
  match (socket, tcp) with
  | Some path, None -> Ok (Server.Unix_sock path)
  | None, Some spec -> (
      match String.rindex_opt spec ':' with
      | Some i -> (
          let host = String.sub spec 0 i in
          let port = String.sub spec (i + 1) (String.length spec - i - 1) in
          match int_of_string_opt port with
          | Some p when host <> "" -> Ok (Server.Tcp (host, p))
          | _ -> invalid "--tcp expects HOST:PORT, got %S" spec)
      | None -> invalid "--tcp expects HOST:PORT, got %S" spec)
  | Some _, Some _ -> invalid "--socket and --tcp are exclusive"
  | None, None -> invalid "need --socket PATH or --tcp HOST:PORT"

let serve_cmd =
  let pos_int_opt name default doc =
    Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc)
  in
  let queue_cap_arg =
    pos_int_opt "queue-cap" 64
      "Bounded request-queue capacity: beyond it the server sheds load with \
       a typed $(b,overloaded) response instead of queueing without limit."
  in
  let cache_cap_arg =
    pos_int_opt "cache-cap" 128
      "Content-addressed LRU response-cache entries (0 disables caching)."
  in
  let max_conns_arg =
    pos_int_opt "max-conns" 32
      "Concurrent connections admitted; excess peers get one \
       $(b,overloaded) line and are closed."
  in
  let default_timeout_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "default-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock deadline applied to requests that do not carry \
             their own $(b,timeout_ms).")
  in
  let allow_crash_arg =
    Arg.(
      value & flag
      & info [ "allow-crash" ]
          ~doc:
            "Honour the $(b,crash) op (kills and respawns a worker domain); \
             for fault-injection testing only.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress the stderr log.")
  in
  let run addr_spec jobs queue_cap cache_cap max_conns default_timeout_ms
      allow_crash quiet =
    run_checked @@ fun () ->
    let* address = parse_address addr_spec in
    let* () = check_jobs jobs in
    let* () =
      if queue_cap < 1 || cache_cap < 0 || max_conns < 1 then
        invalid "need --queue-cap >= 1, --cache-cap >= 0, --max-conns >= 1"
      else Ok ()
    in
    let jobs =
      match jobs with Some j -> j | None -> Iolb_util.Pool.default_jobs ()
    in
    let config =
      {
        Server.address;
        jobs;
        queue_capacity = queue_cap;
        cache_capacity = cache_cap;
        max_connections = max_conns;
        default_timeout_ms;
        allow_crash;
        log =
          (if quiet then ignore
           else fun msg -> Printf.eprintf "iolb-serve: %s\n%!" msg);
      }
    in
    Engine_error.guard @@ fun () ->
    let t = Server.start config in
    let stop_on_signal _ = Server.stop t in
    (try
       Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on_signal);
       Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on_signal)
     with Invalid_argument _ -> ());
    Server.join t
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the bound service: a crash-tolerant daemon answering \
          newline-delimited JSON derivation requests over a socket"
       ~exits:engine_exits)
    Term.(
      const run $ address_args $ jobs_arg $ queue_cap_arg $ cache_cap_arg
      $ max_conns_arg $ default_timeout_arg $ allow_crash_arg $ quiet_arg)

let client_cmd =
  let op_arg =
    let doc =
      "Operation: $(b,ping), $(b,list), $(b,stats), $(b,shutdown), \
       $(b,analyze), $(b,eval), $(b,source) (analyse the DSL file named by \
       $(i,ARG)), $(b,crash), or $(b,raw) (send $(i,ARG) as a verbatim \
       request line)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc)
  in
  let arg_arg =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"ARG"
          ~doc:
            "Kernel name (analyze/eval), DSL file path (source), or raw \
             request line (raw).")
  in
  let fault_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"STAGE:K"
          ~doc:
            "Budget fault-injection hook forwarded with the request, e.g. \
             $(b,derivation:2) (stages: cdag_build, pebble_game, \
             cache_sim, derivation).")
  in
  let parse_fault = function
    | None -> Ok None
    | Some spec -> (
        match String.index_opt spec ':' with
        | Some i -> (
            let stage = String.sub spec 0 i in
            let k = String.sub spec (i + 1) (String.length spec - i - 1) in
            match (Protocol.stage_of_wire stage, int_of_string_opt k) with
            | Some stage, Some k when k >= 1 -> Ok (Some (stage, k))
            | _ -> invalid "--fault expects STAGE:K, got %S" spec)
        | None -> invalid "--fault expects STAGE:K, got %S" spec)
  in
  let run addr_spec op arg m n s (timeout_ms, max_steps, max_nodes) fault =
    let code = ref 0 in
    let rc =
      run_checked @@ fun () ->
      let* address = parse_address addr_spec in
      let* fault = parse_fault fault in
      (* OP names a typed request, which [Protocol] encodes; raw lines go
         out verbatim. *)
      let* line =
        let budget = { Protocol.timeout_ms; max_steps; max_nodes; fault } in
        let encode op = Ok (Protocol.encode_request { id = Json.Null; op }) in
        match (op, arg) with
        | "raw", Some line -> Ok line
        | "raw", None -> invalid "raw needs the request line"
        | "ping", _ -> encode Protocol.Ping
        | "list", _ -> encode Protocol.List_kernels
        | "stats", _ -> encode Protocol.Stats
        | "shutdown", _ -> encode Protocol.Shutdown
        | "crash", _ -> encode Protocol.Crash
        | ("analyze" | "eval"), None -> invalid "%s needs a kernel argument" op
        | "analyze", Some kernel -> encode (Protocol.Analyze { kernel; budget })
        | "eval", Some kernel ->
            encode (Protocol.Eval { kernel; m; n; s; empirical = None; budget })
        | "source", None -> invalid "source needs a DSL file path"
        | "source", Some path -> (
            (* The file is read client-side; the service never touches the
               filesystem. *)
            let* src = Front.read_file path in
            encode (Protocol.Source { src; budget }))
        | other, _ ->
            invalid
              "unknown client op %S (ping, list, stats, shutdown, analyze, \
               eval, source, crash, raw)"
              other
      in
      (* Connection attempts 100 ms apart cover a daemon still binding its
         socket. *)
      let* client =
        Engine_error.guard (fun () ->
            Sclient.connect ~attempts:50 ~delay_s:0.1 address)
      in
      Fun.protect
        ~finally:(fun () -> Sclient.close client)
        (fun () ->
          Sclient.send_line client line;
          match Sclient.recv_line client with
          | None ->
              Error
                (Engine_error.Internal
                   "connection closed before a response arrived")
          | Some response -> (
              print_endline response;
              match Protocol.parse_response response with
              | Ok r ->
                  code := r.Protocol.exit_code;
                  Ok ()
              | Error msg -> Error (Engine_error.Internal msg)))
    in
    if rc <> 0 then rc else !code
  in
  let exits =
    Cmd.Exit.info 6 ~doc:"when the server shed the request (overloaded)."
    :: engine_exits
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running bound service and print the \
          response line (exit code mirrors the wire error code)"
       ~exits)
    Term.(
      const run $ address_args $ op_arg $ arg_arg $ m_arg $ n_arg $ s_arg
      $ budget_args $ fault_arg)

let dot_cmd =
  let out_arg =
    Arg.(
      value
      & opt string "cdag.dot"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output DOT file.")
  in
  let run name m n out =
    run_checked @@ fun () ->
    let* subject = Driver.lookup name in
    let* params = Driver.point subject ~m ~n in
    let* cdag =
      Engine_error.guard (fun () ->
          Cdag.of_program ~params (Driver.source subject).Front.program)
    in
    match Iolb_cdag.Dot.to_file out cdag with
    | () ->
        Printf.printf "wrote %s (%d nodes)\n" out (Cdag.n_nodes cdag);
        Ok ()
    | exception Sys_error msg -> invalid "cannot write %s" msg
  in
  let small_m = Arg.(value & opt int 6 & info [ "m" ] ~docv:"M" ~doc:"Rows M.") in
  let small_n =
    Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Columns N.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export a small concrete CDAG to Graphviz"
       ~exits:engine_exits)
    Term.(const run $ kernel_arg $ small_m $ small_n $ out_arg)

let () =
  let doc = "Automatic I/O lower bounds via the hourglass dependency pattern" in
  let info = Cmd.info "iolb" ~version:"1.0.0" ~doc ~exits:engine_exits in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd;
            analyze_cmd;
            bounds_cmd;
            print_cmd;
            eval_cmd;
            simulate_cmd;
            tile_cmd;
            check_cmd;
            serve_cmd;
            client_cmd;
            dot_cmd;
          ]))
