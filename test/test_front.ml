(* Affine-program front-end.  The shipped sources under examples/kernels
   are the only definition of the registry programs: each must be exactly
   what [iolb print] writes for its own parse, must resolve (paper
   kernels) or stay a custom program (baselines), and must render
   byte-identical reports by name and through [iolb bounds --file];
   malformed sources must produce the exact pinned file:line:col
   diagnostics behind the exit-code-2 contract. *)

module Front = Iolb_front.Front
module Diag = Iolb_front.Diag
module Driver = Iolb_front.Driver
module Report = Iolb.Report
module Program = Iolb_ir.Program
module Budget = Iolb_util.Budget
module Pool = Iolb_util.Pool
module EE = Iolb_util.Engine_error

let verify_equal a b =
  let sort l = List.sort (fun (x, _) (y, _) -> String.compare x y) l in
  sort a = sort b

(* Registry programs must resolve back to their own entry; baselines are
   outside the registry and must stay unresolved (custom-program path). *)
let test_resolution () =
  List.iter
    (fun (e : Report.entry) ->
      let printed = Front.print ~verify:e.Report.verify_params e.Report.program in
      match Front.parse_string ~file:"<registry>" printed with
      | Error d -> Alcotest.failf "registry print: %s" (Diag.to_string d)
      | Ok src -> (
          match Driver.resolve src with
          | Some e' ->
              Alcotest.(check string) "resolves to itself" e.Report.display
                e'.Report.display
          | None ->
              Alcotest.failf "%s does not resolve to its own entry"
                e.Report.display))
    Report.registry;
  List.iter
    (fun (name, program, verify) ->
      match Front.parse_string ~file:"<baseline>" (Front.print ~verify program) with
      | Error d -> Alcotest.failf "baseline print: %s" (Diag.to_string d)
      | Ok src ->
          Alcotest.(check bool)
            (name ^ " is not a registry entry")
            true
            (Driver.resolve src = None))
    Report.baselines

(* Tests run with cwd = test/ under [dune runtest] but cwd = the project
   root under [dune exec test/main.exe]; resolve data paths under both. *)
let locate path =
  let stripped =
    if String.length path >= 3 && String.sub path 0 3 = "../" then
      String.sub path 3 (String.length path - 3)
    else Filename.concat "test" path
  in
  if Sys.file_exists path then path
  else if Sys.file_exists stripped then stripped
  else path

let kernels_dir = locate "../examples/kernels"
let kernel_file name = Filename.concat kernels_dir (name ^ ".iolb")

(* The shipped sources: registry entry display -> file, baseline name ->
   file. *)
let example_files =
  List.map
    (fun (e : Report.entry) ->
      (e.display, kernel_file (Iolb.Paper_formulas.kernel_name e.kernel)))
    Report.registry

let baseline_files =
  List.map (fun (name, _, _) -> (name, kernel_file name)) Report.baselines

let parse_file_ok path =
  match Front.parse_file path with
  | Ok src -> src
  | Error e -> Alcotest.failf "%s: %s" path (EE.to_string e)

let test_examples_resolve () =
  List.iter
    (fun (display, path) ->
      let src = parse_file_ok path in
      match Driver.resolve src with
      | Some e ->
          Alcotest.(check string) (path ^ " resolves") display e.Report.display
      | None -> Alcotest.failf "%s does not resolve to a built-in" path)
    example_files

(* One definition per kernel: the shipped sources are exactly the
   registry and baseline programs, each file is what the printer writes
   for its own parse (so [iolb print NAME] reproduces it), and the
   registry holds that parse. *)
let test_text_definitions () =
  let shipped =
    Sys.readdir kernels_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".iolb")
    |> List.sort String.compare
  in
  let files = example_files @ baseline_files in
  Alcotest.(check (list string))
    "examples/kernels holds the registry and the baselines"
    (List.sort String.compare
       (List.map (fun (_, path) -> Filename.basename path) files))
    shipped;
  List.iter
    (fun (name, path) ->
      let text = In_channel.with_open_bin path In_channel.input_all in
      let src = parse_file_ok path in
      Alcotest.(check string)
        (path ^ " is its own printed parse")
        text
        (Front.print ~verify:src.verify src.program);
      match Driver.lookup name with
      | Ok subject ->
          let registered = Driver.source subject in
          Alcotest.(check bool)
            (name ^ " is the registry's program")
            true
            (Program.equal registered.program src.program
            && registered.verify = src.verify)
      | Error e -> Alcotest.failf "%s: %s" name (EE.to_string e))
    files

(* Byte-identity: the report rendered from the textual source must equal
   the report rendered from the built-in name, for both the bounds view
   (logs:false) and the analyze view (logs:true). *)
let test_reports_byte_identical () =
  let budget = Budget.unlimited in
  let subjects =
    example_files @ baseline_files
  in
  List.iter
    (fun (name, path) ->
      List.iter
        (fun logs ->
          let from_name =
            match Driver.render_kernel ~budget ~logs name with
            | Ok s -> s
            | Error e -> Alcotest.failf "%s: %s" name (EE.to_string e)
          in
          let from_file =
            match Driver.render_file ~budget ~logs path with
            | Ok s -> s
            | Error e -> Alcotest.failf "%s: %s" path (EE.to_string e)
          in
          Alcotest.(check string)
            (Printf.sprintf "%s logs:%b file = name" name logs)
            from_name from_file)
        [ false; true ])
    subjects

(* The worker fan-out behind [iolb bounds --jobs N --file ...] must be
   byte-deterministic: same concatenated report at every worker count. *)
let test_jobs_deterministic () =
  let budget = Budget.unlimited in
  let files = List.map snd (example_files @ baseline_files) in
  let render ~jobs =
    String.concat ""
      (Pool.map ~jobs
         (fun path ->
           match Driver.render_file ~budget ~logs:false path with
           | Ok s -> s
           | Error e -> "error: " ^ EE.to_string e)
         files)
  in
  let seq = render ~jobs:1 in
  Alcotest.(check string) "jobs 4 = jobs 1" seq (render ~jobs:4)

(* [iolb bounds --max-steps N]: every report gets its own budget, minted
   before the fan-out, so capped output is one string at every worker
   count and on every run.  Each report alone fits in 1000 steps except
   GEHD2's (1671 undegraded), so at that cap exactly one report degrades;
   a budget shared across reports would starve the ones after it. *)
let test_capped_bounds_deterministic () =
  let degraded report =
    List.length
      (List.filter
         (fun line -> String.starts_with ~prefix:"degraded:" line)
         (String.split_on_char '\n' report))
  in
  List.iter
    (fun (what, files) ->
      List.iter
        (fun cap ->
          let render ~jobs =
            Driver.render_bounds ~jobs
              ~budget:(fun () -> Budget.make ~max_steps:cap ())
              files
            |> List.map (function
                 | Ok s -> s
                 | Error e -> "error: " ^ EE.to_string e)
            |> String.concat ""
          in
          let first = render ~jobs:1 in
          List.iter
            (fun jobs ->
              Alcotest.(check string)
                (Printf.sprintf "%s cap %d: jobs %d = jobs 1" what cap jobs)
                first (render ~jobs))
            [ 2; 4; 1; 2; 4 ];
          if cap = 1000 then
            Alcotest.(check int)
              (Printf.sprintf "%s cap 1000: degraded reports" what)
              1 (degraded first))
        [ 100; 300; 1000; 3000 ])
    [ ("registry", []); ("files", List.map snd example_files) ]

(* ------------------------------------------------------------------ *)
(* Golden diagnostics: the malformed corpus under test/data/ is pinned
   to exact file:line:col messages and the Invalid_input embedding the
   CLI renders (exit code 2, "iolb: error: " ^ message). *)

let malformed_corpus =
  (* file, located diagnostic with %s holding the resolved path (which
     differs between dune runtest and dune exec cwds) *)
  [
    ("data/bad_token.iolb", fun p ->
      Printf.sprintf "invalid input: %s:5:23: unexpected character '$'" p);
    ("data/non_affine.iolb", fun p ->
      Printf.sprintf
        "invalid input: %s:6:14: non-affine product i * j: one operand of \
         '*' must be constant (subscripts and bounds are affine in loop \
         variables and parameters)"
        p);
    ("data/unbound.iolb", fun p ->
      Printf.sprintf
        "invalid input: %s:5:20: unbound name k (visible here: i, N)" p);
    ("data/negative_bound.iolb", fun p ->
      Printf.sprintf
        "invalid input: %s:3:7: negative bound: i iterates 3 .. 1, a trip \
         count of -1 (bounds are inclusive)"
        p);
    ("data/dup_stmt.iolb", fun p ->
      Printf.sprintf
        "invalid input: %s:6:5: duplicate statement id S0 (first defined \
         at %s:5:5)"
        p p);
  ]

let test_malformed_corpus () =
  List.iter
    (fun (file, expected) ->
      let path = locate file in
      match Front.parse_file path with
      | Ok _ -> Alcotest.failf "%s unexpectedly parsed" path
      | Error e ->
          Alcotest.(check string) path (expected path) (EE.to_string e);
          Alcotest.(check int) (path ^ " exit code") 2 (EE.exit_code e))
    malformed_corpus

(* Inline golden diagnostics for failure modes the corpus files cannot
   carry (they live before the body). *)
let inline_diags =
  [
    ( "unbound parameter in verify",
      "kernel k(N)\nverify N = 4, M = 2\n{\n  S: a = f();\n}\n",
      "<inline>:2:15: verify binds M, which is not a parameter of kernel k" );
    ( "missing verify value",
      "kernel k(N)\n{\n  for i = 0 .. N - 1 {\n    S: A[i] = f();\n  }\n}\n",
      "<inline>:1:10: parameter N has no verify value (add 'verify N = \
       <size>' so patterns can be verified at concrete sizes)" );
    ( "duplicate parameter",
      "kernel k(N, N)\nverify N = 4\n{\n  S: a = f();\n}\n",
      "<inline>:1:13: duplicate parameter N" );
    ( "parse error",
      "kernel k()\n{\n  S: a = f()\n}\n",
      "<inline>:4:1: expected ';' terminating the statement, got '}'" );
  ]

let test_inline_diags () =
  List.iter
    (fun (what, src, expected) ->
      match Front.parse_string ~file:"<inline>" src with
      | Ok _ -> Alcotest.failf "%s: unexpectedly parsed" what
      | Error d -> Alcotest.(check string) what expected (Diag.to_string d))
    inline_diags

(* ------------------------------------------------------------------ *)
(* The unknown-kernel error must advertise both kernel families and the
   --file escape hatch (the regression this PR's small fix pinned). *)

let test_unknown_kernel_message () =
  match EE.guard (fun () -> Report.find "nope") with
  | Ok _ -> Alcotest.fail "find accepted an unknown name"
  | Error e ->
      let msg = EE.to_string e in
      let mentions needle =
        Alcotest.(check bool)
          (Printf.sprintf "mentions %s" needle)
          true
          (let nl = String.length needle and ml = String.length msg in
           let rec scan i =
             i + nl <= ml && (String.sub msg i nl = needle || scan (i + 1))
           in
           scan 0)
      in
      List.iter mentions [ "mgs"; "gehd2"; "gemm"; "jacobi1d"; "--file" ]

(* A rung that cannot run on a valid program - a non-coordinate
   subscript, or exact arithmetic leaving 63-bit integers - is skipped
   with a note, and the ladder degrades instead of failing. *)
let degraded_reports =
  [
    ( "data/skew.iolb",
      "degraded: classical rung skipped (Phi.of_statement: non-coordinate \
       access A[i + j]); degraded to the trivial input-footprint bound\n\n\
       [skew/inputs, trivial] Q >= N^2  (any S >= 1)\n" );
    ( "data/rat_overflow.iolb",
      "degraded: classical rung skipped (exact arithmetic left 63-bit \
       integers); degraded to the trivial input-footprint bound\n\n\
       [bigskip/inputs, trivial] Q >= N^2 + 2*N  (any S >= 1)\n" );
  ]

let test_degraded_reports () =
  List.iter
    (fun (file, expected) ->
      let path = locate file in
      match Driver.render_file ~budget:Budget.unlimited ~logs:false path with
      | Ok got -> Alcotest.(check string) path expected got
      | Error e -> Alcotest.failf "%s: %s" path (EE.to_string e))
    degraded_reports

(* One resolver for every KERNEL positional: paper kernels and baselines
   resolve, unknown names keep Report.find's message, and [point] rejects
   points outside a program's domain (naming the violated constraint)
   while accepting points inside it. *)
let test_lookup_point () =
  let lookup name =
    match Driver.lookup name with
    | Ok subject -> subject
    | Error e -> Alcotest.failf "%s: %s" name (EE.to_string e)
  in
  List.iter
    (fun (e : Report.entry) ->
      match lookup (Iolb.Paper_formulas.kernel_name e.kernel) with
      | Driver.Paper e' as subject ->
          Alcotest.(check string) "paper entry" e.display e'.display;
          List.iter
            (fun (m, n, s) ->
              match Driver.point ~s subject ~m ~n with
              | Ok _ -> ()
              | Error err ->
                  Alcotest.failf "%s grid point: %s" e.display
                    (EE.to_string err))
            e.grid
      | Driver.Program _ -> Alcotest.failf "%s: not a paper kernel" e.display)
    Report.registry;
  List.iter
    (fun (name, program, verify) ->
      match lookup name with
      | Driver.Program src as subject ->
          Alcotest.(check bool)
            (name ^ " resolves to its program")
            true
            (Program.equal src.Front.program program
            && verify_equal src.Front.verify verify);
          Alcotest.(check (result (list (pair string int)) reject))
            (name ^ " verify sizes are in its domain")
            (Ok verify)
            (Result.map_error ignore (Driver.point ~s:1 subject ~m:0 ~n:0))
      | Driver.Paper _ -> Alcotest.failf "%s: not a baseline" name)
    Report.baselines;
  (match (Driver.lookup "nope", EE.guard (fun () -> Report.find "nope")) with
  | Error e, Error e' ->
      Alcotest.(check string) "unknown-name message" (EE.to_string e')
        (EE.to_string e)
  | _ -> Alcotest.fail "nope resolved");
  let rejects what ?s ?overrides subject ~m ~n needle =
    match Driver.point ?s ?overrides subject ~m ~n with
    | Ok _ -> Alcotest.failf "%s: point accepted" what
    | Error (EE.Invalid_input msg) ->
        let nl = String.length needle and ml = String.length msg in
        let rec scan i =
          i + nl <= ml && (String.sub msg i nl = needle || scan (i + 1))
        in
        Alcotest.(check bool) (what ^ " names " ^ needle) true (scan 0)
    | Error e -> Alcotest.failf "%s: %s" what (EE.to_string e)
  in
  let file path =
    match Front.parse_file (locate path) with
    | Ok src -> Driver.Program src
    | Error e -> Alcotest.failf "%s: %s" path (EE.to_string e)
  in
  let mgs = lookup "mgs" in
  rejects "MGS (3, 5)" mgs ~s:16 ~m:3 ~n:5 "M - N >= 0";
  rejects "MGS s = 0" mgs ~s:0 ~m:6 ~n:4 "s >= 1";
  rejects "GEHD2 n < 4" (lookup "gehd2") ~m:0 ~n:3 "n >= 4";
  rejects "--param on a paper kernel" mgs ~overrides:[ ("M", 8) ] ~m:6 ~n:4
    "--param";
  let gemm = file "../examples/kernels/gemm.iolb" in
  rejects "gemm.iolb K=-4" gemm ~overrides:[ ("K", -4) ] ~m:0 ~n:0
    "K - 1 >= 0";
  rejects "gemm.iolb Q=1" gemm ~overrides:[ ("Q", 1) ] ~m:0 ~n:0 "Q";
  (match
     Driver.point ~s:16 ~overrides:[ ("M", 8) ]
       (file "../examples/kernels/mgs.iolb")
       ~m:0 ~n:0
   with
  | Ok params ->
      Alcotest.(check (list (pair string int)))
        "mgs.iolb M=8" [ ("M", 8); ("N", 4) ] params
  | Error e -> Alcotest.failf "mgs.iolb M=8: %s" (EE.to_string e));
  match Driver.point ~s:256 mgs ~m:128 ~n:64 with
  | Ok params ->
      Alcotest.(check (list (pair string int)))
        "MGS (128, 64)" [ ("M", 128); ("N", 64) ] params
  | Error e -> Alcotest.failf "MGS (128, 64): %s" (EE.to_string e)

(* A shrunk counterexample's source artifact must itself parse - the
   reproducer the certifier prints is always a valid .iolb file. *)
let test_shrunk_source_parses () =
  let props =
    match Iolb_check.Oracle.find "demo-broken" with
    | Ok ps -> ps
    | Error e -> Alcotest.fail e
  in
  let report = Iolb_check.Check.run ~count:2 ~seed:0 ~props () in
  Alcotest.(check bool) "demo-broken fails" false (Iolb_check.Check.ok report);
  List.iter
    (fun (f : Iolb_check.Check.failure) ->
      match Front.parse_string ~file:"<shrunk>" f.shrunk_source with
      | Ok _ -> ()
      | Error d ->
          Alcotest.failf "shrunk source does not parse: %s" (Diag.to_string d))
    report.Iolb_check.Check.failures

(* A directory where a source file is expected is unreadable input, and
   the reason says so: the read to the end fails with EISDIR, where a
   length query would have failed with EOVERFLOW ("Value too large for
   defined data type"). *)
let test_directory_path () =
  let dir = locate "data" in
  Alcotest.(check bool) "a directory" true (Sys.is_directory dir);
  let want = Printf.sprintf "cannot read %s: Is a directory" dir in
  let check what = function
    | Error (EE.Invalid_input msg as e) ->
        Alcotest.(check string) what want msg;
        Alcotest.(check int) (what ^ ": exit code") 2 (EE.exit_code e)
    | Error e -> Alcotest.failf "%s: wrong error %s" what (EE.to_string e)
    | Ok _ -> Alcotest.failf "%s: a directory was read" what
  in
  check "read_file" (Front.read_file dir);
  check "parse_file" (Front.parse_file dir)

let suite =
  [
    Alcotest.test_case "text-definitions" `Quick test_text_definitions;
    Alcotest.test_case "resolution" `Quick test_resolution;
    Alcotest.test_case "examples-resolve" `Quick test_examples_resolve;
    Alcotest.test_case "reports-byte-identical" `Slow
      test_reports_byte_identical;
    Alcotest.test_case "jobs-deterministic" `Slow test_jobs_deterministic;
    Alcotest.test_case "capped-bounds-deterministic" `Quick
      test_capped_bounds_deterministic;
    Alcotest.test_case "malformed-corpus" `Quick test_malformed_corpus;
    Alcotest.test_case "inline-diagnostics" `Quick test_inline_diags;
    Alcotest.test_case "unknown-kernel-message" `Quick
      test_unknown_kernel_message;
    Alcotest.test_case "shrunk-source-parses" `Quick test_shrunk_source_parses;
    Alcotest.test_case "lookup-point" `Quick test_lookup_point;
    Alcotest.test_case "degraded-reports" `Quick test_degraded_reports;
    Alcotest.test_case "directory-path" `Quick test_directory_path;
  ]
