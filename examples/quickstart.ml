(* Quickstart: define an affine program, detect its hourglass pattern, and
   derive both the classical and the hourglass I/O lower bounds.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. A program can come from the kernel registry, which parses the
        shipped sources; printed back as DSL source, this one is
        examples/kernels/mgs.iolb... *)
  let entry = Iolb.Report.find "mgs" in
  let mgs = entry.program in
  print_endline (Iolb_lang.Front.print ~verify:entry.verify_params mgs);

  (* 2. ... or be built directly.  Here is a toy reduce-broadcast loop:
        for k: for j: { SR: acc[j] += A[j][k-ish]...; }  We reuse MGS. *)

  (* 3. Detect the hourglass pattern and verify it on a concrete CDAG. *)
  let params = [ ("M", 8); ("N", 5) ] in
  let patterns = Iolb.Hourglass.detect_verified ~params mgs in
  List.iter (fun h -> Format.printf "found: %a@." Iolb.Hourglass.pp h) patterns;

  (* 4. Derive the bounds. *)
  let bounds =
    match Iolb.Derive.analyze_ladder ~verify_params:params mgs with
    | Ok o -> o.bounds
    | Error e -> failwith (Iolb_util.Engine_error.to_string e)
  in
  List.iter (fun b -> Format.printf "%a@." Iolb.Derive.pp b) bounds;

  (* 5. Evaluate them at concrete sizes and compare with the I/O of an
        actual execution (the red-white pebble game on the CDAG). *)
  let cdag = Iolb_cdag.Cdag.of_program ~params mgs in
  let game = Iolb_pebble.Game.(plan cdag ~schedule:(program_schedule cdag)) in
  let s = 16 in
  let measured = (Iolb_pebble.Game.run_plan game ~s).loads in
  Format.printf "@.At M=8, N=5, S=%d:@." s;
  List.iter
    (fun b ->
      let name =
        match b.Iolb.Derive.technique with
        | Iolb.Derive.Classical -> "classical bound"
        | Iolb.Derive.Hourglass -> "hourglass bound"
        | Iolb.Derive.Hourglass_small_s -> "hourglass bound (small S)"
        | Iolb.Derive.Trivial -> "trivial bound (input footprint)"
      in
      let v = Iolb.Derive.eval b ~params ~s in
      (* The small-cache variant only applies when S <= W = M. *)
      if v < 0. then Format.printf "  %-28s (not applicable here)@." name
      else Format.printf "  %-28s >= %.1f@." name v)
    bounds;
  Format.printf "  measured loads (program order) = %d@." measured
