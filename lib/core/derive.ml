module Rat = Iolb_util.Rat
module Budget = Iolb_util.Budget
module Engine_error = Iolb_util.Engine_error
module P = Iolb_symbolic.Polynomial
module R = Iolb_symbolic.Ratfun
module Affine = Iolb_poly.Affine
module Access = Iolb_ir.Access
module Program = Iolb_ir.Program

type technique = Classical | Hourglass | Hourglass_small_s | Trivial

type sregion = { s_lo : R.t; s_hi : R.t option }

let region_validity v =
  let lo_trivial = R.equal v.s_lo R.one in
  match (v.s_hi, lo_trivial) with
  | None, true -> "any S >= 1"
  | None, false -> Printf.sprintf "S >= %s" (R.to_string v.s_lo)
  | Some hi, true -> Printf.sprintf "1 <= S <= %s" (R.to_string hi)
  | Some hi, false ->
      Printf.sprintf "%s <= S <= %s" (R.to_string v.s_lo) (R.to_string hi)

let any_s = { s_lo = R.one; s_hi = None }

type t = {
  program : string;
  stmt : string;
  technique : technique;
  formula : R.t;
  validity : string;
  valid : sregion;
  s_max : R.t option;
  log : string list;
}

let s_var = P.var "S"
let sqrt_s_var = P.var "sqrtS"

let fmt_rat = Rat.to_string

(* [solve] is {!Bl.classical} or a call-local memo of it: only the
   optimum [rho] is read below, and an LP's optimum is unique. *)
let classical_of_info ?(budget = Budget.unlimited) ~solve p
    (info : Program.stmt_info) =
  Budget.checkpoint budget Budget.Derivation;
  let stmt = info.def.name in
  let phis = Phi.of_statement p info in
  List.iter (fun _ -> Budget.checkpoint budget Budget.Derivation) phis;
  let dimsets = List.map (fun (ph : Phi.t) -> ph.dims) phis in
  match solve ~dims:info.dims dimsets with
  | None -> None
  | Some (sol : Bl.solution) ->
      let rho = sol.k_exponent in
      if Rat.compare rho Rat.one <= 0 then None
      else
        let v = Program.cardinal info in
        let log =
          [
            Printf.sprintf "projections: %s"
              (String.concat " "
                 (List.map (fun (ph : Phi.t) -> "{" ^ String.concat "," ph.dims ^ "}") phis));
            Printf.sprintf "Brascamp-Lieb exponent sum rho = %s" (fmt_rat rho);
            Printf.sprintf "|V| = %s" (P.to_string v);
          ]
        in
        let num_rho = Rat.num rho and den_rho = Rat.den rho in
        let formula =
          if den_rho = 1 then begin
            (* K = p/(p-1) S maximises (K-S)/K^p; all quantities rational. *)
            let pexp = num_rho in
            let coeff =
              Rat.div
                (Rat.pow (Rat.of_int (pexp - 1)) (pexp - 1))
                (Rat.pow (Rat.of_int pexp) pexp)
            in
            Some
              (R.make (P.scale coeff v) (P.pow s_var (pexp - 1)))
          end
          else if den_rho = 2 then begin
            (* rho = p/2: choose K = 4S so K^rho = 2^p sqrtS^p stays
               rational over the auxiliary variable sqrtS (S = sqrtS^2).
               (K-S) = 3S = 3 sqrtS^2. *)
            let pexp = num_rho in
            if pexp < 2 then None
            else
              Some
                (R.make (P.scale (Rat.of_int 3) v)
                   (P.scale
                      (Rat.pow Rat.two pexp)
                      (P.pow sqrt_s_var (pexp - 2))))
          end
          else None
        in
        Option.map
          (fun formula ->
            {
              program = p.Program.name;
              stmt;
              technique = Classical;
              formula;
              validity = region_validity any_s;
              valid = any_s;
              s_max = None;
              log =
                log
                @ [
                    (if den_rho = 1 then "K = rho/(rho-1) * S"
                     else "K = 4S (rational-friendly near-optimal choice)");
                  ];
            })
          formula

let classical ?budget p ~stmt =
  classical_of_info ?budget ~solve:Bl.classical p (Program.find_stmt p stmt)

(* Sharpened projections for I' (Section 4.2).  Each entry records the LP
   cost (alpha, beta) and the actual symbolic bound as a function of K. *)
let iprime_projections (h : Hourglass.t) (info : Program.stmt_info) phis =
  let width = Hourglass.width_poly h in
  let in_reduction d = List.mem d h.reduction in
  let phi_i =
    ( Bl.proj ~alpha:Rat.zero ~beta:Rat.one ~label:"phi_I" h.reduction,
      fun _k -> R.of_poly width )
  in
  let others =
    List.map
      (fun (ph : Phi.t) ->
        let a = List.filter in_reduction ph.dims in
        if a = [] then
          ( Bl.proj ~alpha:Rat.one ~label:("phi_{" ^ String.concat "," ph.dims ^ "}")
              ph.dims,
            fun k -> R.of_poly k )
        else
          let x = List.filter (fun d -> not (in_reduction d)) ph.dims in
          let w_a =
            List.fold_left
              (fun acc d -> P.mul acc (Affine.to_polynomial (Program.extent_min info d)))
              P.one a
          in
          ( Bl.proj ~alpha:Rat.one ~beta:Rat.minus_one
              ~label:("phi_{" ^ String.concat "," x ^ "}<=K/W")
              x,
            fun k -> R.make k w_a ))
      phis
  in
  phi_i :: others

let sharpened_projections p (h : Hourglass.t) =
  let info = Program.find_stmt p h.update_stmt in
  let phis = Phi.of_statement p info in
  (info.dims, List.map fst (iprime_projections h info phis))

(* The hourglass derivation, Sections 4.1-4.4. *)
let hourglass ?(budget = Budget.unlimited) p (h : Hourglass.t) =
  Budget.checkpoint budget Budget.Derivation;
  let info = Program.find_stmt p h.update_stmt in
  let phis = Phi.of_statement p info in
  let width = Hourglass.width_poly h in
  let in_reduction d = List.mem d h.reduction in
  let iprime_projs = iprime_projections h info phis in
  match Bl.optimize ~dims:info.dims (List.map fst iprime_projs) with
  | None -> []
  | Some sol ->
      let integral =
        List.for_all (fun (_, e) -> Rat.is_integer e) sol.exponents
      in
      if not integral then []
      else
        let iprime_bound k =
          List.fold_left
            (fun acc (proj, bound) ->
              match List.assoc_opt proj.Bl.label sol.exponents with
              | None -> acc
              | Some e -> R.mul acc (R.pow (bound k) (Rat.to_int e)))
            R.one iprime_projs
        in
        (* Flat part F (Section 4.3): pick phi_w covering the neutral
           dimensions; temporal dimensions are covered by the flatness
           bound (<= 2); any dimension still uncovered is covered by a
           K-bounded projection from Phi. *)
        let score (ph : Phi.t) =
          ( List.length (List.filter (fun d -> List.mem d h.neutral) ph.dims),
            List.length (List.filter in_reduction ph.dims),
            -List.length (List.filter (fun d -> List.mem d h.temporal) ph.dims) )
        in
        let sorted =
          List.sort (fun a b -> compare (score b) (score a)) phis
        in
        (match sorted with
        | [] -> []
        | w :: _ ->
            let r_factor =
              List.fold_left
                (fun acc d ->
                  if List.mem d w.dims then acc
                  else P.mul acc (Affine.to_polynomial (Program.extent_max info d)))
                P.one h.neutral
            in
            let covered d =
              List.mem d h.temporal || List.mem d w.dims
            in
            let rec cover uncovered acc =
              Budget.checkpoint budget Budget.Derivation;
              if uncovered = [] then Some acc
              else
                let best =
                  List.fold_left
                    (fun best (ph : Phi.t) ->
                      let gain = List.length (List.filter (fun d -> List.mem d ph.dims) uncovered) in
                      match best with
                      | Some (_, g) when g >= gain -> best
                      | _ when gain = 0 -> best
                      | _ -> Some (ph, gain))
                    None phis
                in
                match best with
                | None -> None
                | Some (ph, _) ->
                    cover
                      (List.filter (fun d -> not (List.mem d ph.dims)) uncovered)
                      (ph :: acc)
            in
            let uncovered = List.filter (fun d -> not (covered d)) info.dims in
            (match cover uncovered [] with
            | None -> []
            | Some extras ->
                let n_extra = List.length extras in
                (* |F| <= 2 * R * K^(n_extra) * K  (slice sum, Section 4.3) *)
                let f_bound k =
                  R.of_poly
                    (P.scale Rat.two (P.mul r_factor (P.pow k (n_extra + 1))))
                in
                let v = Program.cardinal info in
                let e_bound k = R.add (iprime_bound k) (f_bound k) in
                let base_log =
                  [
                    Format.asprintf "%a" Hourglass.pp h;
                    Printf.sprintf "W = %s" (P.to_string width);
                    Format.asprintf "I' certificate: %a" Bl.pp_solution sol;
                    Printf.sprintf "F part: phi_w = {%s}, R = %s, %d extra K-projections"
                      (String.concat "," w.dims) (P.to_string r_factor) n_extra;
                    Printf.sprintf "|V| = %s" (P.to_string v);
                  ]
                in
                (* Main bound: K = 2S, T = K - S = S. *)
                let k_main = P.scale Rat.two s_var in
                let main =
                  {
                    program = p.Program.name;
                    stmt = h.update_stmt;
                    technique = Hourglass;
                    formula = R.div (R.of_poly (P.mul s_var v)) (e_bound k_main);
                    validity = region_validity any_s;
                    valid = any_s;
                    s_max = None;
                    log = base_log @ [ "K = 2S" ];
                  }
                in
                (* Small-cache bound: K = W forces I' empty (a spanning
                   component needs more than W distinct input values in its
                   inset), so U = |F| bound at K = W; T = W - S.  Valid for
                   S <= W. *)
                let small =
                  let valid = { s_lo = R.one; s_hi = Some (R.of_poly width) } in
                  {
                    program = p.Program.name;
                    stmt = h.update_stmt;
                    technique = Hourglass_small_s;
                    formula =
                      R.div
                        (R.of_poly (P.mul (P.sub width s_var) v))
                        (f_bound width);
                    validity = region_validity valid;
                    valid;
                    s_max = Some (R.of_poly width);
                    log = base_log @ [ "K = W (I' empty since S <= W)" ];
                  }
                in
                [ main; small ]))

(* Last rung of the degradation ladder: every distinct input cell must be
   loaded at least once, so Q >= (number of distinct input cells).  An
   array counts as an input when it is never written, or when every write
   to it is a read-modify-write of the same cell (the statement also reads
   the cell it writes): then the first access to any of its cells involves
   a read with no prior producer, i.e. an input node of the CDAG.  The
   footprint of an input array is underapproximated by the image of a
   single coordinate read access: an access selecting dimensions D touches
   at least prod_{d in D} extent_min(d) distinct cells.  Much weaker than
   the partitioning bounds (no S dependence at all) but always sound, and
   O(program text) to compute - it needs no CDAG, no LP and no projection,
   so it survives any work budget. *)
let trivial p =
  let stmts = Program.statements p in
  (* Arrays with at least one write that is NOT a same-cell RMW. *)
  let overwritten =
    List.concat_map
      (fun (i : Program.stmt_info) ->
        List.filter_map
          (fun (w : Access.t) ->
            if List.exists (Access.equal w) i.def.reads then None
            else Some w.array)
          i.def.writes)
      stmts
  in
  let best = Hashtbl.create 8 in
  List.iter
    (fun (info : Program.stmt_info) ->
      List.iter
        (fun (a : Access.t) ->
          if not (List.mem a.array overwritten) then
            match Access.selected_dims ~dims:info.dims a with
            | None -> ()
            | Some sel ->
                let footprint =
                  List.fold_left
                    (fun acc d ->
                      P.mul acc
                        (Affine.to_polynomial (Program.extent_min info d)))
                    P.one sel
                in
                let rank = List.length sel in
                (match Hashtbl.find_opt best a.array with
                | Some (r, _) when r >= rank -> ()
                | _ -> Hashtbl.replace best a.array (rank, footprint)))
        info.def.reads)
    stmts;
  let arrays =
    Hashtbl.fold (fun arr (_, fp) acc -> (arr, fp) :: acc) best []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  match arrays with
  | [] -> None
  | _ ->
      let total =
        List.fold_left (fun acc (_, fp) -> P.add acc fp) P.zero arrays
      in
      Some
        {
          program = p.Program.name;
          stmt = "inputs";
          technique = Trivial;
          formula = R.of_poly total;
          validity = region_validity any_s;
          valid = any_s;
          s_max = None;
          log =
            Printf.sprintf "input arrays: %s"
              (String.concat ", " (List.map fst arrays))
            :: [ "Q >= distinct input cells (each loaded at least once)" ];
        }

let classical_deepest ?budget p =
  let depth (i : Program.stmt_info) = List.length i.dims in
  (* The statement list is walked once and the stmt_info records are passed
     straight to the derivation - no per-statement [find_stmt] re-walk. *)
  let stmts = Program.statements p in
  let max_depth = List.fold_left (fun acc i -> max acc (depth i)) 0 stmts in
  (* Statements with the same dimensions and projection family share one
     LP solve (GEHD2's 8 deepest statements pose 3 distinct LPs). *)
  let solved = ref [] in
  let solve ~dims dimsets =
    let key = (dims, List.sort compare dimsets) in
    match List.assoc_opt key !solved with
    | Some sol -> sol
    | None ->
        let sol = Bl.classical ~dims dimsets in
        solved := (key, sol) :: !solved;
        sol
  in
  List.filter_map
    (fun (i : Program.stmt_info) ->
      if depth i = max_depth then classical_of_info ?budget ~solve p i
      else None)
    stmts

type outcome = { bounds : t list; degradation : string option }

let ladder ?(budget = Budget.unlimited) ~verify_params p =
  Engine_error.protect @@ fun () ->
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let collected () =
    match List.rev !notes with [] -> None | ns -> Some (String.concat "; " ns)
  in
  let attempt label f =
    match f () with
    | bounds -> bounds
    | exception Budget.Exhausted stage ->
        note "%s rung aborted (budget exhausted during %s)" label
          (Budget.stage_name stage);
        []
    | exception Engine_error.Error (Unsupported why) ->
        note "%s rung skipped (%s)" label why;
        []
    | exception Rat.Overflow ->
        note "%s rung skipped (exact arithmetic left 63-bit integers)" label;
        []
  in
  (* The patterns the hourglass rung verified, kept even if deriving their
     bounds later aborts: reports list exactly these. *)
  let verified = ref [] in
  let hg_bounds =
    attempt "hourglass" (fun () ->
        verified := Hourglass.detect_verified ~budget ~params:verify_params p;
        List.concat_map (hourglass ~budget p) !verified)
  in
  let classical_bounds =
    attempt "classical" (fun () -> classical_deepest ~budget p)
  in
  let bounds = hg_bounds @ classical_bounds in
  (* A rung finishing under the step caps may still have crossed the
     wall-clock deadline between two sparse checks; a timed-out analysis
     must not report success. *)
  Budget.check_deadline budget Budget.Derivation;
  let outcome =
    if bounds <> [] then { bounds; degradation = collected () }
    else
      match trivial p with
      | Some b ->
          note "degraded to the trivial input-footprint bound";
          { bounds = [ b ]; degradation = collected () }
      | None ->
          note "no bound derivable (no hourglass; Brascamp-Lieb exponent <= 1; no recognizable input array)";
          { bounds = []; degradation = collected () }
  in
  Ok (!verified, outcome)

let analyze_ladder ?budget ~verify_params p =
  Result.map snd (ladder ?budget ~verify_params p)

let eval b ~params ~s =
  let env x =
    if x = "S" then float_of_int s
    else if x = "sqrtS" then sqrt (float_of_int s)
    else
      match List.assoc_opt x params with
      | Some v -> float_of_int v
      | None -> raise Not_found
  in
  R.eval_float_env env b.formula

let optimize_split b ~param ~candidates ~params ~s =
  (* Tie-breaking contract (pinned by a regression test in test_derive):
     the *first* candidate attaining the maximum wins, so callers relying
     on reproducible splits pass candidates in ascending order.  Each
     evaluation is a microsecond-scale float pass, and a kernel's split
     range holds a few hundred candidates at most, so the search runs in
     process. *)
  List.fold_left
    (fun acc v ->
      let value = eval b ~params:((param, v) :: params) ~s in
      match acc with
      | Some (_, best) when best >= value -> acc
      | _ when value <= 0. -> acc
      | _ -> Some (v, value))
    None candidates

let applicable b ~params ~s =
  let env x =
    match List.assoc_opt x params with
    | Some v -> float_of_int v
    | None -> raise Not_found
  in
  let fs = float_of_int s in
  fs >= R.eval_float_env env b.valid.s_lo
  &&
  match b.valid.s_hi with
  | None -> true
  | Some limit -> fs <= R.eval_float_env env limit

let best ~params ~s bounds =
  List.fold_left
    (fun acc b ->
      if not (applicable b ~params ~s) then acc
      else
        let v = eval b ~params ~s in
        match acc with
        | Some (_, v') when v' >= v -> acc
        | _ -> Some (b, v))
    None bounds
  |> Option.map fst

type winner_range = { s_from : int; s_to : int; winner : t option }

(* The applicability edges of [bounds] inside [lo, hi]: s_hi evaluated
   at params, as the integers on both sides of it.  A bound whose edge is
   not a constant there contributes none. *)
let validity_edges ~params ~lo ~hi bounds =
  List.concat_map
    (fun (b : t) ->
      match b.valid.s_hi with
      | None -> []
      | Some limit -> (
          try
            let l =
              List.fold_left
                (fun f (x, v) -> R.subst x (P.of_int v) f)
                limit params
            in
            match R.as_poly l with
            | Some p when P.vars p = [] ->
                let m = Rat.floor (P.eval (fun _ -> Rat.zero) p) in
                List.filter (fun c -> c >= lo && c <= hi) [ m; m + 1 ]
            | _ -> []
          with Rat.Overflow -> []))
    bounds
  |> List.sort_uniq compare

let best_regions ~params ~lo ~hi bounds =
  if hi < lo || bounds = [] then []
  else begin
    let cache = Hashtbl.create 64 in
    let winner s =
      match Hashtbl.find_opt cache s with
      | Some w -> w
      | None ->
          let w = best ~params ~s bounds in
          Hashtbl.add cache s w;
          w
    in
    let same a b =
      match (a, b) with
      | None, None -> true
      | Some x, Some y -> x == y
      | _ -> false
    in
    (* Cut at every applicability edge, then refine each cut interval by
       bisection when its endpoints disagree.  A double switch strictly
       inside an interval with equal endpoint winners is not found. *)
    let cuts = validity_edges ~params ~lo ~hi bounds in
    let rec seg a b =
      if same (winner a) (winner b) then [ (a, b) ]
      else if b = a + 1 then [ (a, a); (b, b) ]
      else begin
        let m = (a + b) / 2 in
        seg a m @ seg (min (m + 1) b) b
      end
    in
    let rec walk a = function
      | [] -> seg a hi
      | c :: rest ->
          if c <= a then walk a rest
          else if c > hi then seg a hi
          else seg a (c - 1) @ walk c rest
    in
    let segs = walk lo (List.filter (fun c -> c > lo) cuts) in
    (* merge adjacent segments with the same winner *)
    List.fold_left
      (fun acc (a, b) ->
        let w = winner a in
        match acc with
        | { s_from; winner = w'; _ } :: tl when same w w' ->
            { s_from; s_to = b; winner = w } :: tl
        | _ -> { s_from = a; s_to = b; winner = w } :: acc)
      [] segs
    |> List.rev
  end

let pp fmt b =
  let tech =
    match b.technique with
    | Classical -> "classical"
    | Hourglass -> "hourglass"
    | Hourglass_small_s -> "hourglass (small cache)"
    | Trivial -> "trivial"
  in
  Format.fprintf fmt "[%s/%s, %s] Q >= %a  (%s)" b.program b.stmt tech R.pp
    b.formula b.validity
