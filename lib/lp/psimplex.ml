module Rat = Iolb_util.Rat
module Budget = Iolb_util.Budget
module T = Simplex.Tableau

type pcost = { const : Rat.t; slope : Rat.t }

let pcost ?(slope = Rat.zero) const = { const; slope }
let pc ?(slope = 0) const = { const = Rat.of_int const; slope = Rat.of_int slope }

type region = {
  lo : Rat.t;
  hi : Rat.t option;
  const : Rat.t;
  slope : Rat.t;
  solution : Rat.t array;
  basis : int array;
  pivots : int;
}

type outcome =
  | Regions of region list
  | Unbounded_at of Rat.t
  | Infeasible

let value_at r theta = Rat.add r.const (Rat.mul r.slope theta)

(* The sweep keeps two reduced-cost rows: the tableau's own objective row
   holds the constant part c of the parametric cost c + theta * s, and a
   caller-side auxiliary row holds the slope part s, updated after every
   pivot with {!Simplex.Tableau.eliminate}.  The reduced cost of column j
   at parameter theta is then the affine form
   d_j(theta) = obj_j + theta * slope_j, exactly. *)
type sweep = {
  t : T.t;
  slope : Rat.t array;
  budget : Budget.t;
  mutable pivots : int;
}

let sweep_pivot w ~row ~col =
  Budget.checkpoint w.budget Budget.Derivation;
  T.pivot w.t ~row ~col;
  T.eliminate w.t ~row ~col w.slope;
  w.pivots <- w.pivots + 1

(* Optimise for theta^+, i.e. lexicographically for the perturbed
   objective c + (theta + epsilon) * s: a column enters iff its reduced
   cost is negative at theta, or zero at theta with a negative slope
   (about to turn negative just above theta).  With the tableau's Bland
   loop (lowest entering index, lowest-basic-index min-ratio row) this is
   Bland's rule for the perturbed objective over the ordered field
   Q(epsilon), so no cycling. *)
let optimise_at w ~theta =
  let t = w.t in
  let neg_theta = Rat.neg theta in
  let enters j =
    j < t.T.art_start
    &&
    let c = Rat.sign (Rat.sub_mul t.T.obj.(j) neg_theta w.slope.(j)) in
    c < 0 || (c = 0 && Rat.sign w.slope.(j) < 0)
  in
  T.optimise t ~enters ~pivot:(sweep_pivot w)

(* First parameter value above [theta] at which the current basis stops
   being optimal: the smallest root of a reduced-cost form d_j that is
   positive at theta but decreasing (slope_j < 0).  [None] = optimal for
   every theta' >= theta. *)
let next_breakpoint w ~theta =
  let t = w.t in
  let best = ref None in
  for j = 0 to t.T.art_start - 1 do
    let s = w.slope.(j) in
    if Rat.sign s < 0 then begin
      let root = Rat.neg (Rat.div t.T.obj.(j) s) in
      if Rat.compare root theta > 0 then
        match !best with
        | Some b when Rat.compare b root <= 0 -> ()
        | _ -> best := Some root
    end
  done;
  !best

let minimize ?(budget = Budget.unlimited) ~(cost : pcost array) ~lo ?hi
    constraints =
  (match hi with
  | Some h when Rat.compare lo h > 0 ->
      invalid_arg "Psimplex.minimize: empty parameter interval"
  | _ -> ());
  match T.phase1 ~nvars:(Array.length cost) constraints with
  | None -> Infeasible
  | Some t ->
    (* The vertex moves with theta but the feasible set does not (the rhs
       is parameter-free), so one phase 1 serves the whole sweep. *)
    T.install_cost t ~cost:(Array.map (fun (c : pcost) -> c.const) cost);
    let slope =
      T.reduce_cost_row t ~cost:(Array.map (fun (c : pcost) -> c.slope) cost)
    in
    let w = { t; slope; budget; pivots = 0 } in
    let rec sweep theta acc =
      match optimise_at w ~theta with
      | Error `Unbounded -> Unbounded_at theta
      | Ok () ->
          let const = T.value t in
          let slope = Rat.neg w.slope.(t.T.ncols) in
          let solution = T.solution t in
          let basis = Array.copy t.T.basis in
          let pivots = w.pivots in
          w.pivots <- 0;
          let break = next_breakpoint w ~theta in
          let closes b =
            match hi with None -> false | Some h -> Rat.compare b h >= 0
          in
          let finish hi =
            Regions
              (List.rev
                 ({ lo = theta; hi; const; slope; solution; basis; pivots }
                 :: acc))
          in
          (match break with
          | None -> finish hi
          | Some b when closes b -> finish hi
          | Some b ->
              sweep b
                ({ lo = theta; hi = Some b; const; slope; solution; basis;
                   pivots }
                :: acc))
    in
    sweep lo []
