module Rat = Iolb_util.Rat

type relation = Le | Ge | Eq

type constr = { coeffs : Rat.t array; rel : relation; rhs : Rat.t }

type outcome =
  | Optimal of { value : Rat.t; solution : Rat.t array; pivots : int }
  | Unbounded
  | Infeasible

let constr coeffs rel rhs =
  {
    coeffs = Array.of_list (List.map Rat.of_int coeffs);
    rel;
    rhs = Rat.of_int rhs;
  }

(* Dense tableau over {!Rat}.  Every row, the cost row included, has
   [ncols + 1] entries: one per column, then the right-hand side.  The
   cost row's last entry is the negated objective value, so one
   elimination step updates both. *)
type tableau = {
  ncols : int;  (* structural + slack + artificial columns *)
  nvars : int;  (* structural columns *)
  art_start : int;  (* first artificial column *)
  rows : Rat.t array array;
  obj : Rat.t array;  (* the objective's reduced-cost row *)
  basis : int array;  (* basis.(i) = column basic in row i *)
}

let sub_row dst f src =
  for j = 0 to Array.length dst - 1 do
    dst.(j) <- Rat.sub_mul dst.(j) f src.(j)
  done

(* Eliminate column [col] from row [r] against the normalised pivot
   row [row]. *)
let eliminate t ~row ~col r =
  let f = r.(col) in
  if not (Rat.is_zero f) then sub_row r f t.rows.(row)

let pivot t ~row ~col =
  let prow = t.rows.(row) in
  (* Most pivots of the Brascamp-Lieb LPs (about 60 %) are 1: nothing
     to normalise. *)
  if not (Rat.equal prow.(col) Rat.one) then begin
    let inv = Rat.inv prow.(col) in
    Array.iteri
      (fun j x -> if not (Rat.is_zero x) then prow.(j) <- Rat.mul x inv)
      prow
  end;
  Array.iteri (fun i r -> if i <> row then eliminate t ~row ~col r) t.rows;
  eliminate t ~row ~col t.obj;
  t.basis.(row) <- col

(* Lexicographic min-ratio test: among rows with a positive entry in
   [col], the smallest rhs/entry ratio, ties broken towards the lowest
   basic index (the Bland half that guarantees termination). *)
let choose_leaving t ~col =
  let leaving = ref (-1) and best = ref Rat.zero in
  Array.iteri
    (fun i r ->
      if Rat.sign r.(col) > 0 then begin
        let ratio = Rat.div r.(t.ncols) r.(col) in
        let cmp = if !leaving < 0 then -1 else Rat.compare ratio !best in
        if cmp < 0 || (cmp = 0 && t.basis.(i) < t.basis.(!leaving)) then begin
          leaving := i;
          best := ratio
        end
      end)
    t.rows;
  if !leaving < 0 then None else Some !leaving

(* Bland's rule to optimality over the columns below [limit]: the lowest
   such column with a negative reduced cost enters, [choose_leaving]
   picks the row.  Returns the number of pivots made. *)
let optimise t ~limit =
  let rec entering j =
    if j = limit then None
    else if Rat.sign t.obj.(j) < 0 then Some j
    else entering (j + 1)
  in
  let rec loop pivots =
    match entering 0 with
    | None -> Ok pivots
    | Some col -> (
        match choose_leaving t ~col with
        | None -> Error `Unbounded
        | Some row ->
            pivot t ~row ~col;
            loop (pivots + 1))
  in
  loop 0

(* Slack and artificial columns, rows normalised to a non-negative rhs
   so the artificials start feasible, and the phase-1 objective (the sum
   of the artificials) priced out w.r.t. the starting basis. *)
let setup ~nvars constraints =
  List.iter
    (fun c ->
      if Array.length c.coeffs <> nvars then
        invalid_arg "Simplex.minimize: constraint dimension mismatch")
    constraints;
  let constraints =
    Array.of_list
      (List.map
         (fun (c : constr) ->
           if Rat.sign c.rhs < 0 then
             {
               coeffs = Array.map Rat.neg c.coeffs;
               rhs = Rat.neg c.rhs;
               rel = (match c.rel with Le -> Ge | Ge -> Le | Eq -> Eq);
             }
           else c)
         constraints)
  in
  let count p = Array.fold_left (fun n c -> if p c.rel then n + 1 else n) 0 in
  let n_slack = count (fun r -> r <> Eq) constraints in
  (* Every Ge and Eq row needs an artificial; Le rows start basic in
     their slack. *)
  let n_art = count (fun r -> r <> Le) constraints in
  let art_start = nvars + n_slack in
  let ncols = art_start + n_art in
  let basis = Array.make (Array.length constraints) (-1) in
  let slack_idx = ref nvars and art_idx = ref art_start in
  let next r =
    let j = !r in
    incr r;
    j
  in
  let rows =
    Array.mapi
      (fun i c ->
        let r = Array.make (ncols + 1) Rat.zero in
        Array.blit c.coeffs 0 r 0 nvars;
        r.(ncols) <- c.rhs;
        (match c.rel with
        | Le ->
            let s = next slack_idx in
            r.(s) <- Rat.one;
            basis.(i) <- s
        | Ge ->
            r.(next slack_idx) <- Rat.minus_one;
            let a = next art_idx in
            r.(a) <- Rat.one;
            basis.(i) <- a
        | Eq ->
            let a = next art_idx in
            r.(a) <- Rat.one;
            basis.(i) <- a);
        r)
      constraints
  in
  let obj =
    Array.init (ncols + 1) (fun j ->
        if j >= art_start && j < ncols then Rat.one else Rat.zero)
  in
  Array.iteri
    (fun i r -> if basis.(i) >= art_start then sub_row obj Rat.one r)
    rows;
  { ncols; nvars; art_start; rows; obj; basis }

(* Phase 1 to optimality; [None] when the constraints are infeasible.  On
   feasibility, any artificial still basic (at zero) is driven out where
   possible; a row whose artificial cannot be driven out is redundant and
   harmless as long as artificials never re-enter (phase 2 optimises over
   the columns below [art_start] only). *)
let phase1 ~nvars constraints =
  let t = setup ~nvars constraints in
  (match optimise t ~limit:t.ncols with
  | Error `Unbounded ->
      (* Phase-1 objective is bounded below by 0; unreachable. *)
      assert false
  | Ok _ -> ());
  if Rat.sign t.obj.(t.ncols) < 0 then None
  else begin
    Array.iteri
      (fun i r ->
        if t.basis.(i) >= t.art_start then
          let rec drive j =
            if j < t.art_start then
              if Rat.is_zero r.(j) then drive (j + 1)
              else pivot t ~row:i ~col:j
          in
          drive 0)
      t.rows;
    Some t
  end

(* [cost] (length nvars, zero over slack and artificial columns) as the
   objective row, reduced w.r.t. the current basis. *)
let install_cost t ~cost =
  Array.fill t.obj 0 (t.ncols + 1) Rat.zero;
  Array.blit cost 0 t.obj 0 t.nvars;
  Array.iteri
    (fun i b ->
      if b < t.nvars && not (Rat.is_zero cost.(b)) then
        sub_row t.obj cost.(b) t.rows.(i))
    t.basis

let solution t =
  let solution = Array.make t.nvars Rat.zero in
  Array.iteri
    (fun i b -> if b < t.nvars then solution.(b) <- t.rows.(i).(t.ncols))
    t.basis;
  solution

let minimizer ~nvars constraints =
  Option.map
    (fun t ~cost ->
      if Array.length cost <> nvars then
        invalid_arg "Simplex.minimizer: cost dimension mismatch";
      install_cost t ~cost;
      match optimise t ~limit:t.art_start with
      | Error `Unbounded -> Unbounded
      | Ok pivots ->
          Optimal
            { value = Rat.neg t.obj.(t.ncols); solution = solution t; pivots })
    (phase1 ~nvars constraints)

let minimize ~cost constraints =
  match minimizer ~nvars:(Array.length cost) constraints with
  | None -> Infeasible
  | Some solve -> solve ~cost
