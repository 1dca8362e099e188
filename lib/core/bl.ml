module Rat = Iolb_util.Rat
module Simplex = Iolb_lp.Simplex
module Psimplex = Iolb_lp.Psimplex

type bounded_proj = {
  proj_dims : string list;
  alpha : Rat.t;
  beta : Rat.t;
  gamma : Rat.t;
  label : string;
}

type solution = {
  k_exponent : Rat.t;
  w_exponent : Rat.t;
  two_exponent : Rat.t;
  exponents : (string * Rat.t) list;
}

let proj ?(beta = Rat.zero) ?(gamma = Rat.zero) ~alpha ~label proj_dims =
  { proj_dims; alpha; beta; gamma; label }

let subsets dims =
  List.fold_left
    (fun acc d -> acc @ List.map (fun s -> d :: s) acc)
    [ [] ] dims

(* The admissibility polytope: for every non-empty subset H of dims,
   sum_j s_j * |dims_j /\ H| >= |H|, and 0 <= s_j <= 1. *)
let admissibility_constraints ~dims projs =
  let n = List.length projs in
  let cover =
    List.filter_map
      (fun h ->
        if h = [] then None
        else
          let coeffs =
            Array.of_list
              (List.map
                 (fun p ->
                   Rat.of_int
                     (List.length (List.filter (fun d -> List.mem d h) p.proj_dims)))
                 projs)
          in
          Some
            Simplex.{ coeffs; rel = Ge; rhs = Rat.of_int (List.length h) })
      (subsets dims)
  in
  let caps =
    List.mapi
      (fun j _ ->
        let coeffs = Array.make n Rat.zero in
        coeffs.(j) <- Rat.one;
        Simplex.{ coeffs; rel = Le; rhs = Rat.one })
      projs
  in
  cover @ caps

let dot weights solution =
  let acc = ref Rat.zero in
  Array.iteri (fun j s -> acc := Rat.add !acc (Rat.mul weights.(j) s)) solution;
  !acc

(* Lexicographic minimisation: solve each stage, then pin its optimum as an
   equality constraint for the next stage. *)
let lex_minimize ~constraints stages =
  let rec go constraints = function
    | [] -> None
    | [ cost ] -> (
        match Simplex.minimize ~cost constraints with
        | Simplex.Optimal { solution; _ } -> Some solution
        | Simplex.Infeasible | Simplex.Unbounded -> None)
    | cost :: rest -> (
        match Simplex.minimize ~cost constraints with
        | Simplex.Optimal { value; _ } ->
            let pin = Simplex.{ coeffs = cost; rel = Le; rhs = value } in
            go (pin :: constraints) rest
        | Simplex.Infeasible | Simplex.Unbounded -> None)
  in
  go constraints stages

type exponent_region = {
  theta_lo : Rat.t;
  theta_hi : Rat.t;
  region_sol : solution;
  region_pivots : int;
}

let solution_of_vertex projs ~alphas ~betas ~gammas s =
  {
    k_exponent = dot alphas s;
    w_exponent = dot betas s;
    two_exponent = dot gammas s;
    exponents =
      List.mapi (fun j p -> (p.label, s.(j))) projs
      |> List.filter (fun (_, e) -> not (Rat.is_zero e));
  }

(* One parametric sweep of min (alpha + theta * beta) . s over the
   admissibility polytope, theta in [1/2, 1] (W = K^theta in the regime
   where the hourglass matters): the full regime decomposition of the
   K-side exponent, instead of endpoint solves.  The polytope is bounded
   (0 <= s_j <= 1), so a feasible system never sweeps unbounded. *)
let exponent_regions ?budget ~dims projs =
  if projs = [] then None
  else
    let constraints = admissibility_constraints ~dims projs in
    let vec f = Array.of_list (List.map f projs) in
    let alphas = vec (fun p -> p.alpha)
    and betas = vec (fun p -> p.beta)
    and gammas = vec (fun p -> p.gamma) in
    let cost = Array.mapi (fun j a -> Psimplex.pcost a ~slope:betas.(j)) alphas in
    match
      Psimplex.minimize ?budget ~cost ~lo:Rat.half ~hi:Rat.one constraints
    with
    | Psimplex.Infeasible | Psimplex.Unbounded_at _ -> None
    | Psimplex.Regions rs ->
        Some
          (List.map
             (fun (r : Psimplex.region) ->
               {
                 theta_lo = r.Psimplex.lo;
                 theta_hi =
                   (match r.Psimplex.hi with Some h -> h | None -> Rat.one);
                 region_sol =
                   solution_of_vertex projs ~alphas ~betas ~gammas
                     r.Psimplex.solution;
                 region_pivots = r.Psimplex.pivots;
               })
             rs)

(* Plain (non-parametric) solve of the sweep's objective pinned at one
   theta; the differential reference for [exponent_regions]. *)
let exponent_at ~dims projs ~theta =
  if projs = [] then None
  else
    let constraints = admissibility_constraints ~dims projs in
    let cost =
      Array.of_list
        (List.map (fun p -> Rat.add p.alpha (Rat.mul theta p.beta)) projs)
    in
    match Simplex.minimize ~cost constraints with
    | Simplex.Optimal { value; _ } -> Some value
    | Simplex.Infeasible | Simplex.Unbounded -> None

let optimize ~dims projs =
  if projs = [] then None
  else
    let vec f = Array.of_list (List.map f projs) in
    let alphas = vec (fun p -> p.alpha)
    and betas = vec (fun p -> p.beta)
    and gammas = vec (fun p -> p.gamma) in
    (* The K-side exponent rho_K + theta * rho_W at theta = 1/2, then at
       theta = 1, then the constant's exponent rho_2: three plain solves,
       each pinning the optimum of the one before. *)
    let stage theta =
      Array.mapi (fun j a -> Rat.add a (Rat.mul theta betas.(j))) alphas
    in
    lex_minimize
      ~constraints:(admissibility_constraints ~dims projs)
      [ stage Rat.half; stage Rat.one; gammas ]
    |> Option.map (solution_of_vertex projs ~alphas ~betas ~gammas)

(* With beta = gamma = 0, [optimize]'s theta = 1 stage re-poses the
   theta = 1/2 optimum and its rho_2 stage minimises zero: one solve of
   rho_K gives the same optimum. *)
let classical ~dims dimsets =
  let projs =
    List.mapi
      (fun j ds ->
        proj ~alpha:Rat.one ~label:(Printf.sprintf "phi%d_{%s}" j (String.concat "," ds)) ds)
      dimsets
  in
  if projs = [] then None
  else
    let ones = Array.make (List.length projs) Rat.one
    and zeros = Array.make (List.length projs) Rat.zero in
    match Simplex.minimize ~cost:ones (admissibility_constraints ~dims projs) with
    | Simplex.Optimal { solution; _ } ->
        Some
          (solution_of_vertex projs ~alphas:ones ~betas:zeros ~gammas:zeros
             solution)
    | Simplex.Infeasible | Simplex.Unbounded -> None

let pp_exponent_region fmt r =
  Format.fprintf fmt "theta in [%a, %a]: K^(%a + %a*theta)" Rat.pp r.theta_lo
    Rat.pp r.theta_hi Rat.pp r.region_sol.k_exponent Rat.pp
    r.region_sol.w_exponent

let pp_solution fmt s =
  Format.fprintf fmt "K^%a * W^%a * 2^%a via {%a}" Rat.pp s.k_exponent Rat.pp
    s.w_exponent Rat.pp s.two_exponent
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       (fun fmt (l, e) -> Format.fprintf fmt "%s^%a" l Rat.pp e))
    s.exponents
