module Rat = Iolb_util.Rat
module Simplex = Iolb_lp.Simplex

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

(* The regimes of f(theta) = min (alpha + theta * beta) . s over the
   admissibility polytope, theta in [1/2, 1] (W = K^theta in the regime
   where the hourglass matters).  f is the lower envelope of one line per
   vertex, so it is concave and piecewise linear, and plain solves
   certify it.  Given the vertices optimal at both ends of [lo, hi]: if
   they lie on one line, f is that line on all of [lo, hi] (f is at most
   the line, and by concavity at least its chord).  Otherwise solve where
   the two lines cross: if the optimum there meets them, they are f on
   [lo, hi]; if not, the new vertex splits [lo, hi] in two, and the
   halves' lines are joined.  A crossing at an end of [lo, hi] makes the
   other end's line optimal throughout.  One phase 1 serves every solve,
   and the polytope is bounded (0 <= s_j <= 1), so every solve is
   optimal. *)
let exponent_regions ~dims projs =
  if projs = [] then None
  else
    let vec f = Array.of_list (List.map f projs) in
    let alphas = vec (fun p -> p.alpha)
    and betas = vec (fun p -> p.beta)
    and gammas = vec (fun p -> p.gamma) in
    Simplex.minimizer ~nvars:(List.length projs)
      (admissibility_constraints ~dims projs)
    |> Option.map (fun solve ->
           let solves = ref [] in
           let at theta =
             let cost =
               Array.mapi (fun j a -> Rat.add a (Rat.mul theta betas.(j))) alphas
             in
             match solve ~cost with
             | Simplex.Optimal { solution; pivots; _ } ->
                 solves := (theta, pivots) :: !solves;
                 solution_of_vertex projs ~alphas ~betas ~gammas solution
             | Simplex.Unbounded | Simplex.Infeasible -> assert false
           in
           let value s theta = Rat.add s.k_exponent (Rat.mul theta s.w_exponent) in
           let crossing a b =
             Rat.div
               (Rat.sub b.k_exponent a.k_exponent)
               (Rat.sub a.w_exponent b.w_exponent)
           in
           let same_line a b =
             Rat.equal a.k_exponent b.k_exponent
             && Rat.equal a.w_exponent b.w_exponent
           in
           (* The lines of f on [lo, hi] from left to right, each optimal on
              a subinterval of positive length, given [l] optimal at [lo]
              and [r] at [hi].  [l] or [r] is left out when it is optimal at
              its end alone. *)
           let rec lines lo l hi r =
             if same_line l r then [ l ]
             else
               let t = crossing l r in
               if Rat.equal t lo then [ r ]
               else if Rat.equal t hi then [ l ]
               else
                 let m = at t in
                 if Rat.equal (value m t) (value l t) then [ l; r ]
                 else
                   (* m is below both lines at t.  The halves' lines at t
                      are one line where f is straight through t, which
                      both halves list, and two where t is a kink of f
                      (m may then be optimal at t alone, listed by
                      neither half). *)
                   let left = lines lo l t m in
                   let right = lines t m hi r in
                   match (List.rev left, right) with
                   | x :: _, y :: right' when same_line x y -> left @ right'
                   | _ -> left @ right
           in
           let rec regions lo = function
             | [] -> []
             | [ s ] -> [ (lo, Rat.one, s) ]
             | s :: (s' :: _ as tl) ->
                 let t = crossing s s' in
                 (lo, t, s) :: regions t tl
           in
           (* theta = 1/2 first: each solve warm-starts from the last *)
           let half = at Rat.half in
           regions Rat.half (lines Rat.half half Rat.one (at Rat.one))
           |> List.map (fun (lo, hi, s) ->
                  let inside (theta, _) =
                    Rat.compare lo theta <= 0
                    && (Rat.compare theta hi < 0 || Rat.equal hi Rat.one)
                  in
                  {
                    theta_lo = lo;
                    theta_hi = hi;
                    region_sol = s;
                    region_pivots =
                      List.fold_left
                        (fun n ((_, p) as solve) -> if inside solve then n + p else n)
                        0 !solves;
                  }))

(* A fresh solve of [exponent_regions]' objective pinned at one theta;
   the differential reference for it. *)
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
