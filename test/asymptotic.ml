(* Numeric Theta-equivalence checks between bound formulas.

   Two formulas are Theta-equivalent along a direction (a parametric curve
   through the parameter space, e.g. [M = 4t, N = t, S = t]) when their
   ratio converges to a finite non-zero constant as the scale grows.  The
   checker evaluates the ratio at geometrically increasing scales and
   tests stabilisation; it is how the tests pin the "same asymptotic
   shape as the paper" claims of Figure 4. *)

module R = Iolb_symbolic.Ratfun

(* A direction maps the scale [t] to concrete parameter values. *)
type direction = int -> (string * int) list

(* M = 4t, N = t, and S = 16 (fixed cache), S = t (the cache grows with
   the problem) or S = t^2 / 4 (it grows quadratically, M << S). *)
let square_small_cache t = [ ("M", 4 * t); ("N", t); ("S", 16) ]
let square_linear_cache t = [ ("M", 4 * t); ("N", t); ("S", t) ]
let square_large_cache t = [ ("M", 4 * t); ("N", t); ("S", t * t / 4) ]

let eval_at f params =
  let env x =
    match List.assoc_opt x params with
    | Some v -> float_of_int v
    | None ->
        if x = "sqrtS" then
          match List.assoc_opt "S" params with
          | Some s -> sqrt (float_of_int s)
          | None -> raise Not_found
        else raise Not_found
  in
  R.eval_float_env env f

(* [ratio_limit f g dir] estimates [lim f/g] along [dir]: it evaluates at
   the scales [64 * 2^k], k < 8, and returns the last ratio if the final
   steps agree within 5 %, or [None] if the ratio still drifts (different
   asymptotic orders) or is not finite and positive. *)
let ratio_limit f g dir =
  let tol = 0.05 in
  let ratios =
    List.init 8 (fun k ->
        let t = 64 * (1 lsl k) in
        let params = dir t in
        let fv = eval_at f params and gv = eval_at g params in
        if Float.is_finite fv && Float.is_finite gv && gv <> 0. then
          Some (fv /. gv)
        else None)
  in
  match List.rev ratios with
  | Some last :: Some prev :: Some prev2 :: _
    when Float.is_finite last && last > 0.
         && Float.abs (last -. prev) <= tol *. Float.abs last
         && Float.abs (prev -. prev2) <= 2. *. tol *. Float.abs last ->
      Some last
  | _ -> None

let theta_equivalent f g dir = ratio_limit f g dir <> None
