module Rat = Iolb_util.Rat
module P = Polynomial

exception Gave_up

(* Dense univariate polynomial, coefficient of x^i at index i; invariant:
   empty = zero, otherwise the top coefficient is non-zero. *)
type t = Rat.t array

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && Rat.is_zero a.(!n - 1) do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_coeffs l = normalize (Array.of_list l)

let of_polynomial ~var p =
  (match P.vars p with
  | [] -> ()
  | [ v ] when String.equal v var -> ()
  | _ -> raise Gave_up);
  of_coeffs
    (List.map
       (fun c ->
         match P.is_constant c with Some q -> q | None -> raise Gave_up)
       (P.as_univariate var p))

let degree p = Array.length p - 1
let is_zero p = Array.length p = 0

let eval p x =
  let acc = ref Rat.zero in
  for i = Array.length p - 1 downto 0 do
    acc := Rat.add (Rat.mul !acc x) p.(i)
  done;
  !acc

let derivative p =
  if Array.length p <= 1 then [||]
  else
    normalize
      (Array.init
         (Array.length p - 1)
         (fun i -> Rat.mul (Rat.of_int (i + 1)) p.(i + 1)))

(* Positive scaling to coprime integer coefficients (the primitive part).
   Keeps the remainder-sequence coefficients from exploding; signs are
   preserved, which is all Sturm's theorem cares about. *)
let content_normalize p =
  if is_zero p then p
  else begin
    let l =
      Array.fold_left
        (fun l c ->
          let d = Rat.den c in
          Rat.mul_exn (l / Rat.gcd_int l d) d)
        1 p
    in
    let ints = Array.map (fun c -> Rat.mul_exn (Rat.num c) (l / Rat.den c)) p in
    let g = Array.fold_left (fun g n -> Rat.gcd_int g n) 0 ints in
    Array.map (fun n -> Rat.of_int (n / g)) ints
  end

(* Remainder of p by q (deg q >= 0), by long division. *)
let rem p q =
  if is_zero q then invalid_arg "Sturm.rem: zero divisor";
  let dq = degree q in
  let lq = q.(dq) in
  let r = Array.copy p in
  let dr = ref (degree (normalize r)) in
  let r = Array.sub r 0 (!dr + 1) in
  let r = ref r in
  while degree !r >= dq && not (is_zero !r) do
    let d = degree !r in
    let f = Rat.div !r.(d) lq in
    let nr = Array.copy !r in
    for i = 0 to dq do
      nr.(d - dq + i) <- Rat.sub nr.(d - dq + i) (Rat.mul f q.(i))
    done;
    (* the top term cancels exactly; normalise to expose the new degree *)
    nr.(d) <- Rat.zero;
    r := normalize nr
  done;
  !r

(* The (generalised) Sturm sequence p, p', -rem(p, p'), ...: counts
   *distinct* real roots even for non-squarefree p, because the chain
   bottoms out at gcd(p, p'). *)
let chain p =
  let p0 = content_normalize p in
  let p1 = content_normalize (derivative p) in
  if is_zero p1 then [ p0 ]
  else begin
    let rec go acc a b =
      let r = rem a b in
      if is_zero r then List.rev (b :: acc)
      else begin
        let nr = content_normalize (Array.map Rat.neg r) in
        go (b :: acc) b nr
      end
    in
    go [ p0 ] p0 p1
  end

let sign_variations ch x =
  let signs =
    List.filter_map
      (fun p ->
        let s = Rat.sign (eval p x) in
        if s = 0 then None else Some s)
      ch
  in
  let rec count = function
    | a :: (b :: _ as tl) -> (if a <> b then 1 else 0) + count tl
    | _ -> 0
  in
  count signs

(* A point near [x] (at [x] itself when allowed) where p does not vanish:
   p has at most [deg] roots, so among deg+1 distinct probes one works. *)
let pick_non_root p ~x ~step =
  let d = max 1 (degree p) in
  let rec go k =
    if k > d + 1 then raise Gave_up
    else begin
      let c = Rat.add x (Rat.mul (Rat.of_int k) step) in
      if Rat.is_zero (eval p c) then go (k + 1) else c
    end
  in
  if Rat.is_zero (eval p x) then go 1 else x

let isolate_roots p ~lo ~hi =
  if is_zero p then raise Gave_up;
  if Rat.compare lo hi > 0 then invalid_arg "Sturm.isolate_roots: lo > hi";
  if degree p <= 0 then []
  else begin
    let d = degree p in
    let frac = Rat.make 1 (d + 2) in
    (* Widen so roots sitting exactly on lo/hi land inside the probed
       half-open interval (a, b]. *)
    let a0 = pick_non_root p ~x:lo ~step:(Rat.neg frac) in
    let b0 = pick_non_root p ~x:hi ~step:frac in
    let ch = chain p in
    let var x = sign_variations ch x in
    let rec bisect depth a va b vb =
      let n = va - vb in
      if n = 0 then []
      else if depth > 64 then raise Gave_up
      else if n = 1 && Rat.compare (Rat.sub b a) Rat.one <= 0 then [ (a, b) ]
      else begin
        let mid = Rat.mul Rat.half (Rat.add a b) in
        let c =
          pick_non_root p ~x:mid
            ~step:(Rat.mul (Rat.sub b a) (Rat.make 1 (2 * (d + 2))))
        in
        let vc = var c in
        bisect (depth + 1) a va c vc @ bisect (depth + 1) c vc b vb
      end
    in
    bisect 0 a0 (var a0) b0 (var b0)
  end
