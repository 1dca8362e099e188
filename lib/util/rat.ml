type t = { num : int; den : int }

exception Overflow
exception Division_by_zero

(* Overflow-checked native integer arithmetic.  The checks are branchy but
   the rationals in this code base stay tiny, so clarity wins over speed. *)

let add_exn a b =
  let r = a + b in
  (* Overflow iff operands share a sign and the result sign differs. *)
  if (a >= 0) = (b >= 0) && (r >= 0) <> (a >= 0) then raise Overflow;
  r

let mul_exn a b =
  if a = 0 || b = 0 then 0
  else
    let r = a * b in
    if r / b <> a || (a = min_int && b = -1) then raise Overflow;
    r

let neg_exn a = if a = min_int then raise Overflow else -a

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let gcd a b = gcd (Stdlib.abs a) (Stdlib.abs b)
let gcd_int = gcd

let make num den =
  if den = 0 then raise Division_by_zero;
  let num, den = if den < 0 then (neg_exn num, neg_exn den) else (num, den) in
  let g = gcd num den in
  if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)
let two = of_int 2
let half = make 1 2
let num q = q.num
let den q = q.den
let is_integer q = q.den = 1

let to_int q =
  if q.den <> 1 then invalid_arg "Rat.to_int: not an integer";
  q.num

let to_float q = float_of_int q.num /. float_of_int q.den

let add a b =
  (* Reduce cross terms first to keep intermediates small. *)
  let g = gcd a.den b.den in
  let da = a.den / g and db = b.den / g in
  let n = add_exn (mul_exn a.num db) (mul_exn b.num da) in
  let d = mul_exn a.den db in
  make n d

let neg q = { q with num = neg_exn q.num }
let sub a b = add a (neg b)

(* [sub a (mul f p)] fused: the product stays in registers, so only the
   result is allocated (none when [a] comes back unchanged).  Each checked
   operation is the one [sub]/[mul] would run, so both raise {!Overflow}
   on the same operands. *)
let sub_mul a f p =
  if f.num = 0 || p.num = 0 then a
  else
    let g1 = gcd f.num p.den and g2 = gcd p.num f.den in
    let qn = mul_exn (f.num / g1) (p.num / g2)
    and qd = mul_exn (f.den / g2) (p.den / g1) in
    let g = gcd a.den qd in
    let da = a.den / g and db = qd / g in
    let n = add_exn (mul_exn a.num db) (mul_exn (neg_exn qn) da) in
    let d = mul_exn a.den db in
    if n = 0 then zero else make n d

let mul a b =
  let g1 = gcd a.num b.den and g2 = gcd b.num a.den in
  let g1 = if g1 = 0 then 1 else g1 and g2 = if g2 = 0 then 1 else g2 in
  make (mul_exn (a.num / g1) (b.num / g2)) (mul_exn (a.den / g2) (b.den / g1))

let inv q = if q.num = 0 then raise Division_by_zero else make q.den q.num
let div a b = mul a (inv b)
let abs q = { q with num = Stdlib.abs q.num }
let equal a b = a.num = b.num && a.den = b.den

let compare a b =
  (* Exact comparison via cross multiplication (overflow-checked). *)
  Stdlib.compare (mul_exn a.num b.den) (mul_exn b.num a.den)

let sign q = Stdlib.compare q.num 0
let is_zero q = q.num = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let floor q =
  if q.num >= 0 then q.num / q.den
  else
    let d = q.num / q.den in
    if d * q.den = q.num then d else d - 1

let ceil q = -floor (neg q)

let pow q n =
  let rec go acc base n =
    if n = 0 then acc
    else if n land 1 = 1 then go (mul acc base) (mul base base) (n asr 1)
    else go acc (mul base base) (n asr 1)
  in
  if n >= 0 then go one q n else go one (inv q) (-n)

let pp fmt q =
  if q.den = 1 then Format.fprintf fmt "%d" q.num
  else Format.fprintf fmt "%d/%d" q.num q.den

let to_string q = Format.asprintf "%a" pp q

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
