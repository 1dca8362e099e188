(* Exact rational arithmetic: field laws, canonical form, ordering. *)

module Rat = Iolb_util.Rat

let rat_gen =
  QCheck2.Gen.map2
    (fun n d -> Rat.make n (if d = 0 then 1 else d))
    (QCheck2.Gen.int_range (-1000) 1000)
    (QCheck2.Gen.int_range (-50) 50)

let rat = (rat_gen, Rat.to_string)

let prop name ?(count = 500) gen f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print:(snd gen) (fst gen) f)

let prop2 name ?(count = 500) f =
  let g = QCheck2.Gen.pair rat_gen rat_gen in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count
       ~print:(fun (a, b) -> Rat.to_string a ^ ", " ^ Rat.to_string b)
       g f)

let prop3 name ?(count = 500) f =
  let g = QCheck2.Gen.triple rat_gen rat_gen rat_gen in
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count g f)

(* [Rat.sub_mul] against the composition it fuses: the same value, or
   [Overflow] from both. *)
let sub_mul_agrees (a, f, p) =
  let outcome g = match g () with v -> Some v | exception Rat.Overflow -> None in
  match
    ( outcome (fun () -> Rat.sub_mul a f p),
      outcome (fun () -> Rat.sub a (Rat.mul f p)) )
  with
  | Some x, Some y -> Rat.equal x y
  | None, None -> true
  | _ -> false

(* Operands near the ends of the int range, where the checked products
   and sums overflow. *)
let big_rat_gen =
  let open QCheck2.Gen in
  let part =
    oneof
      [
        map (fun k -> max_int - k) (int_range 0 1000);
        map (fun k -> min_int + 1 + k) (int_range 0 1000);
        map (fun k -> (1 lsl 31) + k) (int_range (-1000) 1000);
        map (fun k -> (1 lsl 61) + k) (int_range (-1000) 1000);
        int_range (-1000) 1000;
      ]
  in
  map2 (fun n d -> Rat.make n (if d = 0 then 1 else abs d)) part part

let sub_mul_boundary () =
  (* 1/2 - 2^61 * 1 = (1 - 2^62)/2: the scaled product is min_int, which
     fits, as it does in [sub a (mul f p)]. *)
  let f = Rat.of_int (1 lsl 61) in
  Alcotest.(check string) "product at min_int fits"
    (Rat.to_string (Rat.make (1 - (1 lsl 62)) 2))
    (Rat.to_string (Rat.sub_mul Rat.half f Rat.one));
  Alcotest.(check bool) "one past it overflows" true
    (sub_mul_agrees (Rat.neg Rat.half, f, Rat.one)
    && match Rat.sub_mul (Rat.neg Rat.half) f Rat.one with
       | _ -> false
       | exception Rat.Overflow -> true);
  Alcotest.(check bool) "zero factor returns a" true
    (Rat.sub_mul Rat.half Rat.zero (Rat.of_int max_int) == Rat.half)

let unit_tests () =
  Alcotest.(check bool) "1/2 + 1/2 = 1" true Rat.(equal (add half half) one);
  Alcotest.(check bool) "2/4 canonical" true Rat.(equal (make 2 4) half);
  Alcotest.(check bool) "-1/-2 canonical" true Rat.(equal (make (-1) (-2)) half);
  Alcotest.(check int) "num" 1 (Rat.num (Rat.make 2 4));
  Alcotest.(check int) "den" 2 (Rat.den (Rat.make 2 4));
  Alcotest.(check int) "floor 7/2" 3 (Rat.floor (Rat.make 7 2));
  Alcotest.(check int) "floor -7/2" (-4) (Rat.floor (Rat.make (-7) 2));
  Alcotest.(check int) "ceil 7/2" 4 (Rat.ceil (Rat.make 7 2));
  Alcotest.(check int) "ceil -7/2" (-3) (Rat.ceil (Rat.make (-7) 2));
  Alcotest.(check bool) "pow" true
    Rat.(equal (pow (make 2 3) 3) (make 8 27));
  Alcotest.(check bool) "pow negative" true
    Rat.(equal (pow (make 2 3) (-2)) (make 9 4));
  Alcotest.(check bool) "div by zero raises" true
    (try
       ignore (Rat.div Rat.one Rat.zero);
       false
     with Rat.Division_by_zero -> true)

let suite =
  [
    Alcotest.test_case "unit identities" `Quick unit_tests;
    prop2 "addition commutes" (fun (a, b) -> Rat.(equal (add a b) (add b a)));
    prop2 "multiplication commutes" (fun (a, b) ->
        Rat.(equal (mul a b) (mul b a)));
    prop3 "addition associates" (fun (a, b, c) ->
        Rat.(equal (add a (add b c)) (add (add a b) c)));
    prop3 "multiplication distributes" (fun (a, b, c) ->
        Rat.(equal (mul a (add b c)) (add (mul a b) (mul a c))));
    prop "negation is involutive" rat (fun a -> Rat.(equal (neg (neg a)) a));
    prop "sub self is zero" rat (fun a -> Rat.(is_zero (sub a a)));
    prop "inverse multiplies to one" rat (fun a ->
        Rat.is_zero a || Rat.(equal (mul a (inv a)) one));
    prop "canonical: gcd(num, den) = 1" rat (fun a ->
        let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
        Rat.den a > 0 && gcd (abs (Rat.num a)) (Rat.den a) <= 1);
    prop2 "compare consistent with float order" (fun (a, b) ->
        let c = Rat.compare a b in
        let fc = Float.compare (Rat.to_float a) (Rat.to_float b) in
        fc = 0 || c = fc);
    prop3 "sub_mul a f p = sub a (mul f p)" sub_mul_agrees;
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"sub_mul overflows exactly with sub/mul"
         ~count:2000
         (QCheck2.Gen.triple big_rat_gen big_rat_gen big_rat_gen)
         sub_mul_agrees);
    Alcotest.test_case "sub_mul at the min_int boundary" `Quick
      sub_mul_boundary;
    prop "floor <= q < floor + 1" rat (fun a ->
        let f = Rat.floor a in
        Rat.(compare (of_int f) a) <= 0 && Rat.(compare a (of_int (f + 1))) < 0);
  ]
