open Shorthand

type factors = { vr : Matrix.t; tau : float array }

(* Reflector generation on column k of [a], rows k..m-1, exactly as in the
   Figure 3 listing.  Returns tau_k; afterwards a(k,k) holds the R diagonal
   entry and a(i,k), i > k, the (normalised) reflector tail. *)
let generate_reflector a k =
  let m, _ = Matrix.dims a in
  let norma2 = ref 0. in
  for i = k + 1 to m - 1 do
    norma2 := !norma2 +. (Matrix.get a i k *. Matrix.get a i k)
  done;
  let akk = Matrix.get a k k in
  let norma = sqrt ((akk *. akk) +. !norma2) in
  let vkk = if akk > 0. then akk +. norma else akk -. norma in
  Matrix.set a k k vkk;
  let tau = 2. /. (1. +. (!norma2 /. (vkk *. vkk))) in
  for i = k + 1 to m - 1 do
    Matrix.set a i k (Matrix.get a i k /. vkk)
  done;
  Matrix.set a k k (if vkk > 0. then -.norma else norma);
  tau

(* Apply reflector (v = column k of [a] with implicit unit at k, tau) to
   column j, rows k..m-1. *)
let apply_reflector a ~k ~tau j =
  let m, _ = Matrix.dims a in
  let t = ref (Matrix.get a k j) in
  for i = k + 1 to m - 1 do
    t := !t +. (Matrix.get a i k *. Matrix.get a i j)
  done;
  let t = tau *. !t in
  Matrix.set a k j (Matrix.get a k j -. t);
  for i = k + 1 to m - 1 do
    Matrix.set a i j (Matrix.get a i j -. (Matrix.get a i k *. t))
  done

let geqr2 a =
  let m, n = Matrix.dims a in
  if m < n then invalid_arg "Householder.geqr2: need m >= n";
  let vr = Matrix.copy a in
  let tau = Array.make n 0. in
  for k = 0 to n - 1 do
    tau.(k) <- generate_reflector vr k;
    for j = k + 1 to n - 1 do
      apply_reflector vr ~k ~tau:tau.(k) j
    done
  done;
  { vr; tau }

let org2r f ~rows =
  let m, n = Matrix.dims f.vr in
  if rows <> m then invalid_arg "Householder.org2r: row mismatch";
  let q = Matrix.copy f.vr in
  for k = n - 1 downto 0 do
    (* Apply H_k to the already-built columns k+1..n-1. *)
    for j = k + 1 to n - 1 do
      let t = ref 0. in
      for i = k + 1 to m - 1 do
        t := !t +. (Matrix.get q i k *. Matrix.get q i j)
      done;
      let t = f.tau.(k) *. !t in
      Matrix.set q k j (-.t);
      for i = k + 1 to m - 1 do
        Matrix.set q i j (Matrix.get q i j -. (Matrix.get q i k *. t))
      done
    done;
    (* Create column k of Q from the reflector. *)
    Matrix.set q k k (1. -. f.tau.(k));
    for i = k + 1 to m - 1 do
      Matrix.set q i k (-.(Matrix.get q i k) *. f.tau.(k))
    done;
    (* Rows above k of column k are zero in H_k * e_k. *)
    for i = 0 to k - 1 do
      Matrix.set q i k 0.
    done
  done;
  q

let r_of f =
  let _, n = Matrix.dims f.vr in
  Matrix.init n n (fun i j -> if j >= i then Matrix.get f.vr i j else 0.)

let qr a =
  let m, _ = Matrix.dims a in
  let f = geqr2 a in
  (org2r f ~rows:m, r_of f)

let geqr2_tiled ~b a =
  if b < 1 then invalid_arg "Householder.geqr2_tiled: b < 1";
  let m, n = Matrix.dims a in
  if m < n then invalid_arg "Householder.geqr2_tiled: need m >= n";
  let vr = Matrix.copy a in
  let tau = Array.make n 0. in
  let k0 = ref 0 in
  while !k0 < n do
    let khi = min (!k0 + b - 1) (n - 1) in
    (* Left-looking: replay every earlier reflector on the block. *)
    for j = 0 to !k0 - 1 do
      for k = !k0 to khi do
        apply_reflector vr ~k:j ~tau:tau.(j) k
      done
    done;
    (* Factor the block itself. *)
    for k = !k0 to khi do
      for j = !k0 to k - 1 do
        apply_reflector vr ~k:j ~tau:tau.(j) k
      done;
      tau.(k) <- generate_reflector vr k
    done;
    k0 := !k0 + b
  done;
  { vr; tau }

let tiled_spec ~m ~n ~b =
  if b < 1 then invalid_arg "Householder.tiled_spec: b < 1";
  if n mod b <> 0 then invalid_arg "Householder.tiled_spec: b must divide n";
  let nb = n / b in
  let k0 = Affine.term b "t" in
  let reflect prefix jvar kvar =
    (* Apply reflector jvar to column kvar: the Figure 9 inner body. *)
    let j = v jvar and k = v kvar in
    [
      stmt (prefix ^ "t0") ~writes:[ sc "tmp" ] ~reads:[ a2 "A" j k ];
      loop "i" (j +! c 1)
        (c (m - 1))
        [
          stmt (prefix ^ "tR") ~writes:[ sc "tmp" ]
            ~reads:[ sc "tmp"; a2 "A" (v "i") j; a2 "A" (v "i") k ];
        ];
      stmt (prefix ^ "tm") ~writes:[ sc "tmp" ] ~reads:[ a1 "tau" j; sc "tmp" ];
      stmt (prefix ^ "a0") ~writes:[ a2 "A" j k ] ~reads:[ a2 "A" j k; sc "tmp" ];
      loop "i" (j +! c 1)
        (c (m - 1))
        [
          stmt (prefix ^ "tU")
            ~writes:[ a2 "A" (v "i") k ]
            ~reads:[ a2 "A" (v "i") k; a2 "A" (v "i") j; sc "tmp" ];
        ];
    ]
  in
  Program.make
    ~name:(Printf.sprintf "a2v_tiled_m%d_n%d_b%d" m n b)
    ~params:[] ~assumptions:[]
    [
      loop_lt "t" (c 0) (c nb)
        [
          loop_lt "j" (c 0) k0
            [ loop "k" k0 (k0 +! c (b - 1)) (reflect "P" "j" "k") ];
          loop "k" k0
            (k0 +! c (b - 1))
            (List.concat
               [
                 [ loop "j2" k0 (v "k" -! c 1) (reflect "Q" "j2" "k") ];
                 [
                   stmt "Gn0" ~writes:[ sc "norma2" ] ~reads:[];
                   loop "i"
                     (v "k" +! c 1)
                     (c (m - 1))
                     [
                       stmt "Gn2" ~writes:[ sc "norma2" ]
                         ~reads:[ sc "norma2"; a2 "A" (v "i") (v "k") ];
                     ];
                   stmt "Gnrm" ~writes:[ sc "norma" ]
                     ~reads:[ a2 "A" (v "k") (v "k"); sc "norma2" ];
                   stmt "Gakk1"
                     ~writes:[ a2 "A" (v "k") (v "k") ]
                     ~reads:[ a2 "A" (v "k") (v "k"); sc "norma" ];
                   stmt "Gtau"
                     ~writes:[ a1 "tau" (v "k") ]
                     ~reads:[ sc "norma2"; a2 "A" (v "k") (v "k") ];
                   loop "i"
                     (v "k" +! c 1)
                     (c (m - 1))
                     [
                       stmt "Gdiv"
                         ~writes:[ a2 "A" (v "i") (v "k") ]
                         ~reads:[ a2 "A" (v "i") (v "k"); a2 "A" (v "k") (v "k") ];
                     ];
                   stmt "Gakk2"
                     ~writes:[ a2 "A" (v "k") (v "k") ]
                     ~reads:[ a2 "A" (v "k") (v "k"); sc "norma" ];
                 ];
               ]);
        ];
    ]
