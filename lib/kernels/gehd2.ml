type result = { a : Matrix.t; taus : float array }

let reduce a0 =
  let n, n' = Matrix.dims a0 in
  if n <> n' then invalid_arg "Gehd2.reduce: need a square matrix";
  let a = Matrix.copy a0 in
  let taus = Array.make (max 0 (n - 2)) 0. in
  for j = 0 to n - 3 do
    let norma2 = ref 0. in
    for i = j + 2 to n - 1 do
      norma2 := !norma2 +. (Matrix.get a i j *. Matrix.get a i j)
    done;
    let piv = Matrix.get a (j + 1) j in
    let norma = sqrt ((piv *. piv) +. !norma2) in
    let w = if piv > 0. then piv +. norma else piv -. norma in
    Matrix.set a (j + 1) j w;
    let tau = if norma = 0. then 0. else 2. /. (1. +. (!norma2 /. (w *. w))) in
    taus.(j) <- tau;
    for i = j + 2 to n - 1 do
      Matrix.set a i j (Matrix.get a i j /. w)
    done;
    Matrix.set a (j + 1) j (if w > 0. then -.norma else norma);
    let tmp = Array.make n 0. in
    (* Left update on columns j+1..n-1. *)
    for i = j + 1 to n - 1 do
      tmp.(i) <- Matrix.get a (j + 1) i;
      for k = j + 2 to n - 1 do
        tmp.(i) <- tmp.(i) +. (Matrix.get a k j *. Matrix.get a k i)
      done;
      tmp.(i) <- tmp.(i) *. tau
    done;
    for i = j + 1 to n - 1 do
      Matrix.set a (j + 1) i (Matrix.get a (j + 1) i -. tmp.(i))
    done;
    for i = j + 2 to n - 1 do
      for k = j + 1 to n - 1 do
        Matrix.set a i k (Matrix.get a i k -. (Matrix.get a i j *. tmp.(k)))
      done
    done;
    (* Right update on all rows. *)
    for i = 0 to n - 1 do
      tmp.(i) <- Matrix.get a i (j + 1);
      for k = j + 2 to n - 1 do
        tmp.(i) <- tmp.(i) +. (Matrix.get a i k *. Matrix.get a k j)
      done;
      tmp.(i) <- tmp.(i) *. tau
    done;
    for i = 0 to n - 1 do
      Matrix.set a i (j + 1) (Matrix.get a i (j + 1) -. tmp.(i))
    done;
    for i = 0 to n - 1 do
      for k = j + 2 to n - 1 do
        Matrix.set a i k (Matrix.get a i k -. (tmp.(i) *. Matrix.get a k j))
      done
    done
  done;
  { a; taus }

let hessenberg_of r =
  let n, _ = Matrix.dims r.a in
  Matrix.init n n (fun i j -> if i <= j + 1 then Matrix.get r.a i j else 0.)

let q_of r =
  let n, _ = Matrix.dims r.a in
  let q = Matrix.identity n in
  (* Q = H_0 H_1 ... H_{n-3}; each H_j has its reflector tail stored in
     column j, rows j+2.., with an implicit unit at row j+1. *)
  for j = n - 3 downto 0 do
    for col = 0 to n - 1 do
      let t = ref (Matrix.get q (j + 1) col) in
      for i = j + 2 to n - 1 do
        t := !t +. (Matrix.get r.a i j *. Matrix.get q i col)
      done;
      let t = r.taus.(j) *. !t in
      Matrix.set q (j + 1) col (Matrix.get q (j + 1) col -. t);
      for i = j + 2 to n - 1 do
        Matrix.set q i col (Matrix.get q i col -. (Matrix.get r.a i j *. t))
      done
    done
  done;
  q
