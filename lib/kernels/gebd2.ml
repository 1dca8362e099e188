type result = { a : Matrix.t; tauq : float array; taup : float array }

(* Row-reflector generation on row k, columns k+1..n-1. *)
let generate_row_reflector a k =
  let _, n = Matrix.dims a in
  let normb2 = ref 0. in
  for j = k + 2 to n - 1 do
    normb2 := !normb2 +. (Matrix.get a k j *. Matrix.get a k j)
  done;
  let piv = Matrix.get a k (k + 1) in
  let normb = sqrt ((piv *. piv) +. !normb2) in
  if normb = 0. then 0.
  else begin
    let w = if piv > 0. then piv +. normb else piv -. normb in
    Matrix.set a k (k + 1) w;
    let taup = 2. /. (1. +. (!normb2 /. (w *. w))) in
    for j = k + 2 to n - 1 do
      Matrix.set a k j (Matrix.get a k j /. w)
    done;
    Matrix.set a k (k + 1) (if w > 0. then -.normb else normb);
    taup
  end

let reduce a0 =
  let m, n = Matrix.dims a0 in
  if m < n || n < 1 then invalid_arg "Gebd2.reduce: need m >= n >= 1";
  let a = Matrix.copy a0 in
  let tauq = Array.make n 0. and taup = Array.make n 0. in
  for k = 0 to n - 1 do
    (* Left reflector on column k, rows k..m-1 (Figure 3 generator). *)
    tauq.(k) <- Householder.(generate_reflector) a k;
    for j = k + 1 to n - 1 do
      Householder.(apply_reflector) a ~k ~tau:tauq.(k) j
    done;
    if k <= n - 2 then begin
      taup.(k) <- generate_row_reflector a k;
      (* Apply the row reflector to rows k+1..m-1. *)
      for i = k + 1 to m - 1 do
        let t = ref (Matrix.get a i (k + 1)) in
        for j = k + 2 to n - 1 do
          t := !t +. (Matrix.get a k j *. Matrix.get a i j)
        done;
        let t = taup.(k) *. !t in
        Matrix.set a i (k + 1) (Matrix.get a i (k + 1) -. t);
        for j = k + 2 to n - 1 do
          Matrix.set a i j (Matrix.get a i j -. (Matrix.get a k j *. t))
        done
      done
    end
  done;
  { a; tauq; taup }

let bidiagonal_of r =
  let _, n = Matrix.dims r.a in
  Matrix.init n n (fun i j ->
      if j = i || j = i + 1 then Matrix.get r.a i j else 0.)

let q_of r =
  let m, n = Matrix.dims r.a in
  let q = Matrix.identity m in
  (* Q = H_0 H_1 ... H_{n-1}; apply right-to-left onto the identity. *)
  for k = n - 1 downto 0 do
    (* H_k = I - tauq_k v v^T with v = e_k + (column k of a below k). *)
    for col = 0 to m - 1 do
      let t = ref (Matrix.get q k col) in
      for i = k + 1 to m - 1 do
        t := !t +. (Matrix.get r.a i k *. Matrix.get q i col)
      done;
      let t = r.tauq.(k) *. !t in
      Matrix.set q k col (Matrix.get q k col -. t);
      for i = k + 1 to m - 1 do
        Matrix.set q i col (Matrix.get q i col -. (Matrix.get r.a i k *. t))
      done
    done
  done;
  q

let p_of r =
  let _, n = Matrix.dims r.a in
  let p = Matrix.identity n in
  (* P = G_0 G_1 ... G_{n-2}; G_k = I - taup_k w w^T with w = e_{k+1} + row
     k of a right of k+1.  Apply right-to-left onto the identity. *)
  for k = n - 2 downto 0 do
    for col = 0 to n - 1 do
      let t = ref (Matrix.get p (k + 1) col) in
      for j = k + 2 to n - 1 do
        t := !t +. (Matrix.get r.a k j *. Matrix.get p j col)
      done;
      let t = r.taup.(k) *. !t in
      Matrix.set p (k + 1) col (Matrix.get p (k + 1) col -. t);
      for j = k + 2 to n - 1 do
        Matrix.set p j col (Matrix.get p j col -. (Matrix.get r.a k j *. t))
      done
    done
  done;
  p
