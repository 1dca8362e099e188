let factor a0 =
  let n, n' = Matrix.dims a0 in
  if n <> n' then invalid_arg "Lu.factor: need a square matrix";
  let a = Matrix.copy a0 in
  for k = 0 to n - 1 do
    let piv = Matrix.get a k k in
    if piv = 0. then invalid_arg "Lu.factor: zero pivot";
    for i = k + 1 to n - 1 do
      Matrix.set a i k (Matrix.get a i k /. piv)
    done;
    for i = k + 1 to n - 1 do
      for j = k + 1 to n - 1 do
        Matrix.set a i j (Matrix.get a i j -. (Matrix.get a i k *. Matrix.get a k j))
      done
    done
  done;
  let l = Matrix.init n n (fun i j -> if i = j then 1. else if j < i then Matrix.get a i j else 0.) in
  let u = Matrix.init n n (fun i j -> if j >= i then Matrix.get a i j else 0.) in
  (l, u)

let random_dd ?(seed = 11) n =
  let a = Matrix.random ~seed n n in
  Matrix.init n n (fun i j ->
      Matrix.get a i j +. if i = j then 2. *. float_of_int n else 0.)
