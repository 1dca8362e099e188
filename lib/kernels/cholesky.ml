let factor a =
  let n, n' = Matrix.dims a in
  if n <> n' then invalid_arg "Cholesky.factor: need a square matrix";
  let l = Matrix.copy a in
  for k = 0 to n - 1 do
    for j = 0 to k - 1 do
      for i = k to n - 1 do
        Matrix.set l i k (Matrix.get l i k -. (Matrix.get l i j *. Matrix.get l k j))
      done
    done;
    let piv = Matrix.get l k k in
    if piv <= 0. then invalid_arg "Cholesky.factor: matrix is not SPD";
    Matrix.set l k k (sqrt piv);
    for i = k + 1 to n - 1 do
      Matrix.set l i k (Matrix.get l i k /. Matrix.get l k k)
    done
  done;
  (* Zero the strictly-upper part left over from A. *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Matrix.set l i j 0.
    done
  done;
  l

let random_spd ?(seed = 7) n =
  let a = Matrix.random ~seed n n in
  let ata = Matrix.mul (Matrix.transpose a) a in
  Matrix.init n n (fun i j ->
      Matrix.get ata i j +. if i = j then float_of_int n else 0.)
