let solve l b =
  let n, n' = Matrix.dims l in
  let n'', m = Matrix.dims b in
  if n <> n' || n <> n'' then invalid_arg "Trsm.solve: dimension mismatch";
  let x = Matrix.copy b in
  for j = 0 to m - 1 do
    for i = 0 to n - 1 do
      for k = 0 to i - 1 do
        Matrix.set x i j (Matrix.get x i j -. (Matrix.get l i k *. Matrix.get x k j))
      done;
      Matrix.set x i j (Matrix.get x i j /. Matrix.get l i i)
    done
  done;
  x
