let run a x =
  let m, n = Matrix.dims a in
  if Array.length x <> n then invalid_arg "Atax.run: dimension mismatch";
  let tmp = Array.make m 0. in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      tmp.(i) <- tmp.(i) +. (Matrix.get a i j *. x.(j))
    done
  done;
  let y = Array.make n 0. in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      y.(j) <- y.(j) +. (Matrix.get a i j *. tmp.(i))
    done
  done;
  y
