let run a b =
  let abt = Matrix.mul a (Matrix.transpose b) in
  let bat = Matrix.mul b (Matrix.transpose a) in
  let n, _ = Matrix.dims a in
  Matrix.init n n (fun i j -> Matrix.get abt i j +. Matrix.get bat i j)
