let run a b =
  let m, _ = Matrix.dims a in
  let _, n = Matrix.dims b in
  let out = Matrix.copy b in
  (* Rows processed upward-dependency-free: row i only reads rows k > i of
     the original B, which the i-ascending order leaves... rows k > i are
     updated after row i, so reading [out] is reading original values. *)
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      for k = i + 1 to m - 1 do
        Matrix.set out i j (Matrix.get out i j +. (Matrix.get a k i *. Matrix.get out k j))
      done
    done
  done;
  out
