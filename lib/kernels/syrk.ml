let run a = Matrix.mul a (Matrix.transpose a)
