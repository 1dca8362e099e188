let run ~steps src =
  let n = Array.length src in
  let cur = Array.copy src and next = Array.copy src in
  let cur = ref cur and next = ref next in
  for _ = 1 to steps do
    for i = 1 to n - 2 do
      !next.(i) <- (!cur.(i - 1) +. !cur.(i) +. !cur.(i + 1)) /. 3.
    done;
    let t = !cur in
    cur := !next;
    next := t
  done;
  !cur
