(* Entries are packed as (pos, payload) pairs in two parallel arrays.

   The sift loops below use [Array.unsafe_get]/[unsafe_set] and move a
   "hole" instead of swapping: every index involved is provably inside
   [0, len), and [len <= Array.length pos] is maintained by [push]'s
   growth check.  Hole-based sifting produces the exact same final array
   layout as the textbook swap-based version (each swap with the parent /
   largest child is just a delayed store of the moving element), so pop
   order - which callers rely on for byte-stable output - is unchanged. *)
type t = {
  mutable pos : int array;
  mutable payload : int array;
  mutable len : int;
}

let create () =
  { pos = Array.make 1024 0; payload = Array.make 1024 0; len = 0 }

let is_empty h = h.len = 0
let length h = h.len

let push h ~pos ~payload =
  if h.len = Array.length h.pos then begin
    let np = Array.make (2 * h.len) 0 and nl = Array.make (2 * h.len) 0 in
    Array.blit h.pos 0 np 0 h.len;
    Array.blit h.payload 0 nl 0 h.len;
    h.pos <- np;
    h.payload <- nl
  end;
  let hp = h.pos and hl = h.payload in
  let i = ref h.len in
  h.len <- h.len + 1;
  (* Sift the hole up while the parent is smaller, then store once. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Array.unsafe_get hp parent in
    if pp < pos then begin
      Array.unsafe_set hp !i pp;
      Array.unsafe_set hl !i (Array.unsafe_get hl parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set hp !i pos;
  Array.unsafe_set hl !i payload

let sift_down h i =
  let hp = h.pos and hl = h.payload and len = h.len in
  let pos = Array.unsafe_get hp i and payload = Array.unsafe_get hl i in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let largest = ref !i and lpos = ref pos in
    if l < len && Array.unsafe_get hp l > !lpos then begin
      largest := l;
      lpos := Array.unsafe_get hp l
    end;
    if r < len && Array.unsafe_get hp r > !lpos then begin
      largest := r;
      lpos := Array.unsafe_get hp r
    end;
    if !largest <> !i then begin
      Array.unsafe_set hp !i !lpos;
      Array.unsafe_set hl !i (Array.unsafe_get hl !largest);
      i := !largest
    end
    else continue := false
  done;
  Array.unsafe_set hp !i pos;
  Array.unsafe_set hl !i payload

let pop h =
  if h.len = 0 then raise Not_found;
  let top = (h.pos.(0), h.payload.(0)) in
  h.len <- h.len - 1;
  if h.len > 0 then begin
    h.pos.(0) <- h.pos.(h.len);
    h.payload.(0) <- h.payload.(h.len);
    sift_down h 0
  end;
  top
