(* The sift loops move a hole instead of swapping and use
   [Array.unsafe_get]/[unsafe_set]: heap slots stay below [len], which
   [insert] keeps within the key and item arrays, and items index the
   slot array by the caller's contract (node ids below the CDAG's node
   count, cell ids below the footprint).  Ties between equal keys break
   by heap position: a child replaces its parent only on a strictly
   larger key, and the right child wins only on a strictly larger key
   than the left. *)

type t = {
  key : int array;
  item : int array;
  slot : int array;
  mutable len : int;
}

let create ~capacity ~items =
  {
    key = Array.make capacity 0;
    item = Array.make capacity 0;
    slot = Array.make items (-1);
    len = 0;
  }

let reset h =
  for i = 0 to h.len - 1 do
    Array.unsafe_set h.slot (Array.unsafe_get h.item i) (-1)
  done;
  h.len <- 0

let[@inline] place h i key item =
  Array.unsafe_set h.key i key;
  Array.unsafe_set h.item i item;
  Array.unsafe_set h.slot item i

(* Fill slot [i] with [item], moving smaller-keyed parents down into it. *)
let sift_up h i key item =
  let hkey = h.key and hitem = h.item and slot = h.slot in
  let i = ref i in
  while !i > 0 && Array.unsafe_get hkey ((!i - 1) lsr 1) < key do
    let parent = (!i - 1) lsr 1 in
    let pn = Array.unsafe_get hitem parent in
    Array.unsafe_set hkey !i (Array.unsafe_get hkey parent);
    Array.unsafe_set hitem !i pn;
    Array.unsafe_set slot pn !i;
    i := parent
  done;
  place h !i key item

(* Fill slot [i] with [item], moving every larger-keyed child [c] up. *)
let sift_down h i key item =
  let hkey = h.key and hitem = h.item and slot = h.slot and len = h.len in
  let i = ref i and c = ref ((2 * i) + 1) in
  while !c < len do
    if !c + 1 < len && Array.unsafe_get hkey (!c + 1) > Array.unsafe_get hkey !c
    then incr c;
    if Array.unsafe_get hkey !c > key then begin
      let cn = Array.unsafe_get hitem !c in
      Array.unsafe_set hkey !i (Array.unsafe_get hkey !c);
      Array.unsafe_set hitem !i cn;
      Array.unsafe_set slot cn !i;
      i := !c;
      c := (2 * !c) + 1
    end
    else c := len
  done;
  place h !i key item

(* The checks below raise directly rather than call [invalid_arg]: the
   compiler does not know that call never returns, and the values it
   would keep live across it are spilled on every call, failing or not. *)

let insert h item ~key =
  let i = h.len in
  if i >= Array.length h.key then
    raise (Invalid_argument "Next_use_heap.insert: full");
  h.len <- i + 1;
  sift_up h i key item

let update h item ~key =
  let i = h.slot.(item) in
  if i < 0 then raise (Invalid_argument "Next_use_heap.update: absent item");
  if key > Array.unsafe_get h.key i then sift_up h i key item
  else sift_down h i key item

let top_key h = h.key.(0)

let replace_top h item ~key =
  if h.len = 0 then
    raise (Invalid_argument "Next_use_heap.replace_top: empty");
  let top = Array.unsafe_get h.item 0 in
  Array.unsafe_set h.slot top (-1);
  sift_down h 0 key item;
  top
