type key = string * int array

(* Open-addressing hash table over dense ids.  The table stores only ids;
   keys live in [rev], so membership probes can hash and compare against a
   *borrowed* (name, indices) view without materialising a key value.  The
   hot callers (trace building, CDAG construction) intern millions of cells
   of which almost all are repeats: the hit path allocates nothing. *)
type t = {
  mutable table : int array; (* -1 = empty slot, else dense id *)
  mutable mask : int; (* Array.length table - 1; capacity is a power of 2 *)
  mutable rev : key array;
  mutable n : int;
  (* One-entry name-hash memo.  Trace builders intern long runs of cells
     sharing the same (physically equal) array-name string; hashing it
     once per run instead of once per probe is a measurable win. *)
  mutable hname : string;
  mutable hval : int;
}

(* FNV-1a over the name hash and the index vector, avoiding the polymorphic
   hash's tag-walking on every probe. *)
let hash_rest h0 idx =
  let h = ref h0 in
  for i = 0 to Array.length idx - 1 do
    h := (!h lxor Array.unsafe_get idx i) * 0x01000193
  done;
  !h land max_int

let hash_view name idx = hash_rest (Hashtbl.hash name) idx

let name_hash t name =
  if name == t.hname then t.hval
  else begin
    let h = Hashtbl.hash name in
    t.hname <- name;
    t.hval <- h;
    h
  end

let equal_view (b, v) name idx =
  String.equal name b
  && Array.length idx = Array.length v
  &&
  (* in bounds: i < length idx = length v *)
  let rec go i =
    i < 0 || (Array.unsafe_get idx i = Array.unsafe_get v i && go (i - 1))
  in
  go (Array.length idx - 1)

let dummy_key : key = ("", [||])

(* Both tables double on demand.  They start small so that a short-lived
   interner (one per CDAG build) is allocated in the minor heap instead of
   straight into the major one. *)
let initial_keys = 16

let create () =
  {
    table = Array.make (2 * initial_keys) (-1);
    mask = (2 * initial_keys) - 1;
    rev = Array.make initial_keys dummy_key;
    n = 0;
    hname = "";
    hval = Hashtbl.hash "";
  }

let grow t =
  let cap = 2 * (t.mask + 1) in
  let table = Array.make cap (-1) in
  let mask = cap - 1 in
  for id = 0 to t.n - 1 do
    let name, idx = t.rev.(id) in
    let slot = ref (hash_view name idx land mask) in
    while table.(!slot) >= 0 do
      slot := (!slot + 1) land mask
    done;
    table.(!slot) <- id
  done;
  t.table <- table;
  t.mask <- mask

(* Probe for the borrowed view; returns the slot holding its id, or the
   empty slot where it belongs. *)
(* in bounds: [!slot] is masked into [0, mask], ids are < n <= length rev *)
let probe t name idx =
  let slot = ref (hash_rest (name_hash t name) idx land t.mask) in
  let found = ref (-2) in
  while !found = -2 do
    let id = Array.unsafe_get t.table !slot in
    if id < 0 then found := -1
    else if equal_view (Array.unsafe_get t.rev id) name idx then found := id
    else slot := (!slot + 1) land t.mask
  done;
  (!slot, !found)

let insert_at t slot key =
  let id = t.n in
  if id = Array.length t.rev then begin
    let bigger = Array.make (2 * id) dummy_key in
    Array.blit t.rev 0 bigger 0 id;
    t.rev <- bigger
  end;
  t.rev.(id) <- key;
  t.n <- id + 1;
  t.table.(slot) <- id;
  (* Load factor <= 1/2 keeps probe sequences short. *)
  if 2 * t.n > t.mask then grow t;
  id

(* [idx] is borrowed: copied only when the key is new. *)
let intern_view t name idx =
  match probe t name idx with
  | _, id when id >= 0 -> id
  | slot, _ -> insert_at t slot (name, Array.copy idx)

let intern t ((name, idx) as key) =
  match probe t name idx with
  | _, id when id >= 0 -> id
  | slot, _ -> insert_at t slot key

let key t id =
  if id < 0 || id >= t.n then invalid_arg "Interner.key: id out of range";
  t.rev.(id)

let count t = t.n
