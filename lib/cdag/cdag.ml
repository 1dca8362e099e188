module Interner = Iolb_ir.Interner
module Cplan = Iolb_ir.Cplan
module Budget = Iolb_util.Budget

type kind =
  | Input of string * int array
  | Compute of string * int array

(* Both relations in CSR (offsets + one flat array): node [id]'s
   predecessors are [preds_flat.(preds_off.(id)) ..
   preds_flat.(preds_off.(id + 1) - 1)], ascending, and likewise its
   successors. *)
type t = {
  kinds : kind array;
  preds_off : int array;
  preds_flat : int array;
  succs_off : int array;
  succs_flat : int array;
  n_inputs : int;
}

(* Grows [!arr] to at least [len] slots, doubling, new slots [fill]. *)
let ensure arr len fill =
  if len > Array.length !arr then begin
    let bigger = Array.make (max len (2 * Array.length !arr)) fill in
    Array.blit !arr 0 bigger 0 (Array.length !arr);
    arr := bigger
  end

let dummy_kind = Input ("", [||])

(* Every table below doubles on demand.  They start small so that the
   small verification CDAGs the derivation builds stay in the minor heap
   instead of allocating their tables straight into the major one. *)
let initial_slots = 64

let of_program ?(budget = Budget.unlimited) ~params p =
  (* Node ids are assigned in program order: input nodes at first read,
     in load order, before their compute node, so node numbering - and
     hence every DOT and report output - follows the walk. *)
  let kinds = ref (Array.make initial_slots dummy_kind) in
  (* The predecessor CSR, filled as the walk goes: [off.(id + 1)] closes
     node [id]'s slice of [flat], and the reads of the instance being
     walked are pending at [flat.(off.(!n)) .. flat.(!len - 1)]. *)
  let off = ref (Array.make (initial_slots + 1) 0) in
  let flat = ref (Array.make initial_slots 0) in
  let len = ref 0 in
  let n = ref 0 in
  (* Data cells are interned to dense ids once, here, so dependence
     resolution runs on int-indexed arrays instead of hashing
     (string * int array) keys per access.  [intern_view] probes with the
     iterator's borrowed buffers and copies only on first sight. *)
  let cells = Interner.create () in
  let last_writer = ref (Array.make initial_slots (-1)) in
  let inputs = ref 0 in
  (* The next node gets [kind] and the [k] slots after its slice start. *)
  let add_node kind k =
    let id = !n in
    incr n;
    Budget.check_node_cap budget Budget.Cdag_build !n;
    ensure kinds !n dummy_kind;
    ensure off (!n + 1) 0;
    !kinds.(id) <- kind;
    !off.(id + 1) <- !off.(id) + k;
    id
  in
  let on_load a idx =
    let cid = Interner.intern_view cells a idx in
    ensure last_writer (cid + 1) (-1);
    let w = !last_writer.(cid) in
    let pred =
      if w >= 0 then w
      else begin
        (* first sight of this cell: it is a program input.  Its node
           closes an empty slice just ahead of the pending reads, which
           then start the reading node's slice.  It shares the
           interner's owned copy of the index vector. *)
        let _, owned = Interner.key cells cid in
        let id = add_node (Input (a, owned)) 0 in
        incr inputs;
        !last_writer.(cid) <- id;
        id
      end
    in
    ensure flat (!len + 1) 0;
    !flat.(!len) <- pred;
    incr len
  in
  let on_stmt name vec =
    Budget.checkpoint budget Budget.Cdag_build;
    (* A value read twice by the same instance is a single dependence:
       insertion-sort the (tiny) pending slice and drop duplicates in
       place. *)
    let b = !flat and lo = !off.(!n) in
    for i = lo + 1 to !len - 1 do
      let v = b.(i) in
      let j = ref i in
      while !j > lo && b.(!j - 1) > v do
        b.(!j) <- b.(!j - 1);
        decr j
      done;
      b.(!j) <- v
    done;
    let u = ref lo in
    for i = lo to !len - 1 do
      if !u = lo || b.(!u - 1) <> b.(i) then begin
        b.(!u) <- b.(i);
        incr u
      end
    done;
    len := !u;
    ignore (add_node (Compute (name, Array.copy vec)) (!u - lo))
  in
  let on_store a idx =
    let cid = Interner.intern_view cells a idx in
    ensure last_writer (cid + 1) (-1);
    !last_writer.(cid) <- !n - 1
  in
  Cplan.iter_cells (Cplan.make ~params p) ~on_load ~on_stmt ~on_store;
  let nn = !n in
  let preds_off = Array.sub !off 0 (nn + 1) in
  let preds_flat = Array.sub !flat 0 !len in
  (* Successors by counting: in-degrees, offsets, then a fill in id
     order, so every slice comes out ascending. *)
  let succs_off = Array.make (nn + 1) 0 in
  Array.iter (fun p -> succs_off.(p + 1) <- succs_off.(p + 1) + 1) preds_flat;
  for id = 1 to nn do
    succs_off.(id) <- succs_off.(id) + succs_off.(id - 1)
  done;
  let fill = Array.sub succs_off 0 nn in
  let succs_flat = Array.make !len 0 in
  for id = 0 to nn - 1 do
    for k = preds_off.(id) to preds_off.(id + 1) - 1 do
      let p = preds_flat.(k) in
      succs_flat.(fill.(p)) <- id;
      fill.(p) <- fill.(p) + 1
    done
  done;
  {
    kinds = Array.sub !kinds 0 nn;
    preds_off;
    preds_flat;
    succs_off;
    succs_flat;
    n_inputs = !inputs;
  }

let n_nodes t = Array.length t.kinds
let kind t id = t.kinds.(id)
let slice off flat id = Array.sub flat off.(id) (off.(id + 1) - off.(id))
let preds t id = slice t.preds_off t.preds_flat id
let succs t id = slice t.succs_off t.succs_flat id
let preds_csr t = (t.preds_off, t.preds_flat)
let succs_csr t = (t.succs_off, t.succs_flat)
let program_order t = Array.init (n_nodes t) Fun.id

let nodes_of_stmt t name =
  let ids = ref [] in
  for id = n_nodes t - 1 downto 0 do
    match t.kinds.(id) with
    | Compute (s, _) when String.equal s name -> ids := id :: !ids
    | Compute _ | Input _ -> ()
  done;
  !ids

let n_inputs t = t.n_inputs
let n_computes t = n_nodes t - t.n_inputs

type reachability = {
  g : t;
  mark : int array; (* epoch-stamped visited marks, reused across queries *)
  mutable epoch : int;
  mutable stack : int array;
}

let reachability t =
  {
    g = t;
    mark = Array.make (max 1 (n_nodes t)) 0;
    epoch = 0;
    stack = Array.make 1024 0;
  }

(* Ids are topological (every edge runs upwards), so the inner nodes of
   a path from [a] to [b] have ids in (a, b): nothing above [b] is
   pushed, and each ascending successor slice is scanned only up to [b]. *)
let reaches r a b =
  if a = b then true
  else if a > b then false
  else begin
    let off = r.g.succs_off and flat = r.g.succs_flat in
    r.epoch <- r.epoch + 1;
    let e = r.epoch in
    let mark = r.mark in
    let sp = ref 0 in
    let push v =
      if !sp >= Array.length r.stack then begin
        let bigger = Array.make (2 * Array.length r.stack) 0 in
        Array.blit r.stack 0 bigger 0 !sp;
        r.stack <- bigger
      end;
      r.stack.(!sp) <- v;
      incr sp
    in
    push a;
    let found = ref false in
    while (not !found) && !sp > 0 do
      decr sp;
      let u = r.stack.(!sp) in
      let hi = off.(u + 1) in
      let i = ref off.(u) in
      while (not !found) && !i < hi && flat.(!i) <= b do
        let v = flat.(!i) in
        if v = b then found := true
        else if mark.(v) <> e then begin
          mark.(v) <- e;
          push v
        end;
        incr i
      done
    done;
    !found
  end

let convex_closure t nodes =
  (* v is in the closure iff it reaches some member and is reached by some
     member.  Compute the forward set of [nodes] and the backward set, then
     intersect. *)
  let n = n_nodes t in
  let forward = Array.make n false and backward = Array.make n false in
  let bfs mark (off, flat) starts =
    let queue = Queue.create () in
    List.iter
      (fun s ->
        if not mark.(s) then begin
          mark.(s) <- true;
          Queue.add s queue
        end)
      starts;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      for k = off.(u) to off.(u + 1) - 1 do
        let v = flat.(k) in
        if not mark.(v) then begin
          mark.(v) <- true;
          Queue.add v queue
        end
      done
    done
  in
  bfs forward (succs_csr t) nodes;
  bfs backward (preds_csr t) nodes;
  let out = ref [] in
  for id = n - 1 downto 0 do
    if forward.(id) && backward.(id) then out := id :: !out
  done;
  !out

let inset t nodes =
  let member = Hashtbl.create (List.length nodes) in
  List.iter (fun id -> Hashtbl.replace member id ()) nodes;
  let outside = Hashtbl.create 64 in
  List.iter
    (fun id ->
      for k = t.preds_off.(id) to t.preds_off.(id + 1) - 1 do
        let p = t.preds_flat.(k) in
        if not (Hashtbl.mem member p) then Hashtbl.replace outside p ()
      done)
    nodes;
  Hashtbl.length outside

let pp_stats fmt t =
  Format.fprintf fmt "nodes: %d (inputs: %d, computes: %d), edges: %d"
    (n_nodes t) t.n_inputs (n_computes t)
    (Array.length t.preds_flat)
