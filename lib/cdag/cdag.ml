module Cplan = Iolb_ir.Cplan
module Budget = Iolb_util.Budget

type kind =
  | Input of string * int array
  | Compute of string * int array

(* Nodes are ints all the way down.  Both relations are in CSR (offsets
   + one flat array): node [id]'s predecessors are [preds_flat.(preds_off.(id))
   .. preds_flat.(preds_off.(id + 1) - 1)], ascending, and likewise its
   successors.  A node's payload is two ints: [stmt.(id)] is its
   statement's index in [plan], or -1 for an input, and [data.(id)] the
   offset of its iteration vector in [vecs] for a compute, or its cell
   id in [cells] for an input.  [stmt] and [data] may run past [n]. *)
type t = {
  plan : Cplan.t;
  cells : Cplan.cells;
  n : int;
  stmt : int array;
  data : int array;
  vecs : int array;
  preds_off : int array;
  preds_flat : int array;
  succs_off : int array;
  succs_flat : int array;
  n_inputs : int;
}

let of_program ?(budget = Budget.unlimited) ~params p =
  let plan = Cplan.make ~params p in
  let { Cplan.instances; reads; coords } = Cplan.totals plan in
  (* Every instance is a node: a cap below the instance count stops the
     build before it asks for its arrays. *)
  Budget.check_node_cap budget Budget.Cdag_build instances;
  let n_acc = Cplan.n_accesses plan in
  (* Cell ids stay below the footprint, and each input is a cell first
     read, so the node slots are the instances plus [min reads
     max_cells]: exact but for the inputs, which no count knows ahead. *)
  let max_cells =
    match Cplan.addr_space plan with Some a -> min a n_acc | None -> n_acc
  in
  let slots = instances + min reads max_cells in
  let stmt = Array.make slots (-1) and data = Array.make slots 0 in
  (* The predecessor CSR, filled as the walk goes: [off.(id + 1)] closes
     node [id]'s slice of [flat], and the reads of the instance being
     walked are pending at [flat.(off.(!n)) .. flat.(!len - 1)]. *)
  let off = Array.make (slots + 1) 0 and flat = Array.make reads 0 in
  let vecs = Array.make coords 0 in
  let last_writer = Array.make max_cells (-1) in
  let n = ref 0 and len = ref 0 and nv = ref 0 and inputs = ref 0 in
  (* The instance being walked: its statement (-1 before the first) and
     the offset of its vector.  Its node is numbered once its reads have
     numbered their inputs, when the next instance starts or the walk
     ends; its writes come after its reads, so they already name it
     [!n]. *)
  let cur = ref (-1) and cur_vec = ref 0 in
  let add_node s d k =
    let id = !n in
    stmt.(id) <- s;
    data.(id) <- d;
    off.(id + 1) <- off.(id) + k;
    n := id + 1;
    Budget.check_node_cap budget Budget.Cdag_build !n;
    id
  in
  let close () =
    if !cur >= 0 then begin
      Budget.checkpoint budget Budget.Cdag_build;
      (* A value read twice by the same instance is a single dependence:
         insertion-sort the (tiny) pending slice and drop duplicates in
         place. *)
      let lo = off.(!n) in
      for i = lo + 1 to !len - 1 do
        let v = flat.(i) in
        let j = ref i in
        while !j > lo && flat.(!j - 1) > v do
          flat.(!j) <- flat.(!j - 1);
          decr j
        done;
        flat.(!j) <- v
      done;
      let u = ref lo in
      for i = lo to !len - 1 do
        if !u = lo || flat.(!u - 1) <> flat.(i) then begin
          flat.(!u) <- flat.(i);
          incr u
        end
      done;
      len := !u;
      ignore (add_node !cur !cur_vec (!u - lo))
    end
  in
  let on_instance s vec =
    close ();
    cur := s;
    cur_vec := !nv;
    for d = 0 to Array.length vec - 1 do
      vecs.(!nv + d) <- vec.(d)
    done;
    nv := !nv + Array.length vec
  in
  let on_access c is_write =
    if is_write then last_writer.(c) <- !n
    else begin
      let w = last_writer.(c) in
      let pred =
        if w >= 0 then w
        else begin
          (* first sight of this cell: it is a program input.  Its node
             closes an empty slice just ahead of the pending reads, which
             then start the reading node's slice. *)
          let id = add_node (-1) c 0 in
          incr inputs;
          last_writer.(c) <- id;
          id
        end
      in
      flat.(!len) <- pred;
      incr len
    end
  in
  let cells = Cplan.iter_instances plan ~on_instance ~on_access in
  close ();
  let n = !n and e = !len in
  let preds_off = if n = slots then off else Array.sub off 0 (n + 1) in
  let preds_flat = if e = reads then flat else Array.sub flat 0 e in
  (* Successors by counting: out-degrees shifted one up, offsets, a fill
     in id order that advances each source's offset to the next one's,
     then the shift back.  Every slice comes out ascending. *)
  let succs_off = Array.make (n + 1) 0 and succs_flat = Array.make e 0 in
  Array.iter (fun p -> succs_off.(p + 1) <- succs_off.(p + 1) + 1) preds_flat;
  for id = 1 to n do
    succs_off.(id) <- succs_off.(id) + succs_off.(id - 1)
  done;
  for id = 0 to n - 1 do
    for k = preds_off.(id) to preds_off.(id + 1) - 1 do
      let p = preds_flat.(k) in
      succs_flat.(succs_off.(p)) <- id;
      succs_off.(p) <- succs_off.(p) + 1
    done
  done;
  for id = n downto 1 do
    succs_off.(id) <- succs_off.(id - 1)
  done;
  succs_off.(0) <- 0;
  {
    plan;
    cells;
    n;
    stmt;
    data;
    vecs;
    preds_off;
    preds_flat;
    succs_off;
    succs_flat;
    n_inputs = !inputs;
  }

let n_nodes t = t.n

(* The payload arrays may run past [n]: every accessor checks the id. *)
let stmt_of t id =
  if id < 0 || id >= t.n then invalid_arg "Cdag: node id out of range";
  Array.unsafe_get t.stmt id

let is_compute t id = stmt_of t id >= 0

let coord t id d =
  let s = stmt_of t id in
  if s < 0 || d < 0 || d >= Cplan.stmt_depth t.plan s then
    invalid_arg "Cdag.coord: not a coordinate of a compute node";
  t.vecs.(t.data.(id) + d)

let kind t id =
  let s = stmt_of t id in
  if s < 0 then
    let name, idx = Cplan.cell t.plan t.cells t.data.(id) in
    Input (name, idx)
  else
    Compute
      ( Cplan.stmt_name t.plan s,
        Array.sub t.vecs t.data.(id) (Cplan.stmt_depth t.plan s) )

let slice off flat id = Array.sub flat off.(id) (off.(id + 1) - off.(id))
let preds t id = slice t.preds_off t.preds_flat id
let succs t id = slice t.succs_off t.succs_flat id
let preds_csr t = (t.preds_off, t.preds_flat)
let succs_csr t = (t.succs_off, t.succs_flat)
let program_order t = Array.init (n_nodes t) Fun.id

let nodes_of_stmt t name =
  let named =
    Array.init (Cplan.n_stmts t.plan) (fun s ->
        String.equal (Cplan.stmt_name t.plan s) name)
  in
  let ids = ref [] in
  for id = t.n - 1 downto 0 do
    let s = t.stmt.(id) in
    if s >= 0 && named.(s) then ids := id :: !ids
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
