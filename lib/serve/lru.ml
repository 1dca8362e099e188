(* Content-addressed, weight-bounded LRU cache.

   Doubly-linked recency list threaded through the nodes of a Hashtbl,
   guarded by one mutex: [find] bumps the entry to the front, [add]
   evicts from the back while the entries' total weight is over
   capacity.  The response cache stores rendered [result] fragments at
   weight 1, so a hit is a string splice - no re-analysis, no
   re-rendering, byte-identical output - and its capacity counts
   entries; the sweep cache weighs each sweep by the cells it holds. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable weight : int;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  capacity : int;
  table : (string, 'a node) Hashtbl.t;
  mutex : Mutex.t;
  mutable front : 'a node option;  (* most recently used *)
  mutable back : 'a node option;  (* least recently used *)
  mutable weight : int;  (* total weight of the entries *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  capacity : int;
  entries : int;
  weight : int;
  hits : int;
  misses : int;
  evictions : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: capacity < 0";
  {
    capacity;
    table = Hashtbl.create 16;
    mutex = Mutex.create ();
    front = None;
    back = None;
    weight = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let unlink (t : _ t) node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.front <- node.next);
  (match node.next with
  | Some nx -> nx.prev <- node.prev
  | None -> t.back <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front (t : _ t) node =
  node.next <- t.front;
  node.prev <- None;
  (match t.front with Some f -> f.prev <- Some node | None -> t.back <- Some node);
  t.front <- Some node

let find (t : _ t) key =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some node ->
          t.hits <- t.hits + 1;
          unlink t node;
          push_front t node;
          Some node.value
      | None ->
          t.misses <- t.misses + 1;
          None)

(* The new entry is at the front and weighs at most the capacity, so the
   eviction loop stops before it reaches it. *)
let add ?(weight = 1) (t : _ t) key value =
  let weight = max 1 weight in
  if weight <= t.capacity then
    Mutex.protect t.mutex (fun () ->
        (match Hashtbl.find_opt t.table key with
        | Some node ->
            t.weight <- t.weight - node.weight + weight;
            node.value <- value;
            node.weight <- weight;
            unlink t node;
            push_front t node
        | None ->
            let node = { key; value; weight; prev = None; next = None } in
            Hashtbl.replace t.table key node;
            t.weight <- t.weight + weight;
            push_front t node);
        while t.weight > t.capacity do
          match t.back with
          | None -> assert false (* weight > 0 implies a back node *)
          | Some lru ->
              unlink t lru;
              Hashtbl.remove t.table lru.key;
              t.weight <- t.weight - lru.weight;
              t.evictions <- t.evictions + 1
        done)

let stats (t : _ t) =
  Mutex.protect t.mutex (fun () ->
      {
        capacity = t.capacity;
        entries = Hashtbl.length t.table;
        weight = t.weight;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
      })
