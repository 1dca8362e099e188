module Interner = Iolb_ir.Interner
module Cplan = Iolb_ir.Cplan
module Budget = Iolb_util.Budget

type cell = string * int array

type event = Read of cell | Write of cell

type t = {
  cells : int array; (* per event: interned cell id; may be oversized *)
  writes : bool array; (* per event: write flag *)
  len : int; (* number of events; only cells.(0..len-1) are meaningful *)
  pool : Interner.t;
}

(* Shared builder: push events as (cell, is_write) pairs. *)
type builder = {
  mutable ids : int array;
  mutable flags : bool array;
  mutable len : int;
  p : Interner.t;
}

let builder size =
  {
    ids = Array.make (max size 16) 0;
    flags = Array.make (max size 16) false;
    p = Interner.create ();
    len = 0;
  }

let push_id b id is_write =
  if b.len = Array.length b.ids then begin
    let cap = 2 * b.len in
    let ids = Array.make cap 0 and flags = Array.make cap false in
    Array.blit b.ids 0 ids 0 b.len;
    Array.blit b.flags 0 flags 0 b.len;
    b.ids <- ids;
    b.flags <- flags
  end;
  b.ids.(b.len) <- id;
  b.flags.(b.len) <- is_write;
  b.len <- b.len + 1

let push b cell is_write = push_id b (Interner.intern b.p cell) is_write

(* The builder's (possibly oversized) arrays are adopted as-is: freezing a
   multi-hundred-thousand-event trace must not copy it. *)
let freeze b = { cells = b.ids; writes = b.flags; len = b.len; pool = b.p }

(* Address-space cap for compiled (dense-address) production: consumers
   index flat [Cplan.addr_space]-sized remap tables, one per domain in
   the sharded sweep, so pathologically sparse hulls (giant strides
   around a tiny footprint) must not allocate gigabytes.  2^23 entries =
   64 MB of table at most; beyond that the interpreter's per-access
   hashing is the better trade.  The sampled sweep allocates no table
   and uses any plan [Cplan.make] accepts. *)
let max_dense_addr_space = 1 lsl 23

let dense_plan ~params p =
  match
    let plan = Cplan.make ~params p in
    if Cplan.addr_space plan > max_dense_addr_space then None else Some plan
  with
  | (exception Invalid_argument _) ->
      (* a hull leaves 63-bit integers: the plan cannot lay this program
         out; interpret it instead *)
      None
  | r -> r

let instance_gate budget =
  if Budget.is_unlimited budget then ignore
  else
    let ninst = ref 0 in
    fun () ->
      Budget.checkpoint budget Budget.Cdag_build;
      incr ninst;
      Budget.check_node_cap budget Budget.Cdag_build !ninst

let of_program ?(budget = Budget.unlimited) ~params p =
  (* Exact pre-count (closed-form over the loop nest): the arrays never
     grow, so a multi-hundred-thousand-event trace costs one allocation
     and zero copies.  Events come from the compiled producer when the
     program admits one - flat address arithmetic, one [decode]+intern
     per DISTINCT cell instead of one hash per event - and otherwise
     from the reference interpreter, interning every access.  Either way
     the budget gate is the same: one [Cdag_build] checkpoint per
     statement instance, counted against the node cap. *)
  let n = Iolb_ir.Program.n_accesses ~params p in
  let b = builder n in
  let on_instance = instance_gate budget in
  (match dense_plan ~params p with
  | Some plan ->
      let remap = Array.make (max (Cplan.addr_space plan) 1) (-1) in
      let ids = b.ids and flags = b.flags in
      let len = ref 0 in
      Cplan.iter plan ~lo:0 ~hi:n ~on_instance ~on_access:(fun _pos addr w ->
          let id =
            match Array.unsafe_get remap addr with
            | -1 ->
                let id = Interner.intern b.p (Cplan.decode plan addr) in
                remap.(addr) <- id;
                id
            | id -> id
          in
          Array.unsafe_set ids !len id;
          Array.unsafe_set flags !len w;
          incr len);
      b.len <- !len
  | None ->
      Iolb_ir.Program.iter_accesses ~params p ~on_instance
        ~on_access:(fun name idx w ->
          push_id b (Interner.intern_view b.p name idx) w));
  freeze b

let of_events evs =
  let b = builder (List.length evs) in
  List.iter
    (function Read c -> push b c false | Write c -> push b c true)
    evs;
  freeze b

let length (t : t) = t.len
let footprint t = Interner.count t.pool
let cell_id t i = t.cells.(i)
let is_write t i = t.writes.(i)
let cells (t : t) = t.cells
let write_flags (t : t) = t.writes
