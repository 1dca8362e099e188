module Cplan = Iolb_ir.Cplan
module Budget = Iolb_util.Budget

type cell = string * int array

type event = Read of cell | Write of cell

type t = {
  cells : int array; (* per event: cell id, by first occurrence *)
  writes : bool array; (* per event: write flag *)
  footprint : int;
}

let of_program ?(budget = Budget.unlimited) ~params p =
  (* One numbered walk of the whole stream, into arrays sized by the
     exact closed-form pre-count: a multi-hundred-thousand-event trace
     costs one allocation and zero copies.  The node cap is checked on
     the closed-form instance count before that allocation, so a capped
     build of a huge trace stops before it asks for the memory. *)
  let plan = Cplan.make ~params p in
  let n = Cplan.n_accesses plan in
  if not (Budget.is_unlimited budget) then
    Budget.check_node_cap budget Budget.Cdag_build (Cplan.n_instances plan);
  let cells = Array.make n 0 and writes = Array.make n false in
  let len = ref 0 in
  (* [iter] emits at most [hi - lo = n] accesses: the stores stay in
     bounds *)
  let found =
    Cplan.iter plan ~budget ~lo:0 ~hi:n ~on_access:(fun id w ->
        Array.unsafe_set cells !len id;
        Array.unsafe_set writes !len w;
        incr len)
  in
  { cells; writes; footprint = Cplan.footprint found }

let of_events evs =
  let module Interner = Iolb_ir.Interner in
  let pool = Interner.create () in
  let n = List.length evs in
  let cells = Array.make n 0 and writes = Array.make n false in
  List.iteri
    (fun i ev ->
      let c, w = match ev with Read c -> (c, false) | Write c -> (c, true) in
      cells.(i) <- Interner.intern pool c;
      writes.(i) <- w)
    evs;
  { cells; writes; footprint = Interner.count pool }

let length t = Array.length t.cells
let footprint t = t.footprint
let cell_id t i = t.cells.(i)
let is_write t i = t.writes.(i)
let cells t = t.cells
let write_flags t = t.writes
