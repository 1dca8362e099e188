module Cdag = Iolb_cdag.Cdag
module Budget = Iolb_util.Budget
module Maxheap = Iolb_util.Maxheap
module Engine_error = Iolb_util.Engine_error

(* Compiled red-white pebble engine: the game and clairvoyant (Belady)
   discard policy of the reference engine [Game_ref], on flat arrays.

   - A plan compiles the schedule to CSR predecessor lists and, in one
     backward scan, two S-independent next-use tables: per predecessor
     slot of step t the next step after t reading it, and per step the
     first step reading its result.
   - A runner holds the red pebbles in a [Next_use_heap] keyed by next
     use (at most S entries, O(log S) an access; [Cache.opt_run] is the
     heap's other client); white pebbles are a bitset.  A red
     predecessor of step t is keyed t, the smallest key a red node can
     have, so the top is the victim and a top keyed t means every red
     pebble is needed now.  After the compute each predecessor's key
     grows to its next use.  Runners are reused across S-sweeps;
     [run_plan] makes a fresh one per call, which keeps it thread-safe.

   Ties between equal keys break by heap position here and by push order
   in [Game_ref]; [loads] and [peak_red] do not depend on it.  Two nodes
   with the same finite key are both read, and both protected, at that
   step t'.  Until t' the runs differ only by a swap of the two, and at
   t' both are red again in both runs.  Nodes keyed [max_int] are dead.
   The [game-compiled] oracle checks the equality. *)

type result = { loads : int; peak_red : int }

let infeasible msg = Engine_error.raise_error (Engine_error.Invalid_input msg)

let is_compute cdag id =
  match Cdag.kind cdag id with Cdag.Compute _ -> true | Cdag.Input _ -> false

let program_schedule cdag =
  let order = Cdag.program_order cdag in
  let out = Array.make (max (Cdag.n_computes cdag) 1) 0 in
  let k = ref 0 in
  Array.iter
    (fun id ->
      if is_compute cdag id then begin
        out.(!k) <- id;
        incr k
      end)
    order;
  Array.sub out 0 !k

(* Inputs are available from the start and a compute once scheduled, so
   each id must be in range, not yet available, and have every
   predecessor available: with the length check, the schedule is then a
   topological permutation of the compute nodes. *)
let is_topological cdag schedule =
  let n = Cdag.n_nodes cdag in
  let avail = Array.init n (fun id -> not (is_compute cdag id)) in
  let poff, pflat = Cdag.preds_csr cdag in
  let ok = ref (Array.length schedule = Cdag.n_computes cdag) in
  Array.iter
    (fun id ->
      if !ok then
        if id < 0 || id >= n || avail.(id) then ok := false
        else begin
          for k = poff.(id) to poff.(id + 1) - 1 do
            if not avail.(pflat.(k)) then ok := false
          done;
          avail.(id) <- true
        end)
    schedule;
  !ok

let random_topological ?(seed = 0) cdag =
  let state = Random.State.make [| seed |] in
  let n = Cdag.n_nodes cdag in
  let remaining_preds = Array.make n 0 in
  let ready = ref [] in
  for id = 0 to n - 1 do
    if is_compute cdag id then begin
      let cnt =
        Array.fold_left
          (fun acc p -> if is_compute cdag p then acc + 1 else acc)
          0 (Cdag.preds cdag id)
      in
      remaining_preds.(id) <- cnt;
      if cnt = 0 then ready := id :: !ready
    end
  done;
  let out = ref [] in
  let ready = ref (Array.of_list !ready) in
  let ready_len = ref (Array.length !ready) in
  while !ready_len > 0 do
    let pick = Random.State.int state !ready_len in
    let id = !ready.(pick) in
    !ready.(pick) <- !ready.(!ready_len - 1);
    decr ready_len;
    out := id :: !out;
    Array.iter
      (fun s ->
        if is_compute cdag s then begin
          remaining_preds.(s) <- remaining_preds.(s) - 1;
          if remaining_preds.(s) = 0 then begin
            if !ready_len = Array.length !ready then begin
              let bigger = Array.make (max 4 (2 * !ready_len)) 0 in
              Array.blit !ready 0 bigger 0 !ready_len;
              ready := bigger
            end;
            !ready.(!ready_len) <- s;
            incr ready_len
          end
        end)
      (Cdag.succs cdag id)
  done;
  Array.of_list (List.rev !out)

let priority_topological cdag ~priority =
  let n = Cdag.n_nodes cdag in
  let remaining_preds = Array.make n 0 in
  (* Min-heap via Maxheap on negated priorities. *)
  let heap = Maxheap.create () in
  let prio_of id =
    match Cdag.kind cdag id with
    | Cdag.Compute (stmt, vec) -> priority ~stmt ~vec
    | Cdag.Input _ -> assert false
  in
  for id = 0 to n - 1 do
    if is_compute cdag id then begin
      let cnt =
        Array.fold_left
          (fun acc p -> if is_compute cdag p then acc + 1 else acc)
          0 (Cdag.preds cdag id)
      in
      remaining_preds.(id) <- cnt;
      if cnt = 0 then Maxheap.push heap ~pos:(-prio_of id) ~payload:id
    end
  done;
  let out = ref [] in
  while not (Maxheap.is_empty heap) do
    let _, id = Maxheap.pop heap in
    out := id :: !out;
    Array.iter
      (fun succ ->
        if is_compute cdag succ then begin
          remaining_preds.(succ) <- remaining_preds.(succ) - 1;
          if remaining_preds.(succ) = 0 then
            Maxheap.push heap ~pos:(-prio_of succ) ~payload:succ
        end)
      (Cdag.succs cdag id)
  done;
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Bitset helpers: 32 live bits per word, so index arithmetic is pure
   shifts and masks (OCaml ints carry 63 bits; using 32 keeps the bit
   index below every word's tag-free range on both word sizes). *)

let bits_words n = (n lsr 5) + 1

let bget b i =
  (Array.unsafe_get b (i lsr 5) lsr (i land 31)) land 1 <> 0

let bset b i =
  let w = i lsr 5 in
  Array.unsafe_set b w (Array.unsafe_get b w lor (1 lsl (i land 31)))

type plan = {
  schedule : int array;
  n : int; (* nodes of the CDAG *)
  max_fanin : int; (* largest per-step pebble requirement, preds + 1 *)
  step_off : int array; (* CSR: predecessors of schedule.(t) *)
  step_preds : int array;
  step_next : int array; (* per CSR slot of step t: next step after t
                            reading that predecessor, or max_int *)
  node_next : int array; (* per step t: first step reading schedule.(t),
                            or max_int *)
  input_bits : int array; (* bitset: the initially-white (input) nodes *)
}

let plan cdag ~schedule =
  if not (is_topological cdag schedule) then
    invalid_arg "Game.run: schedule is not a topological order of computes";
  let n = Cdag.n_nodes cdag in
  let steps = Array.length schedule in
  let poff, pflat = Cdag.preds_csr cdag in
  let step_off = Array.make (steps + 1) 0 in
  let max_fanin = ref 1 in
  for t = 0 to steps - 1 do
    let id = schedule.(t) in
    let fanin = poff.(id + 1) - poff.(id) in
    step_off.(t + 1) <- step_off.(t) + fanin;
    if fanin + 1 > !max_fanin then max_fanin := fanin + 1
  done;
  let step_preds = Array.make step_off.(steps) 0 in
  let step_next = Array.make step_off.(steps) max_int in
  let node_next = Array.make steps max_int in
  (* backward scan: upcoming.(v) is the first step after t that reads v;
     all of step t's slots read it before step t itself is recorded, so
     a predecessor listed twice gets the same next use in both slots *)
  let upcoming = Array.make n max_int in
  for t = steps - 1 downto 0 do
    let id = schedule.(t) in
    let lo = step_off.(t) and hi = step_off.(t + 1) in
    Array.blit pflat poff.(id) step_preds lo (hi - lo);
    for k = lo to hi - 1 do
      step_next.(k) <- upcoming.(step_preds.(k))
    done;
    node_next.(t) <- upcoming.(id);
    for k = lo to hi - 1 do
      upcoming.(step_preds.(k)) <- t
    done
  done;
  let input_bits = Array.make (bits_words n) 0 in
  for id = 0 to n - 1 do
    if not (is_compute cdag id) then bset input_bits id
  done;
  { schedule; n; max_fanin = !max_fanin; step_off; step_preds; step_next;
    node_next; input_bits }

(* Reusable per-run state.  NOT thread-safe: one runner per domain. *)
type runner = {
  plan : plan;
  white : int array; (* bitset *)
  red : Next_use_heap.t; (* red nodes keyed by next use *)
}

let runner plan =
  let n = plan.n in
  {
    plan;
    white = Array.make (bits_words n) 0;
    red = Next_use_heap.create ~capacity:n ~items:n;
  }

(* The per-step loops below index the plan's arrays with
   [Array.unsafe_get]: node ids are < n by the CDAG's construction, and
   CSR slots stay within their step's range by the loop bounds. *)
let run_runner ?(budget = Budget.unlimited) r ~s =
  let { max_fanin; schedule; step_off; step_preds; step_next; node_next; _ }
      =
    r.plan
  in
  let { white; red; _ } = r in
  let hslot = red.Next_use_heap.slot in
  (* reset, rather than reallocate, the run state *)
  Array.blit r.plan.input_bits 0 white 0 (Array.length white);
  Next_use_heap.reset red;
  let steps = Array.length schedule in
  (* the cheapest feasibility check first: the widest step's fan-in *)
  if steps > 0 && max_fanin > s then begin
    (* report the FIRST offending step, as the per-step check did *)
    let t = ref 0 in
    while step_off.(!t + 1) - step_off.(!t) + 1 <= s do
      incr t
    done;
    infeasible
      (Printf.sprintf "node %d needs %d red pebbles but S = %d"
         schedule.(!t)
         (step_off.(!t + 1) - step_off.(!t) + 1)
         s)
  end;
  let loads = ref 0 in
  (* Place a red pebble on [node]: beside the others while fewer than S,
     else instead of the one read furthest in the future, the heap top.
     A top keyed t means every red pebble is a predecessor of step t. *)
  let place_red t node key =
    if red.len < s then Next_use_heap.insert red node ~key
    else if Next_use_heap.top_key red <= t then
      infeasible "no discardable red pebble"
    else ignore (Next_use_heap.replace_top red node ~key)
  in
  let unlimited = Budget.is_unlimited budget in
  for t = 0 to steps - 1 do
    if not unlimited then Budget.checkpoint budget Budget.Pebble_game;
    let lo = Array.unsafe_get step_off t
    and hi = Array.unsafe_get step_off (t + 1) in
    (* Bring every predecessor in fast memory; a red one is keyed t. *)
    for k = lo to hi - 1 do
      let p = Array.unsafe_get step_preds k in
      if Array.unsafe_get hslot p < 0 then begin
        assert (bget white p);
        incr loads;
        place_red t p t
      end
    done;
    (* Compute: white + red on the node itself, then each predecessor's
       key grows to its next use. *)
    let id = Array.unsafe_get schedule t in
    bset white id;
    place_red t id (Array.unsafe_get node_next t);
    for k = lo to hi - 1 do
      Next_use_heap.update red
        (Array.unsafe_get step_preds k)
        ~key:(Array.unsafe_get step_next k)
    done
  done;
  (* A pebble is discarded only to make room for another, so the red
     count never falls and the peak is the final count. *)
  { loads = !loads; peak_red = red.len }

let run_plan ?budget plan ~s = run_runner ?budget (runner plan) ~s

let run ?budget cdag ~s ~schedule = run_plan ?budget (plan cdag ~schedule) ~s
