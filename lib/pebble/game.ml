module Cdag = Iolb_cdag.Cdag
module Budget = Iolb_util.Budget
module Maxheap = Iolb_util.Maxheap
module Engine_error = Iolb_util.Engine_error

(* Compiled red-white pebble engine.  Same game, same clairvoyant
   (Belady) discard policy, same heap push sequence - and therefore the
   same result on every input - as the reference engine [Game_ref], but
   the per-step machinery is flat arrays throughout:

   - the schedule's predecessor lists and each node's use positions are
     CSR (offsets + one flat array), built once per plan from the CDAG's
     own CSR export, so the step loop walks contiguous memory instead of
     chasing per-node arrays;
   - red/white pebble state is a bitset (32 bits per word), keeping the
     whole state of a multi-thousand-node game in a few cache lines;
   - all per-run state lives in a [runner] that can be reused across the
     (kernel x S x schedule) grid - the validation sweeps - without
     reallocating; [run_plan] stays thread-safe by making a fresh runner
     per call. *)

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

let is_topological cdag schedule =
  let n = Cdag.n_nodes cdag in
  let pos = Array.make n (-1) in
  (* last occurrence wins, like the Hashtbl.replace-based check did *)
  Array.iteri (fun i id -> pos.(id) <- i) schedule;
  let poff, pflat = Cdag.preds_csr cdag in
  let ok = ref true in
  Array.iteri
    (fun i id ->
      for k = poff.(id) to poff.(id + 1) - 1 do
        let p = pflat.(k) in
        if is_compute cdag p then begin
          let j = pos.(p) in
          if j < 0 || j >= i then ok := false
        end
      done)
    schedule;
  !ok && Array.length schedule = Cdag.n_computes cdag

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

let bclear b i =
  let w = i lsr 5 in
  Array.unsafe_set b w (Array.unsafe_get b w land lnot (1 lsl (i land 31)))

type plan = {
  cdag : Cdag.t;
  schedule : int array;
  n : int; (* nodes of the CDAG *)
  max_fanin : int; (* largest per-step pebble requirement, preds + 1 *)
  step_off : int array; (* CSR: predecessors of schedule.(t) *)
  step_preds : int array;
  use_off : int array; (* CSR: consume positions per node, ascending *)
  use_flat : int array;
  input_bits : int array; (* bitset: the initially-white (input) nodes *)
}

let plan cdag ~schedule =
  if not (is_topological cdag schedule) then
    invalid_arg "Game.run: schedule is not a topological order of computes";
  let n = Cdag.n_nodes cdag in
  let steps = Array.length schedule in
  let poff, pflat = Cdag.preds_csr cdag in
  let step_off = Array.make (steps + 1) 0 in
  for t = 0 to steps - 1 do
    let id = schedule.(t) in
    step_off.(t + 1) <- step_off.(t) + (poff.(id + 1) - poff.(id))
  done;
  let step_preds = Array.make (max step_off.(steps) 1) 0 in
  let use_count = Array.make n 0 in
  let max_fanin = ref 1 in
  for t = 0 to steps - 1 do
    let id = schedule.(t) in
    let lo = poff.(id) and hi = poff.(id + 1) in
    Array.blit pflat lo step_preds step_off.(t) (hi - lo);
    if hi - lo + 1 > !max_fanin then max_fanin := hi - lo + 1;
    for k = lo to hi - 1 do
      let p = pflat.(k) in
      use_count.(p) <- use_count.(p) + 1
    done
  done;
  let use_off = Array.make (n + 1) 0 in
  for id = 0 to n - 1 do
    use_off.(id + 1) <- use_off.(id) + use_count.(id)
  done;
  let use_flat = Array.make (max use_off.(n) 1) 0 in
  let fill = Array.make n 0 in
  (* filling in ascending step order leaves each node's slice sorted *)
  for t = 0 to steps - 1 do
    for k = step_off.(t) to step_off.(t + 1) - 1 do
      let p = step_preds.(k) in
      use_flat.(use_off.(p) + fill.(p)) <- t;
      fill.(p) <- fill.(p) + 1
    done
  done;
  let input_bits = Array.make (bits_words n) 0 in
  for id = 0 to n - 1 do
    if not (is_compute cdag id) then bset input_bits id
  done;
  {
    cdag;
    schedule;
    n;
    max_fanin = !max_fanin;
    step_off;
    step_preds;
    use_off;
    use_flat;
    input_bits;
  }

(* Reusable per-run state.  NOT thread-safe: one runner per domain. *)
type runner = {
  plan : plan;
  use_cursor : int array; (* per node: next unconsumed entry of its uses *)
  red : int array; (* bitset *)
  white : int array; (* bitset *)
  heap : Maxheap.t; (* lazy max-heap of (next use, node) *)
  heap_key : int array; (* per node: pos of its valid heap entry, or -2 *)
  protect : int array; (* per node: t when it must not be discarded at t *)
}

let runner plan =
  let n = plan.n in
  {
    plan;
    use_cursor = Array.make n 0;
    red = Array.make (bits_words n) 0;
    white = Array.make (bits_words n) 0;
    heap = Maxheap.create ();
    heap_key = Array.make n (-2);
    protect = Array.make n (-1);
  }

(* The per-step loops below index node-id-sized state arrays with
   [Array.unsafe_get]/[unsafe_set]: node ids are < n by the CDAG's
   construction, and use-position cursors stay within each node's use
   slice by the loop condition. *)
let run_runner ?(budget = Budget.unlimited) r ~s =
  let { n; max_fanin; schedule; step_off; step_preds; use_off; use_flat; _ }
      =
    r.plan
  in
  (* reset, rather than reallocate, the run state; each node's use
     cursor starts at its slice's base in the flat use array *)
  Array.blit use_off 0 r.use_cursor 0 n;
  Array.fill r.red 0 (Array.length r.red) 0;
  Array.blit r.plan.input_bits 0 r.white 0 (Array.length r.white);
  Maxheap.clear r.heap;
  Array.fill r.heap_key 0 n (-2);
  Array.fill r.protect 0 n (-1);
  let use_cursor = r.use_cursor in
  let red = r.red and white = r.white in
  let heap = r.heap and heap_key = r.heap_key and protect = r.protect in
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
  let next_use_after node t =
    let hi = Array.unsafe_get use_off (node + 1) in
    let c = ref (Array.unsafe_get use_cursor node) in
    while !c < hi && Array.unsafe_get use_flat !c <= t do
      incr c
    done;
    Array.unsafe_set use_cursor node !c;
    if !c < hi then Array.unsafe_get use_flat !c else max_int
  in
  let red_count = ref 0 and peak = ref 0 and loads = ref 0 in
  let set_red node pos =
    if not (bget red node) then begin
      bset red node;
      incr red_count;
      if !red_count > !peak then peak := !red_count
    end;
    Array.unsafe_set heap_key node pos;
    Maxheap.push heap ~pos ~payload:node
  in
  let discard_one t =
    (* Entries popped past (protected nodes with valid entries) must be
       re-pushed, or those nodes become permanently undiscardable. *)
    let skipped = ref [] in
    let rec pick () =
      if Maxheap.is_empty heap then
        infeasible "no discardable red pebble";
      let pos, node = Maxheap.pop heap in
      if bget red node && Array.unsafe_get heap_key node = pos then
        if Array.unsafe_get protect node <> t then node
        else begin
          skipped := (pos, node) :: !skipped;
          pick ()
        end
      else pick ()
    in
    let victim = pick () in
    List.iter
      (fun (pos, node) -> Maxheap.push heap ~pos ~payload:node)
      !skipped;
    bclear red victim;
    heap_key.(victim) <- -2;
    decr red_count
  in
  let unlimited = Budget.is_unlimited budget in
  for t = 0 to steps - 1 do
    if not unlimited then Budget.checkpoint budget Budget.Pebble_game;
    let id = Array.unsafe_get schedule t in
    let lo = Array.unsafe_get step_off t
    and hi = Array.unsafe_get step_off (t + 1) in
    for k = lo to hi - 1 do
      Array.unsafe_set protect (Array.unsafe_get step_preds k) t
    done;
    Array.unsafe_set protect id t;
    (* Bring every predecessor in fast memory. *)
    for k = lo to hi - 1 do
      let p = Array.unsafe_get step_preds k in
      if not (bget red p) then begin
        assert (bget white p);
        incr loads;
        if !red_count >= s then discard_one t;
        set_red p (next_use_after p t)
      end
      else begin
        (* refresh the heap entry with the new next use *)
        let nu = next_use_after p t in
        Array.unsafe_set heap_key p nu;
        Maxheap.push heap ~pos:nu ~payload:p
      end
    done;
    (* Compute: white + red on the node itself. *)
    if !red_count >= s then discard_one t;
    bset white id;
    set_red id (next_use_after id t)
  done;
  { loads = !loads; peak_red = !peak }

let run_plan ?budget plan ~s = run_runner ?budget (runner plan) ~s

let run ?budget cdag ~s ~schedule = run_plan ?budget (plan cdag ~schedule) ~s
