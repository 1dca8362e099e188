module Cdag = Iolb_cdag.Cdag
module Budget = Iolb_util.Budget

type result = { loads : int; peak_red : int }

exception Infeasible of string

let is_compute cdag id =
  match Cdag.kind cdag id with Cdag.Compute _ -> true | Cdag.Input _ -> false

let program_schedule cdag =
  Array.of_list
    (List.filter (is_compute cdag) (Array.to_list (Cdag.program_order cdag)))

let is_topological cdag schedule =
  let n = Cdag.n_nodes cdag in
  let pos = Hashtbl.create (Array.length schedule) in
  Array.iteri (fun i id -> Hashtbl.replace pos id i) schedule;
  let ok = ref true in
  Array.iteri
    (fun i id ->
      (* an in-range compute, listed once (the last occurrence won) *)
      if id < 0 || id >= n || (not (is_compute cdag id))
         || Hashtbl.find pos id <> i
      then ok := false
      else
        Array.iter
          (fun p ->
            if is_compute cdag p then
              match Hashtbl.find_opt pos p with
              | Some j when j < i -> ()
              | _ -> ok := false)
          (Cdag.preds cdag id))
    schedule;
  !ok
  && Array.length schedule
     = List.length
         (List.filter (is_compute cdag) (Array.to_list (Cdag.program_order cdag)))

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
  let heap = Iolb_util.Maxheap.create () in
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
      if cnt = 0 then
        Iolb_util.Maxheap.push heap ~pos:(-prio_of id) ~payload:id
    end
  done;
  let out = ref [] in
  while not (Iolb_util.Maxheap.is_empty heap) do
    let _, id = Iolb_util.Maxheap.pop heap in
    out := id :: !out;
    Array.iter
      (fun succ ->
        if is_compute cdag succ then begin
          remaining_preds.(succ) <- remaining_preds.(succ) - 1;
          if remaining_preds.(succ) = 0 then
            Iolb_util.Maxheap.push heap ~pos:(-prio_of succ) ~payload:succ
        end)
      (Cdag.succs cdag id)
  done;
  Array.of_list (List.rev !out)

type plan = {
  cdag : Cdag.t;
  schedule : int array;
  use_positions : int array array;
}

let plan cdag ~schedule =
  if not (is_topological cdag schedule) then
    invalid_arg "Game.run: schedule is not a topological order of computes";
  let n = Cdag.n_nodes cdag in
  (* Positions at which each node's value is consumed, in schedule order. *)
  let use_positions = Array.make n [] in
  Array.iteri
    (fun t id ->
      Array.iter (fun p -> use_positions.(p) <- t :: use_positions.(p)) (Cdag.preds cdag id))
    schedule;
  let use_positions = Array.map (fun l -> Array.of_list (List.rev l)) use_positions in
  { cdag; schedule; use_positions }

(* The per-step loops below index node-id-sized state arrays with
   [Array.unsafe_get]/[unsafe_set]: node ids are < n by the CDAG's
   construction, and use-position cursors stay within each node's use
   array by the loop condition. *)
let run_plan ?(budget = Budget.unlimited) { cdag; schedule; use_positions } ~s =
  let n = Cdag.n_nodes cdag in
  let use_cursor = Array.make n 0 in
  let next_use_after node t =
    let uses = Array.unsafe_get use_positions node in
    let len = Array.length uses in
    let c = ref (Array.unsafe_get use_cursor node) in
    while !c < len && Array.unsafe_get uses !c <= t do
      incr c
    done;
    Array.unsafe_set use_cursor node !c;
    if !c < len then Array.unsafe_get uses !c else max_int
  in
  let red = Array.make n false in
  let white = Array.make n false in
  (* Inputs start white. *)
  for id = 0 to n - 1 do
    if not (is_compute cdag id) then white.(id) <- true
  done;
  let red_count = ref 0 and peak = ref 0 and loads = ref 0 in
  (* Lazy max-heap of (next use position, node) for Belady discarding. *)
  let heap = Iolb_util.Maxheap.create () in
  let heap_key = Array.make n (-2) in
  (* heap_key.(node) = pos of the valid heap entry for node, or -2. *)
  let set_red node pos =
    if not (Array.unsafe_get red node) then begin
      Array.unsafe_set red node true;
      incr red_count;
      if !red_count > !peak then peak := !red_count
    end;
    Array.unsafe_set heap_key node pos;
    Iolb_util.Maxheap.push heap ~pos ~payload:node
  in
  let protect = Array.make n (-1) in
  (* protect.(node) = t when the node must not be discarded at step t. *)
  let discard_one t =
    (* Entries popped past (protected nodes with valid entries) must be
       re-pushed, or those nodes become permanently undiscardable. *)
    let skipped = ref [] in
    let rec pick () =
      if Iolb_util.Maxheap.is_empty heap then
        raise (Infeasible "no discardable red pebble");
      let pos, node = Iolb_util.Maxheap.pop heap in
      if Array.unsafe_get red node && Array.unsafe_get heap_key node = pos then
        if Array.unsafe_get protect node <> t then node
        else begin
          skipped := (pos, node) :: !skipped;
          pick ()
        end
      else pick ()
    in
    let victim = pick () in
    List.iter
      (fun (pos, node) -> Iolb_util.Maxheap.push heap ~pos ~payload:node)
      !skipped;
    red.(victim) <- false;
    heap_key.(victim) <- -2;
    decr red_count
  in
  let unlimited = Budget.is_unlimited budget in
  Array.iteri
    (fun t id ->
      if not unlimited then Budget.checkpoint budget Budget.Pebble_game;
      let preds = Cdag.preds cdag id in
      let needed = Array.length preds + 1 in
      if needed > s then
        raise
          (Infeasible
             (Printf.sprintf "node %d needs %d red pebbles but S = %d" id
                needed s));
      Array.iter (fun p -> Array.unsafe_set protect p t) preds;
      Array.unsafe_set protect id t;
      (* Bring every predecessor in fast memory. *)
      Array.iter
        (fun p ->
          if not (Array.unsafe_get red p) then begin
            assert white.(p);
            incr loads;
            if !red_count >= s then discard_one t;
            set_red p (next_use_after p t)
          end
          else begin
            (* refresh the heap entry with the new next use *)
            let nu = next_use_after p t in
            Array.unsafe_set heap_key p nu;
            Iolb_util.Maxheap.push heap ~pos:nu ~payload:p
          end)
        preds;
      (* Compute: white + red on the node itself. *)
      if !red_count >= s then discard_one t;
      white.(id) <- true;
      set_red id (next_use_after id t))
    schedule;
  { loads = !loads; peak_red = !peak }

let run ?budget cdag ~s ~schedule = run_plan ?budget (plan cdag ~schedule) ~s
