type stage =
  | Cdag_build
  | Pebble_game
  | Cache_sim
  | Derivation

let stage_name = function
  | Cdag_build -> "CDAG construction"
  | Pebble_game -> "pebble game"
  | Cache_sim -> "cache simulation"
  | Derivation -> "bound derivation"

let stage_index = function
  | Cdag_build -> 0
  | Pebble_game -> 1
  | Cache_sim -> 2
  | Derivation -> 3

let n_stages = 4

(* Counters are atomic so one budget can be shared by the domains of a
   Pool fan-out: caps apply to the combined work of all workers, and the
   fault hook still fires exactly once (fetch_and_add hands each
   checkpoint a unique count). *)
type t = {
  max_steps : int option;
  deadline : float option; (* absolute, Unix.gettimeofday scale *)
  max_nodes : int option;
  fault : (stage * int) option;
  steps : int Atomic.t;
  stage_counts : int Atomic.t array;
}

exception Exhausted of stage

let unlimited =
  {
    max_steps = None;
    deadline = None;
    max_nodes = None;
    fault = None;
    steps = Atomic.make 0;
    stage_counts = Array.init n_stages (fun _ -> Atomic.make 0);
  }

let make ?max_steps ?timeout_ms ?max_nodes ?fault () =
  (match max_steps with
  | Some m when m < 0 -> invalid_arg "Budget.make: max_steps < 0"
  | _ -> ());
  (match timeout_ms with
  | Some m when m < 0 -> invalid_arg "Budget.make: timeout_ms < 0"
  | _ -> ());
  (match max_nodes with
  | Some m when m < 0 -> invalid_arg "Budget.make: max_nodes < 0"
  | _ -> ());
  (match fault with
  | Some (_, k) when k < 1 -> invalid_arg "Budget.make: fault index < 1"
  | _ -> ());
  {
    max_steps;
    deadline =
      Option.map
        (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
        timeout_ms;
    max_nodes;
    fault;
    steps = Atomic.make 0;
    stage_counts = Array.init n_stages (fun _ -> Atomic.make 0);
  }

let without_node_cap t = { t with max_nodes = None }

let is_unlimited t =
  t.max_steps = None && t.deadline = None && t.max_nodes = None
  && t.fault = None

let check_deadline t stage =
  match t.deadline with
  | Some d when Unix.gettimeofday () > d -> raise (Exhausted stage)
  | _ -> ()

(* The clock is the only expensive part of a checkpoint; poll it once per
   stride.  Step and node caps stay exact.  Power of two so the reduction
   is a mask. *)
let deadline_stride = 1024

let checkpoint t stage =
  if not (is_unlimited t) then begin
    let steps = Atomic.fetch_and_add t.steps 1 + 1 in
    let i = stage_index stage in
    let stage_count = Atomic.fetch_and_add t.stage_counts.(i) 1 + 1 in
    (match t.fault with
    | Some (s, k) when s = stage && stage_count = k -> raise (Exhausted stage)
    | _ -> ());
    (match t.max_steps with
    | Some m when steps > m -> raise (Exhausted stage)
    | _ -> ());
    if steps land (deadline_stride - 1) = 0 then check_deadline t stage
  end

let check_node_cap t stage count =
  match t.max_nodes with
  | Some m when count > m -> raise (Exhausted stage)
  | _ -> ()

let steps t = Atomic.get t.steps
let stage_steps t stage = Atomic.get t.stage_counts.(stage_index stage)
