(* The shape every workload shares, and the closed loop that drives it. *)

type config = {
  root : string;  (** repository root: kernel sources, goldens *)
  seed : int;
  smoke : bool;  (** tiny instances and op counts, for the test suite *)
}

(* One timed op.  [ms] covers the library calls only; the reference check
   runs after the clock stops and sets [ok]. *)
type sample = { kind : string; ms : float; ok : bool }

type instance = {
  callers : int;  (** closed-loop callers, each waiting for its own reply *)
  round : int;
      (** ops per round: every round holds the workload's full op mix in
          a seeded order, and runs end on a round boundary *)
  op : traced:bool -> caller:int -> int -> sample;
      (** op [i] of the seeded sequence, issued by caller [caller] *)
  check : sample array -> unit;
      (** checks deferred to after the loops, given every timed sample *)
  layers : sample array -> (string * float) list;
      (** workload-specific per-layer metrics, from the traced samples *)
  extras : sample array -> float -> (string * float) list;
      (** workload-specific figures for the detail line: samples, wall s *)
  teardown : unit -> unit;
}

type t = { name : string; setup : config -> instance }

let errors : string list ref = ref []
let errors_lock = Mutex.create ()

(* Mismatches are kept (the first few are printed) and turn the run's
   [correct] to false. *)
let fail fmt =
  Printf.ksprintf
    (fun msg -> Mutex.protect errors_lock (fun () -> errors := msg :: !errors))
    fmt

let expect ok fmt =
  Printf.ksprintf (fun msg -> if not ok then fail "%s" msg) fmt

(* [sequence ~seed base] maps op index [i] to its op: the sequence is made
   of rounds, each a seeded permutation of [base] (the round's op mix).
   The permutation of the current round is cached per domain. *)
let sequence ~seed base =
  let n = Array.length base in
  let cache = Domain.DLS.new_key (fun () -> (-1, [||])) in
  fun i ->
    let r = i / n in
    let perm =
      match Domain.DLS.get cache with
      | r', perm when r' = r -> perm
      | _ ->
          let perm = Util.shuffle (Util.rng ~seed (1000 + r)) base in
          Domain.DLS.set cache (r, perm);
          perm
    in
    perm.(i mod n)

type stop = Seconds of float | Ops of int

type run = {
  samples : sample array;
  rounds : (sample array * float) list;
      (** the complete rounds in order, each with its span in seconds:
          from its first op's start to its last op's end *)
  wall : float;
  next : int;  (** first op index after this run *)
}

(* Runs ops [first], [first + 1], ... from [callers] domains until the
   stop condition: a fixed op count, or a deadline after which the round
   in progress is completed so the op mix stays exact. *)
let run_loop inst ~traced ~first stop =
  let next = Atomic.make first in
  let limit =
    Atomic.make (match stop with Ops n -> first + n | Seconds _ -> max_int)
  in
  let deadline =
    match stop with Seconds s -> Util.now () +. s | Ops _ -> infinity
  in
  let round_up i = (i + inst.round - 1) / inst.round * inst.round in
  let caller c () =
    let out = ref [] in
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Atomic.get limit then begin
        let t0 = Util.now () in
        let s = Spans.op i (fun () -> inst.op ~traced ~caller:c i) in
        let t1 = Util.now () in
        out := (i / inst.round, t0, t1, s) :: !out;
        if t1 >= deadline then
          ignore
            (Atomic.compare_and_set limit max_int (round_up (Atomic.get next)));
        go ()
      end
    in
    go ();
    !out
  in
  let t0 = Util.now () in
  let outs =
    if inst.callers = 1 then [ caller 0 () ]
    else
      List.init inst.callers (fun c -> Domain.spawn (caller c))
      |> List.map Domain.join
  in
  let wall = Util.now () -. t0 in
  let ops = List.concat outs in
  let rounds = Hashtbl.create 64 in
  List.iter
    (fun (r, t0, t1, s) ->
      let l, a, b =
        Option.value ~default:([], infinity, neg_infinity) (Hashtbl.find_opt rounds r)
      in
      Hashtbl.replace rounds r (s :: l, Float.min a t0, Float.max b t1))
    ops;
  {
    samples = Array.of_list (List.map (fun (_, _, _, s) -> s) ops);
    rounds =
      Hashtbl.fold
        (fun r (l, a, b) acc -> if List.length l = inst.round then (r, l, b -. a) :: acc else acc)
        rounds []
      |> List.sort (fun (r, _, _) (r', _, _) -> Int.compare r r')
      |> List.map (fun (_, l, span) -> (Array.of_list l, span));
    wall;
    next = min (Atomic.get next) (Atomic.get limit);
  }

(* [append a b] is run [a] followed by run [b]. *)
let append a b =
  {
    samples = Array.append a.samples b.samples;
    rounds = a.rounds @ b.rounds;
    wall = a.wall +. b.wall;
    next = b.next;
  }

(* Up to 9 groups of consecutive complete rounds, each with its summed
   round span. *)
let groups run =
  let rounds = Array.of_list run.rounds in
  let n = Array.length rounds in
  let k = min 9 n in
  Array.init k (fun g ->
      let members = Array.sub rounds (g * n / k) (((g + 1) * n / k) - (g * n / k)) in
      ( Array.concat (Array.to_list (Array.map fst members)),
        Array.fold_left (fun acc (_, span) -> acc +. span) 0. members ))

(* [grouped run f] is the median of [f] over the [groups] of the run ([f]
   of all samples when no round completed).  Every group holds the full op
   mix, so a systematic cost shows in each group, while a host stall
   confined to a minority of groups does not move the result. *)
let grouped run f =
  match groups run with
  | [||] -> f run.samples run.wall
  | gs -> Util.median (Array.map (fun (samples, span) -> f samples span) gs)
