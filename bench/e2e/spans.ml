(* In-memory span recorder for the traced run.

   The harness wraps each public library call it makes in [span ~layer
   call f]; every op of a workload is a root span ([op]).  Spans are kept
   in memory and only aggregated (or written as Chrome trace-event JSON)
   after the run.  When tracing is off, [span] is a direct call and
   [count] does nothing. *)

type t = {
  id : int;
  parent : int;  (** -1 for an op root *)
  op : int;
  name : string;  (** [layer.call], or [op] for a root *)
  layer : string;
  domain : int;
  start : float;
  stop : float;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let counters : (string, float) Hashtbl.t = Hashtbl.create 64
let next_id = Atomic.make 0

(* Open spans of the calling domain, innermost first: (span id, op id). *)
let stack : (int * int) list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let reset () =
  Mutex.protect lock (fun () ->
      recorded := [];
      Hashtbl.reset counters)

let record ~op ~name ~layer f =
  let id = Atomic.fetch_and_add next_id 1 in
  let outer = Domain.DLS.get stack in
  let parent, op =
    match (outer, op) with
    | _, Some op -> (-1, op)
    | (p, o) :: _, None -> (p, o)
    | [], None -> (-1, -1)
  in
  Domain.DLS.set stack ((id, op) :: outer);
  let start = Util.now () in
  let finish () =
    let stop = Util.now () in
    Domain.DLS.set stack outer;
    let s =
      { id; parent; op; name; layer; domain = (Domain.self () :> int); start; stop }
    in
    Mutex.protect lock (fun () -> recorded := s :: !recorded)
  in
  match f () with
  | x ->
      finish ();
      x
  | exception e ->
      finish ();
      raise e

let op i f = if !enabled then record ~op:(Some i) ~name:"op" ~layer:"op" f else f ()

let span ~layer call f =
  if !enabled then record ~op:None ~name:(layer ^ "." ^ call) ~layer f
  else f ()

let count name v =
  if !enabled then
    Mutex.protect lock (fun () ->
        Hashtbl.replace counters name
          (v +. Option.value ~default:0. (Hashtbl.find_opt counters name)))

type summary = {
  ops : int;
  op_ms : float;  (** summed wall time of the op roots *)
  unattributed_ms : float;  (** summed self time of the op roots *)
  calls : (string, int) Hashtbl.t;
  self_ms : (string, float) Hashtbl.t;
  totals : (string, float) Hashtbl.t;  (** the [count]ed quantities *)
}

(* A span's self time is its duration minus the part its children cover;
   children never overlap their parent's siblings, so the sum of child
   durations is that part. *)
let summary () =
  let spans, totals =
    Mutex.protect lock (fun () -> (!recorded, Hashtbl.copy counters))
  in
  let child_ms = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ms s.parent
          (((s.stop -. s.start) *. 1000.)
          +. Option.value ~default:0. (Hashtbl.find_opt child_ms s.parent)))
    spans;
  let calls = Hashtbl.create 32 and self_ms = Hashtbl.create 32 in
  let ops = ref 0 and op_ms = ref 0. and unattributed = ref 0. in
  List.iter
    (fun s ->
      let dur = (s.stop -. s.start) *. 1000. in
      let self =
        dur -. Option.value ~default:0. (Hashtbl.find_opt child_ms s.id)
      in
      if s.parent < 0 && s.name = "op" then begin
        incr ops;
        op_ms := !op_ms +. dur;
        unattributed := !unattributed +. self
      end
      else begin
        Hashtbl.replace calls s.name
          (1 + Option.value ~default:0 (Hashtbl.find_opt calls s.name));
        Hashtbl.replace self_ms s.name
          (self +. Option.value ~default:0. (Hashtbl.find_opt self_ms s.name))
      end)
    spans;
  {
    ops = !ops;
    op_ms = !op_ms;
    unattributed_ms = !unattributed;
    calls;
    self_ms;
    totals;
  }

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let write_chrome path =
  let module Json = Iolb_util.Json in
  let spans = Mutex.protect lock (fun () -> List.rev !recorded) in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let us x = Json.Float ((x -. t0) *. 1e6) in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String s.layer);
        ("ph", Json.String "X");
        ("ts", us s.start);
        ("dur", Json.Float ((s.stop -. s.start) *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.domain);
        ( "args",
          Json.Obj
            [
              ("id", Json.Int s.id);
              ("parent", Json.Int s.parent);
              ("op", Json.Int s.op);
            ] );
      ]
  in
  Util.write_file path
    (Json.to_string (Json.Obj [ ("traceEvents", Json.List (List.map event spans)) ]))
