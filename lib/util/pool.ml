let default_jobs () =
  match Sys.getenv_opt "IOLB_JOBS" with
  | None | Some "" -> Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ ->
          invalid_arg
            (Printf.sprintf "IOLB_JOBS must be a positive integer, got %S" s))

type 'b slot = Pending | Done of 'b | Failed of exn * Printexc.raw_backtrace

let map ?jobs f xs =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.map: jobs < 1";
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when jobs = 1 -> List.map f xs
  | _ ->
      let tasks = Array.of_list xs in
      let n = Array.length tasks in
      let results = Array.make n Pending in
      let next = Atomic.make 0 in
      let worker () =
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (results.(i) <-
               (match f tasks.(i) with
               | v -> Done v
               | exception e -> Failed (e, Printexc.get_raw_backtrace ())));
            loop ()
          end
        in
        loop ()
      in
      (* Spawn helpers one at a time so a failing [Domain.spawn] (domain
         limit, resources) cannot leave already-spawned domains behind
         unjoined: whatever was spawned is on the list and joined below,
         and every task still completes because this domain works through
         the shared index regardless of how many helpers came up.

         Helpers are clamped to the hardware parallelism: [jobs] governs
         the work decomposition (callers derive shard counts from it, and
         results are partition-independent by contract), but spawning
         more domains than cores only multiplies minor-GC stop-the-world
         barriers - on a single-core host, [--jobs 4] used to make the
         sharded sweep slower than the sequential one for exactly this
         reason. *)
      let hw = Domain.recommended_domain_count () in
      let domains = ref [] in
      (try
         for _ = 2 to min (min jobs n) hw do
           domains := Domain.spawn worker :: !domains
         done
       with _ -> ());
      worker ();
      let join_failure = ref None in
      List.iter
        (fun d ->
          try Domain.join d
          with e ->
            if !join_failure = None then
              join_failure := Some (e, Printexc.get_raw_backtrace ()))
        !domains;
      (* Every domain is joined before any failure propagates, so a raising
         [f] can neither leak a domain nor deadlock the joiner. *)
      (match !join_failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ());
      Array.iter
        (function
          | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
          | Pending | Done _ -> ())
        results;
      Array.to_list
        (Array.map
           (function Done v -> v | Pending | Failed _ -> assert false)
           results)

let iter ?jobs f xs = ignore (map ?jobs f xs)

let split ~shards n =
  if shards < 1 then invalid_arg "Pool.split: shards < 1";
  if n < 0 then invalid_arg "Pool.split: n < 0";
  let shards = min shards (max n 1) in
  let base = n / shards and extra = n mod shards in
  (* First [extra] shards get one more element; bounds are a pure function
     of (shards, n), independent of who executes which shard. *)
  let lo = ref 0 in
  List.init shards (fun i ->
      let len = base + if i < extra then 1 else 0 in
      let r = (!lo, !lo + len) in
      lo := !lo + len;
      r)

(* ------------------------------------------------------------------ *)
(* Bounded queue.                                                      *)

module Bounded_queue = struct
  type 'a t = {
    items : 'a Queue.t;
    capacity : int;
    mutex : Mutex.t;
    not_empty : Condition.t;
    mutable closed : bool;
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Pool.Bounded_queue.create: capacity < 1";
    {
      items = Queue.create ();
      capacity;
      mutex = Mutex.create ();
      not_empty = Condition.create ();
      closed = false;
    }

  let try_push t x =
    Mutex.protect t.mutex (fun () ->
        if t.closed || Queue.length t.items >= t.capacity then false
        else begin
          Queue.add x t.items;
          Condition.signal t.not_empty;
          true
        end)

  let pop t =
    Mutex.protect t.mutex (fun () ->
        let rec wait () =
          if not (Queue.is_empty t.items) then Some (Queue.pop t.items)
          else if t.closed then None
          else begin
            Condition.wait t.not_empty t.mutex;
            wait ()
          end
        in
        wait ())

  let close t =
    Mutex.protect t.mutex (fun () ->
        t.closed <- true;
        Condition.broadcast t.not_empty)

  let length t = Mutex.protect t.mutex (fun () -> Queue.length t.items)
  let capacity t = t.capacity
end

(* ------------------------------------------------------------------ *)
(* Long-running worker group with crash respawn.                       *)

module Workers = struct
  type t = {
    mutex : Mutex.t;
    mutable domains : unit Domain.t list;  (** every domain ever spawned *)
    mutable stopping : bool;
    respawn_count : int Atomic.t;
    on_crash : worker:int -> exn -> unit;
    body : int -> unit;
  }

  (* The shell around one worker slot: run the body; if it returns the
     worker is done (its input source is closed).  If it raises, report
     the crash and spawn a replacement into the group - unless the group
     is already stopping.  The dying domain itself exits normally after
     arranging its succession, so [join] never sees an exception from a
     crash that was already reported through [on_crash]. *)
  let rec shell t i () =
    match t.body i with
    | () -> ()
    | exception e ->
        (try t.on_crash ~worker:i e with _ -> ());
        Mutex.protect t.mutex (fun () ->
            if not t.stopping then begin
              Atomic.incr t.respawn_count;
              t.domains <- Domain.spawn (shell t i) :: t.domains
            end)

  let spawn ~jobs ?(on_crash = fun ~worker:_ _ -> ()) body =
    if jobs < 1 then invalid_arg "Pool.Workers.spawn: jobs < 1";
    let t =
      {
        mutex = Mutex.create ();
        domains = [];
        stopping = false;
        respawn_count = Atomic.make 0;
        on_crash;
        body;
      }
    in
    Mutex.protect t.mutex (fun () ->
        t.domains <- List.init jobs (fun i -> Domain.spawn (shell t i)));
    t

  let respawns t = Atomic.get t.respawn_count

  let join t =
    Mutex.protect t.mutex (fun () -> t.stopping <- true);
    (* Respawns racing ahead of the [stopping] flag landed on the list
       under the same mutex, so draining until the list stays empty joins
       every domain the group ever created. *)
    let rec drain () =
      match
        Mutex.protect t.mutex (fun () ->
            let ds = t.domains in
            t.domains <- [];
            ds)
      with
      | [] -> ()
      | ds ->
          List.iter (fun d -> try Domain.join d with _ -> ()) ds;
          drain ()
    in
    drain ()
end
