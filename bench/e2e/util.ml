(* Shared helpers of the end-to-end harness: clocks, seeded shuffles,
   order statistics, process memory and the host fingerprint. *)

module Json = Iolb_util.Json

let now = Unix.gettimeofday

(* [timed f] is [f ()] with its wall time in milliseconds. *)
let timed f =
  let t0 = now () in
  let x = f () in
  (x, (now () -. t0) *. 1000.)

(* Every seeded draw goes through one generator per (seed, stream), so the
   inputs of a run are a pure function of its seed. *)
let rng ~seed stream = Random.State.make [| seed; stream |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between order statistics (type 7); [q] in [0, 1]. *)
let percentile a q =
  match Array.length a with
  | 0 -> 0.
  | n ->
      let s = sorted a in
      let h = q *. float_of_int (n - 1) in
      let lo = truncate h in
      let hi = min (n - 1) (lo + 1) in
      s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median a = percentile a 0.5

(* Python's [statistics.quantiles(data, n=4)] (the default "exclusive"
   method), so quartiles printed here match the ones an outside reader
   computes from the same values. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld < 2 then
    let x = if ld = 1 then s.(0) else 0. in
    (x, x, x)
  else
    let m = ld + 1 and n = 4 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((s.(j - 1) *. float_of_int (n - delta)) +. (s.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (q 1, q 2, q 3)

let ratio a b = if b = 0. then 0. else a /. b

(* Peak resident set (VmHWM) of this process in MB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.starts_with ~prefix:"VmHWM:" line then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d" (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> "unknown"
        | line -> (
            match String.index_opt line ':' with
            | Some i
              when String.trim (String.sub line 0 i) = "model name" ->
                String.trim (String.sub line (i + 1) (String.length line - i - 1))
            | _ -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let host () =
  Json.Obj
    [
      ("domains", Json.Int (Domain.recommended_domain_count ()));
      ("cpu", Json.String (cpu_model ()));
      ("ocaml", Json.String Sys.ocaml_version);
    ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)
