(** Typed errors for the engine's public entry points.

    The engine raises {!Error} for failures it classifies itself (an
    unknown kernel in [Report.find], an infeasible S in [Game.run], a
    ladder with no answering rung in [Report.analyze]).  Callers put the
    no-raise boundary at the call site with {!guard}, which also
    classifies [Invalid_argument], [Not_found] and [Budget.Exhausted];
    only [Derive.analyze_ladder] returns a result itself, because its
    degradation is its value.  Every failure ends in one of four
    constructors with a stable exit-code contract:

    - [Invalid_input]: the request itself is malformed (unknown kernel,
      incompatible sizes, block size not dividing the matrix, ...).
      Retrying without changing the input cannot succeed.  Exit code 2.
    - [Budget_exhausted]: the work or deadline budget ran out in the given
      stage.  Retrying with a larger budget may succeed.  Exit code 3.
    - [Unsupported]: the input is well-formed but outside the engine's
      scope (e.g. no derivable bound of the requested kind).  Exit code 4.
    - [Internal]: an invariant was violated; a bug.  Exit code 5. *)

type t =
  | Budget_exhausted of Budget.stage
  | Invalid_input of string
  | Unsupported of string
  | Internal of string

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Process exit code for the CLI: 2, 3, 4, 5 as documented above
    (0 is success; 124/125 are cmdliner's own CLI-parse errors). *)
val exit_code : t -> int

(** Exception carrier for the engine's typed failures; {!guard} and
    {!protect} unwrap it back into the typed error. *)
exception Error of t

val raise_error : t -> 'a

(** [invalid fmt ...] is [Error (Invalid_input msg)], [msg] formatted as by
    [Printf.sprintf fmt ...]. *)
val invalid : ('a, unit, string, ('b, t) result) format4 -> 'a

(** Classify an exception: [Budget.Exhausted] to [Budget_exhausted],
    [Invalid_argument]/[Not_found] to [Invalid_input], everything else
    (including [Stack_overflow] and [Out_of_memory]) to [Internal]. *)
val of_exn : exn -> t

(** [guard f] runs [f] and catches any exception into [Error (of_exn e)].
    The no-raise boundary for public entry points. *)
val guard : (unit -> 'a) -> ('a, t) result

(** [protect f] is [guard] for functions that already return a result
    (joins the two error layers). *)
val protect : (unit -> ('a, t) result) -> ('a, t) result
