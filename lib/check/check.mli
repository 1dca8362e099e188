(** The certifier driver: generate specs from consecutive seeds, run the
    selected property oracles on each, shrink any counterexample, and
    aggregate a machine-readable report. *)

type failure = {
  seed : int;  (** the seed whose spec failed (replayable) *)
  prop : string;
  detail : string;  (** oracle detail for the original spec *)
  spec : Spec.t;  (** the spec as generated *)
  shrunk : Spec.t;  (** locally minimal failing spec (= [spec] if already) *)
  shrunk_detail : string;  (** oracle detail for the shrunk spec *)
  shrunk_source : string;
      (** the shrunk spec's program as DSL source - a ready-to-save
          [.iolb] reproducer for [iolb bounds --file] *)
  shrink_steps : int;
}

(** Coverage counters accumulated over the run, proving the certifier
    exercises both derivation paths (the hourglass counters are the
    acceptance criterion for the hourglass-bearing family). *)
type coverage = {
  nest_specs : int;
  hourglass_specs : int;
  hourglass_detected : int;  (** specs with >= 1 verified hourglass *)
  hourglass_bounds : int;  (** specs with >= 1 hourglass-technique bound *)
  classical_bounds : int;  (** specs with >= 1 classical bound *)
}

type report = {
  base_seed : int;
  count : int;
  props : string list;
  passed : int;  (** (spec, property) pairs that passed *)
  failed : int;
  skipped : int;  (** inapplicable or budget-exhausted pairs *)
  budget_skips : int;  (** the budget-exhausted subset of [skipped] *)
  failures : failure list;  (** at most 5, in seed order *)
  coverage : coverage;
}

(** [run ~count ~seed ~props ()] checks the specs of seeds
    [seed .. seed+count-1].

    [budget] is called once per (spec, oracle) evaluation - budget state is
    mutable, so sharing one would double-count across properties; budget
    exhaustion is recorded as a skip, never a failure.  Shrinking stops
    after 5 counterexamples; later failures are only counted. *)
val run :
  ?budget:(unit -> Iolb_util.Budget.t) ->
  count:int ->
  seed:int ->
  props:Oracle.t list ->
  unit ->
  report

(** No counterexamples found. *)
val ok : report -> bool

val to_json : report -> Iolb_util.Json.t
val pp : Format.formatter -> report -> unit
