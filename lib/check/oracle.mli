(** The property registry of the soundness certifier.

    Each oracle is a differential or metamorphic property of the whole
    derivation pipeline, run over one generated program.  Oracles share a
    {!ctx} that memoizes the expensive artifacts (trace, CDAG, schedule,
    detected hourglasses, derived bounds, pebble-game results), so running
    the full registry costs roughly one pipeline pass per spec. *)

type outcome =
  | Pass
  | Fail of string  (** counterexample, with a human-readable detail *)
  | Skip of string  (** property not applicable to this spec *)

type ctx

(** Build the shared evaluation context for one spec.  Heavy artifacts are
    lazy: an oracle that does not need the CDAG never builds it. *)
val make_ctx : ?budget:Iolb_util.Budget.t -> Spec.t -> ctx

(** Verified hourglass patterns of the spec, as {!Iolb.Derive.ladder}
    returns them (forced on demand; the same call as {!ctx_bounds}). *)
val ctx_hourglasses : ctx -> Iolb.Hourglass.t list

(** The bounds {!Iolb.Derive.ladder} reports for the spec, at the budget
    the context was made with: hourglass and classical bounds, or a
    degraded rung's.  A ladder error is raised again: [Budget_exhausted]
    as [Budget.Exhausted], any other as [Engine_error.Error]. *)
val ctx_bounds : ctx -> Iolb.Derive.t list

type t = {
  name : string;  (** stable identifier, used by [--props] *)
  doc : string;
}

(** [run oracle ctx] evaluates the property.  [Budget.Exhausted] escapes
    (the caller owns the budget contract); any other exception is itself a
    counterexample and comes back as [Fail]. *)
val run : t -> ctx -> outcome

(** The default registry of 16 oracles, in pipeline order: [card]
    (Faulhaber cardinality = instance count), [cdag] (compute nodes =
    instances), [footprint] (trace events = accesses) - all three against
    the reference interpreter {!Interp} - [phi], [bound-le-opt],
    [monotone-s], [sweep-lru],
    [sweep-stream], [opt-ref] (OPT simulator = the naive reference
    {!Opt_ref}), [game-compiled], [sampled-ci], [jobs-det],
    [hourglass-path], [region-cover] (parametric-simplex regions tile
    [1/2, 1] and agree exactly with pinned-theta plain solves),
    [parse-roundtrip] and [parse-derive]. *)
val all : t list

(** A deliberately failing oracle ([demo-broken]), excluded from {!all}:
    selecting it via [--props demo-broken] demonstrates the counterexample
    path (shrinking, JSON artifact, exit code 1) without a real engine
    bug.  Used by the fault-injection tests. *)
val demo_broken : t

(** Resolve comma-separated [--props] names ("all" and "default" are
    aliases for {!all}).  [Error msg] names the unknown property and lists
    the known ones. *)
val find : string -> (t list, string) result
