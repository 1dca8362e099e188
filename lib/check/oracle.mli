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

(** Verified hourglass patterns of the spec (forced on demand). *)
val ctx_hourglasses : ctx -> Iolb.Hourglass.t list

(** All derived bounds (hourglass + classical), as {!Iolb.Derive.analyze}. *)
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
    (Faulhaber cardinality = concrete instance count), [cdag],
    [footprint], [phi], [bound-le-opt], [monotone-s], [sweep-lru],
    [sweep-stream], [game-compiled], [sampled-ci], [jobs-det],
    [hourglass-path], [split-regions] (region-based split search =
    brute-force enumeration), [region-cover] (parametric-simplex regions
    tile [1/2, 1] and agree exactly with pinned-theta plain solves),
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
