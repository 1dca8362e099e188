(** Symbolic I/O cost models of the tiled orderings of Appendix A, and the
    optimality-gap computation that closes the paper's argument: upper and
    lower bounds match asymptotically, so the hourglass bounds are tight.

    Costs are polynomials in the parameters, the block size ["B"] and its
    formal inverse ["Binv"] (polynomials cannot divide, so the streamed
    terms carry [Binv = 1/B]); {!substitute_block} eliminates both at a
    rational block choice [B = num/den], e.g. the paper's [B = S/M - 1],
    yielding a rational function of the remaining parameters. *)

type cost = {
  reads : Iolb_symbolic.Polynomial.t;  (** loads, leading behaviour *)
  writes : Iolb_symbolic.Polynomial.t;
  cache_needed : Iolb_symbolic.Polynomial.t;
      (** peak residency; the ordering is valid when this is <= S *)
}

(** Appendix A.1: left-looking tiled MGS.
    reads = M N^2 / (2B) + M N, writes = M N + N^2 / 2,
    cache = M (B + 1). *)
val mgs_tiled : cost

(** Appendix A.2: left-looking tiled Householder A2V.
    reads = (M N^2 - N^3 / 3) / (2B) + M N, writes = M N,
    cache = M (B + 1). *)
val a2v_tiled : cost

(** [total c] is reads + writes, a polynomial in the parameters and [B]. *)
val total : cost -> Iolb_symbolic.Polynomial.t

(** [substitute_block p ~num ~den] composes a polynomial in ["B"] and
    ["Binv"] with the rational block choice [B = num/den], yielding a
    rational function of the remaining parameters (e.g. [num = S - M],
    [den = M] for the Appendix choice [B = S/M - 1]). *)
val substitute_block :
  Iolb_symbolic.Polynomial.t ->
  num:Iolb_symbolic.Polynomial.t ->
  den:Iolb_symbolic.Polynomial.t ->
  Iolb_symbolic.Ratfun.t

(** [gap ~upper ~lower bindings] is the upper/lower ratio at a point - the
    constant-factor optimality gap; bounded across scales exactly when the
    bounds are asymptotically tight. *)
val gap :
  upper:Iolb_symbolic.Ratfun.t ->
  lower:Iolb_symbolic.Ratfun.t ->
  (string * int) list ->
  float
