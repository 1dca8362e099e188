(** First-order descriptions of random affine programs.

    A [Spec.t] is a small, immutable record from which a full
    {!Iolb_ir.Program.t} (plus concrete verification parameters) can be
    rebuilt deterministically.  Keeping the description first-order is what
    makes counterexamples replayable and shrinkable: the certifier stores
    and reports specs, never programs.

    Two families are generated:

    - {b Nest}: random loop nests of depth up to 4 with multiple chained
      statements and arrays, triangular and shifted bounds, an optional
      symbolic parameter and statements at several depths.  These exercise
      the front half of the pipeline (cardinals, CDAGs, traces, the
      classical derivation) and act as negative controls for hourglass
      detection.
    - {b Hourglass}: reduction-then-broadcast chains shaped like the
      columns of MGS / A2V (Figures 1 and 3 of the paper): a temporal
      loop around a parametric-width reduction into [R] followed by a
      broadcast of [R] back into the reduced array.  Every member carries
      a genuine hourglass, so the tightened derivation path of
      Theorems 5-9 is actually exercised. *)

type nest = {
  depth : int;  (** 1..4 nested loops *)
  sizes : int list;  (** per-level trip counts, length [depth] *)
  triangular : bool list;
      (** level [i >= 1] starts at the previous level's variable *)
  param_n : int option;
      (** when [Some v], the outermost bound is the symbolic parameter [N]
          (concrete value [v]), making cardinals genuinely parametric *)
  n_stmts : int;  (** 1..3 chained statements [S0 .. S{n-1}] *)
  write_arity : int;  (** dimensions of the written arrays, 1..min 2 depth *)
  read_shifts : int list;  (** offsets of extra reads of input array [X] *)
  self_read : bool;  (** statements read their own written cell *)
  consumer : bool;  (** trailing consumer statement reading the last array *)
  shallow : bool;  (** extra depth-1 statement beside the deep nest *)
}

type hourglass = {
  m : int;  (** concrete value of the width parameter [M], >= 2 *)
  temporal_trip : int;  (** temporal iterations, >= 2 *)
  neutral : bool;  (** presence of a neutral dimension [j] *)
  neutral_trip : int;  (** neutral trip count, >= 1 *)
  triangular : bool;  (** neutral loop starts at [k+1], as in MGS *)
  q_read : bool;  (** both statements also read an input [Q[i,k]] *)
  flat_reads : int;  (** 0..2 extra input-array reads in the reduction *)
  init_stmt : bool;  (** reset statement writing [R] before each reduction *)
}

type t = Nest of nest | Hourglass of hourglass

(** Structural weight used to order shrink candidates (monotone under
    every shrinking step). *)
val size : t -> int

(** Clamp the record fields into their documented ranges, so arbitrary
    (e.g. shrunk) field values still describe a well-formed program. *)
val normalize : t -> t

(** [to_program s] builds the program and its concrete verification
    parameters.  Deterministic; total on normalized specs. *)
val to_program : t -> Iolb_ir.Program.t * (string * int) list

val to_json : t -> Iolb_util.Json.t
val to_string : t -> string
val equal : t -> t -> bool
