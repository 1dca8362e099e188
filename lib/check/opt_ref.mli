(** The reference for Belady's OPT: a naive simulator that shares no code
    with {!Iolb_pebble.Cache}.  It makes its own backward next-read scan,
    keeps the cached cells in a plain array of at most [size] entries and
    finds each victim by a linear argmax, O(T·S) in all.  Its key rule is
    the one {!Iolb_pebble.Cache.opt_run} documents: a value's key is the
    position of its next read, or [n + i] when it is overwritten or never
    touched again after access [i] of a trace of length [n].  Keys are
    unique, so loads, read hits and stores must all agree with the
    production simulator.  Slow by design; meant for small traces. *)

(** [run ~size ~flush trace] is the OPT statistics of [trace] at cache
    size [size] ([>= 1]); [flush] counts dirty cells left at the end as
    stores. *)
val run :
  size:int -> flush:bool -> Iolb_pebble.Trace.t -> Iolb_pebble.Cache.stats
