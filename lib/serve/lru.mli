(** Content-addressed, weight-bounded LRU cache: string keys (canonical
    spec strings), values of any type, each entry with a weight.  The
    daemon keeps two: rendered [result] fragments at weight 1 (the
    cross-request lift of [Report.analyze_cached]), whose capacity is
    an entry count, and empirical sweeps weighed by the cells they hold.
    Thread-safe; a capacity of [0] disables storage entirely (every
    lookup misses, [add] is a no-op). *)

type 'a t

type stats = {
  capacity : int;
  entries : int;
  weight : int;  (** total weight of the entries *)
  hits : int;
  misses : int;
  evictions : int;
}

(** @raise Invalid_argument if [capacity < 0]. *)
val create : capacity:int -> 'a t

(** [find t key] returns the cached value and marks it most recently
    used.  Counts a hit or a miss either way. *)
val find : 'a t -> string -> 'a option

(** [add ?weight t key value] inserts (or refreshes) an entry of
    [weight] (default 1; a weight below 1 counts as 1), evicting the
    least recently used entries while the total weight is over capacity.
    A value heavier than the capacity is not stored, and the cache is
    left as it was. *)
val add : ?weight:int -> 'a t -> string -> 'a -> unit

val stats : 'a t -> stats
