(** Binary max-heap of [(priority, payload)] integer pairs.  The Belady
    eviction loop of the reference pebble engine uses it with lazy
    invalidation (it pushes fresh entries and skips stale ones on pop);
    the priority-driven schedulers use it as a plain priority queue.  The
    compiled engines evict through the indexed
    [Iolb_pebble.Next_use_heap] instead. *)

type t

val create : unit -> t
val is_empty : t -> bool
val length : t -> int

(** [push h ~pos ~payload] inserts an entry with priority [pos]. *)
val push : t -> pos:int -> payload:int -> unit

(** [pop h] removes and returns the entry with the largest [pos].
    @raise Not_found on an empty heap. *)
val pop : t -> int * int
