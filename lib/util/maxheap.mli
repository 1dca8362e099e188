(** Binary max-heap of [(priority, payload)] integer pairs.  The Belady
    eviction loops of the OPT cache simulator and the reference pebble
    engine use it with lazy invalidation (callers push fresh entries and
    skip stale ones on pop); the priority-driven schedulers use it as a
    plain priority queue. *)

type t

val create : unit -> t
val is_empty : t -> bool
val length : t -> int

(** [push h ~pos ~payload] inserts an entry with priority [pos]. *)
val push : t -> pos:int -> payload:int -> unit

(** [pop h] removes and returns the entry with the largest [pos].
    @raise Not_found on an empty heap. *)
val pop : t -> int * int

(** [compact h ~keep] drops every entry for which [keep] is false and
    restores the heap property in O(length).  Used by the lazy-invalidation
    eviction loops to bound the heap by the live-entry count instead of the
    push count.  Compaction may reorder entries with equal [pos]; callers
    whose output depends on tie order must not compact. *)
val compact : t -> keep:(pos:int -> payload:int -> bool) -> unit
