(** Indexed max-heap of items keyed by next use: the Belady eviction
    structure of both clairvoyant engines, the compiled pebble game
    ({!Game}, items are CDAG nodes holding a red pebble) and the OPT cache
    simulator ({!Cache}, items are the cells in fast memory).

    Items are dense ints [0 .. items - 1].  Each present item holds one
    heap slot, so the heap has at most [capacity] entries and every
    operation is O(log capacity), whatever the number of items.  The top is
    the item with the largest key, the one used furthest in the future.

    The record is exposed read-only so that the hot loops test membership
    with one array read ([slot.(item) >= 0]) and read the occupancy
    directly. *)

type t = private {
  key : int array;  (** heap slot -> key *)
  item : int array;  (** heap slot -> item *)
  slot : int array;  (** item -> heap slot, or -1 when absent *)
  mutable len : int;  (** number of entries *)
}

(** [create ~capacity ~items] is an empty heap for items [0 .. items - 1]
    holding at most [capacity] of them at a time. *)
val create : capacity:int -> items:int -> t

(** Empty the heap, in O(entries). *)
val reset : t -> unit

(** [insert h item ~key] adds an absent [item].
    @raise Invalid_argument if the heap is at capacity. *)
val insert : t -> int -> key:int -> unit

(** [update h item ~key] re-keys a present [item], sifting it up or down
    as the key grew or shrank.
    @raise Invalid_argument if [item] is absent. *)
val update : t -> int -> key:int -> unit

(** The largest key.  The heap must not be empty. *)
val top_key : t -> int

(** [replace_top h item ~key] removes the top, adds the absent [item] in
    the same sift, and returns the removed item.
    @raise Invalid_argument on an empty heap. *)
val replace_top : t -> int -> key:int -> int
