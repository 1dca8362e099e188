(** Dense interning of [(array-name, index-vector)] keys.

    CDAG construction, trace building and cache simulation all key their
    inner loops on concrete cells [(string * int array)].  Hashing those
    polymorphically in every loop iteration (and rebuilding the table on
    every simulator call) dominates the empirical layer's profile.  An
    interner maps each distinct key to a dense [int] once - with a
    specialised (non-polymorphic) hash - so downstream passes run on int
    keys and flat arrays.

    Interners are single-writer: build in one domain, then share the frozen
    result read-only across a pool fan-out. *)

type key = string * int array

type t

(** [create ()] is an empty interner.  It starts small and grows
    geometrically as keys are interned. *)
val create : unit -> t

(** [intern t k] is the dense id of [k], allocating the next id
    ([count t]) on first sight.  Ids are assigned in first-seen order. *)
val intern : t -> key -> int

(** [intern_view t name idx] is [intern t (name, idx)] without requiring an
    owned key: [idx] is borrowed for the probe and copied only when the key
    is new.  The hit path - the overwhelming majority in trace and CDAG
    construction - allocates nothing, so hot loops can evaluate indices
    into a reusable buffer. *)
val intern_view : t -> string -> int array -> int

(** [key t id] is the key interned as [id].
    @raise Invalid_argument if [id] is out of range. *)
val key : t -> int -> key

(** Number of distinct keys interned. *)
val count : t -> int
