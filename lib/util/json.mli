(** Minimal JSON emission and parsing (no dependencies).

    Used by the benchmark harness to write machine-readable baselines
    ([bench --json]) and to read them back ([bench --compare]) without
    pulling a JSON library into the engine.  Serialisation is
    deterministic: object fields print in the order given, floats use a
    ["%.12g"] rendering ({!to_string_exact} reads back every finite float
    exactly), and non-finite floats (not representable in JSON) serialise
    as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact (single-line) rendering. *)
val to_string : t -> string

(** {!to_string} with every finite float in the fewest of 15, 16 or 17
    significant digits that {!of_string} reads back as the same [Float]
    (["1.0"], not ["1"]).  Bytes differ from {!to_string} only in float
    fields. *)
val to_string_exact : t -> string

(** Pretty rendering with two-space indentation and a trailing newline,
    suitable for committed baseline files and readable diffs. *)
val to_string_pretty : t -> string

(** [of_string s] parses a complete JSON document.  Numbers without a
    fractional part or exponent parse as [Int], others as [Float]; [\u]
    escapes decode to UTF-8. *)
val of_string : string -> (t, string) result

(** [member k v] is field [k] of object [v] ([None] on missing fields and
    non-objects). *)
val member : string -> t -> t option
