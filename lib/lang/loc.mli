(** Source locations for the affine-program DSL.

    Lines and columns are 1-based, matching what editors display; every
    diagnostic of the front-end renders as [file:line:col: message]. *)

type t = { file : string; line : int; col : int }

val make : file:string -> line:int -> col:int -> t

val to_string : t -> string
