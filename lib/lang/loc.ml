type t = { file : string; line : int; col : int }

let make ~file ~line ~col = { file; line; col }
let to_string l = Printf.sprintf "%s:%d:%d" l.file l.line l.col
