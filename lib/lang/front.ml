type source = Elab.source = {
  program : Iolb_ir.Program.t;
  verify : (string * int) list;
}

let ( let* ) = Result.bind

let parse_string ~file src =
  let* toks = Lexer.tokenize ~file src in
  let* ast = Parser.parse toks in
  Elab.kernel ast

(* Read to the end rather than to [in_channel_length]: a directory opens
   fine, and its length query fails with EOVERFLOW before the read can
   say what is wrong. *)
let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
      Error
        (Iolb_util.Engine_error.Invalid_input
           (Printf.sprintf "cannot read %s: %s" path msg))
  | src -> Ok src

let parse_file path =
  Result.bind (read_file path) (fun src ->
      Result.map_error Diag.to_engine_error (parse_string ~file:path src))

let print = Printer.print
