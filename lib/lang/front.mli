(** The affine-program front-end: parse DSL source into {!Iolb_ir.Program}
    programs and print programs back as DSL.

    A kernel source looks like:
    {v
    # Modified Gram-Schmidt (Figure 1 of the paper)
    kernel mgs(M, N)
    assume M - N >= 0, N - 2 >= 0
    verify M = 6, N = 4
    {
      for k = 0 .. N - 1 {
        Snrm0: nrm = f();
        ...
      }
    }
    v}

    [parse_string]/[parse_file] run lexer, parser and elaborator;
    {!print} is the inverse up to locations (see {!Printer}). *)

type source = Elab.source = {
  program : Iolb_ir.Program.t;
  verify : (string * int) list;
}

(** [parse_string ~file src] parses and elaborates one kernel.  [file] is
    only used in diagnostic locations. *)
val parse_string : file:string -> string -> (source, Diag.t) result

(** [read_file path] is the whole content of [path].  An unreadable
    path, a directory included, is [Invalid_input] ("cannot read PATH:
    REASON", exit code 2). *)
val read_file : string -> (string, Iolb_util.Engine_error.t) result

(** [parse_file path] reads ({!read_file}) and parses [path]; unreadable
    files and all diagnostics are mapped onto the exit-code-2 error
    convention. *)
val parse_file : string -> (source, Iolb_util.Engine_error.t) result

val print : ?verify:(string * int) list -> Iolb_ir.Program.t -> string
