(** DSL emission: valid source text for any {!Iolb_ir.Program}.

    This is the round-trip anchor of the front-end: for every well-formed
    program [p], [parse (print ~verify p)] elaborates to a program
    {!Iolb_ir.Program.equal} to [p] with the same verify bindings — the
    [parse-roundtrip] certifier property fuzzes exactly this identity.

    [verify] supplies the concrete parameter sizes emitted in the [verify]
    clause; a parametric program printed without bindings for all its
    parameters produces source the elaborator rejects (by design: such a
    kernel cannot be analysed). *)

val print : ?verify:(string * int) list -> Iolb_ir.Program.t -> string
