(** The reference interpreter: a program walked at concrete parameters
    straight from its loop tree, through {!Iolb_poly.Affine.eval} and
    {!Iolb_ir.Access.eval}.  It shares no code with the compiled plan
    ({!Iolb_ir.Cplan}), which every production walk goes through, so it
    is the reference the certifier's oracles and the tests compare those
    walks with.  Slow by design; meant for small sizes. *)

type instance = {
  stmt : string;  (** statement name *)
  vec : int array;
      (** values of the enclosing loop variables, outermost first *)
  reads : (string * int array) list;  (** cells read, in statement order *)
  writes : (string * int array) list;  (** cells written, in statement order *)
}

(** [iter ~params p f] visits every statement instance in program
    (textual/loop) order.
    @raise Not_found on a variable bound neither by [params] nor by an
    enclosing loop. *)
val iter :
  params:(string * int) list -> Iolb_ir.Program.t -> (instance -> unit) -> unit

(** Every instance, in program order. *)
val instances : params:(string * int) list -> Iolb_ir.Program.t -> instance list

(** The access trace: per instance its reads and then its writes, as
    [(array, index, is_write)]. *)
val accesses :
  params:(string * int) list ->
  Iolb_ir.Program.t ->
  (string * int array * bool) list
