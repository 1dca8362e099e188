(** Blocking line client for the bound service (used by [iolb client] and
    the tests).  One [t] is one connection; it is not thread-safe -
    drive it from one domain. *)

type t

(** [connect ?attempts ?delay_s address] connects, retrying a refused or
    missing endpoint [attempts] times with [delay_s] between tries (the
    daemon may still be binding its socket).
    @raise Invalid_argument naming the address and the OS reason when
    the last attempt fails too, and when {!Server.sockaddr} rejects it. *)
val connect : ?attempts:int -> ?delay_s:float -> Server.address -> t

val close : t -> unit

(** Raw pipelining primitives: send one request line / read one response
    line ([None] on EOF).  Responses to pipelined requests are matched by
    their echoed [id]. *)
val send_line : t -> string -> unit

val recv_line : t -> string option

(** [request t json] sends one request object and blocks for one
    response line. *)
val request :
  t -> Iolb_util.Json.t -> (Protocol.parsed_response, string) result

(** [rpc t ~op fields] is {!request} on [{"id": id, "op": op, fields...}]. *)
val rpc :
  t ->
  ?id:Iolb_util.Json.t ->
  op:string ->
  (string * Iolb_util.Json.t) list ->
  (Protocol.parsed_response, string) result
