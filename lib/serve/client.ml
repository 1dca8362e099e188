module Json = Iolb_util.Json

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

(* Retrying connect: the daemon the caller just started may not have
   bound its socket yet (CI starts it in the background).  An address the
   OS refuses is the caller's input, as for [serve]. *)
let connect ?(attempts = 1) ?(delay_s = 0.1) address =
  if attempts < 1 then invalid_arg "Client.connect: attempts < 1";
  let domain, addr = Server.sockaddr address in
  let rec go n =
    let fd = Unix.socket ~cloexec:true domain SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () ->
        let ic = Unix.in_channel_of_descr fd in
        { fd; ic; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error (err, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if n < attempts && (err = ECONNREFUSED || err = ENOENT) then begin
          Unix.sleepf delay_s;
          go (n + 1)
        end
        else
          invalid_arg
            (Format.asprintf "cannot connect to %a: %s" Server.pp_address
               address (Unix.error_message err))
  in
  go 1

let close t = close_out_noerr t.oc

let send_line t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc

let recv_line t =
  match input_line t.ic with
  | line -> Some line
  | exception (End_of_file | Sys_error _) -> None

(* One request, one response: pipelining is the caller's business via
   [send_line]/[recv_line]. *)
let request t json =
  send_line t (Json.to_string json);
  match recv_line t with
  | None -> Error "connection closed before a response arrived"
  | Some line -> Protocol.parse_response line

let rpc t ?(id = Json.Null) ~op fields =
  request t (Json.Obj (("id", id) :: ("op", Json.String op) :: fields))
