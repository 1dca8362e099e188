type t =
  | Budget_exhausted of Budget.stage
  | Invalid_input of string
  | Unsupported of string
  | Internal of string

let to_string = function
  | Budget_exhausted stage ->
      Printf.sprintf "budget exhausted during %s (raise --timeout-ms / --max-steps / --max-nodes)"
        (Budget.stage_name stage)
  | Invalid_input msg -> Printf.sprintf "invalid input: %s" msg
  | Unsupported msg -> Printf.sprintf "unsupported: %s" msg
  | Internal msg -> Printf.sprintf "internal error: %s" msg

let pp fmt e = Format.pp_print_string fmt (to_string e)

let exit_code = function
  | Invalid_input _ -> 2
  | Budget_exhausted _ -> 3
  | Unsupported _ -> 4
  | Internal _ -> 5

exception Error of t

let of_exn = function
  | Error e -> e
  | Budget.Exhausted stage -> Budget_exhausted stage
  | Invalid_argument msg -> Invalid_input msg
  | Not_found -> Invalid_input "not found"
  | Failure msg -> Internal msg
  | Stack_overflow -> Internal "stack overflow"
  | Out_of_memory -> Internal "out of memory"
  | e -> Internal (Printexc.to_string e)

let raise_error e = raise (Error e)

let invalid fmt =
  Printf.ksprintf (fun msg -> Stdlib.Error (Invalid_input msg)) fmt

let guard f =
  match f () with
  | v -> Ok v
  | exception Error e -> Error e
  | exception e -> Error (of_exn e)

let protect f =
  match f () with
  | (Ok _ | Error _) as r -> r
  | exception Error e -> Error e
  | exception e -> Error (of_exn e)
