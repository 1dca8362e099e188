type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if Float.is_finite f then Printf.sprintf "%.12g" f else "null"

(* The shortest of 15, 16 or 17 significant digits that reads back as
   [f] (17 always does), with a ".0" where it would read back as an
   [Int]. *)
let float_exact f =
  if not (Float.is_finite f) then "null"
  else
    let digits n = Printf.sprintf "%.*g" n f in
    let s =
      List.fold_left
        (fun s n -> if float_of_string s = f then s else digits n)
        (digits 15) [ 16; 17 ]
    in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

(* indent < 0: compact; otherwise the current nesting depth. *)
let rec emit ~float buf ~indent v =
  let nl depth =
    if indent >= 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * depth) ' ')
    end
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float f)
  | String s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          nl (indent + 1);
          emit ~float buf ~indent:(if indent >= 0 then indent + 1 else indent) item)
        items;
      nl indent;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          nl (indent + 1);
          escape buf k;
          Buffer.add_string buf (if indent >= 0 then ": " else ":");
          emit ~float buf ~indent:(if indent >= 0 then indent + 1 else indent) item)
        fields;
      nl indent;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit ~float:float_repr buf ~indent:(-1) v;
  Buffer.contents buf

let to_string_exact v =
  let buf = Buffer.create 256 in
  emit ~float:float_exact buf ~indent:(-1) v;
  Buffer.contents buf

let to_string_pretty v =
  let buf = Buffer.create 1024 in
  emit ~float:float_repr buf ~indent:0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Recursive-descent parser, the inverse of [emit].  Covers the JSON the
   emitter produces (and standard JSON generally); numbers without '.', 'e'
   or 'E' parse as [Int], everything else as [Float]. *)
exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt =
    Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "at offset %d: %s" !pos m))) fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "expected %C, found %C" c c'
    | None -> fail "expected %C, found end of input" c
  in
  let literal word v =
    if
      !pos + String.length word <= n
      && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "invalid literal"
  in
  let utf8_add buf u =
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
             if !pos + 4 > n then fail "truncated \\u escape";
             let hex = String.sub s !pos 4 in
             pos := !pos + 4;
             let u =
               match int_of_string_opt ("0x" ^ hex) with
               | Some u -> u
               | None -> fail "invalid \\u escape %S" hex
             in
             utf8_add buf u
         | c -> fail "invalid escape \\%C" c);
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') ->
          advance ();
          go ()
      | Some ('.' | 'e' | 'E') ->
          is_float := true;
          advance ();
          go ()
      | _ -> ()
    in
    go ();
    let lit = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail "invalid number %S" lit
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> fail "invalid number %S" lit
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            (k, parse_value ())
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (kv :: acc)
            | Some '}' ->
                advance ();
                List.rev (kv :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
    | Some c -> fail "unexpected character %C" c
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error m -> Error m

(* Convenience lookups for consumers of parsed documents. *)
let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
