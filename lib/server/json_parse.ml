(* Minimal JSON reader for the wire protocol.

   The engine already has a JSON *emitter* ([Obs.json] /
   [Obs.json_to_string]); the server only needs the inverse for the
   one-line requests clients send, so this is a small recursive-descent
   parser over the same [Obs.json] type rather than a dependency.
   Numbers without a fraction or exponent that fit in an OCaml [int]
   parse as [Int]; everything else numeric becomes [Float].  Input must
   be a single JSON value — trailing non-whitespace is an error.
   Arrays and objects may nest at most [max_depth] deep: deeper input is
   a [Parse_error], never a stack overflow. *)

module Obs = Xqc_obs.Obs

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type state = { src : string; mutable pos : int }

(* Far beyond any request the protocol defines (two levels), and far
   below what the recursion can take on a worker domain's stack. *)
let max_depth = 512

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | Some d -> fail "expected %C at offset %d, found %C" c st.pos d
  | None -> fail "expected %C at offset %d, found end of input" c st.pos

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail "invalid literal at offset %d" st.pos

(* Encode a Unicode scalar value as UTF-8 into [buf]. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 st =
  if st.pos + 4 > String.length st.src then fail "truncated \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    let c = st.src.[st.pos + i] in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "invalid hex digit %C in \\u escape" c
    in
    v := (!v * 16) + d
  done;
  st.pos <- st.pos + 4;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    if st.pos >= String.length st.src then fail "unterminated string";
    let c = st.src.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' -> (
        if st.pos >= String.length st.src then fail "unterminated escape";
        let e = st.src.[st.pos] in
        st.pos <- st.pos + 1;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
            let u = hex4 st in
            (* surrogate pair: a high surrogate must be followed by
               [\uDC00-\uDFFF]; anything else renders as U+FFFD *)
            if u >= 0xD800 && u <= 0xDBFF then
              if
                st.pos + 1 < String.length st.src
                && st.src.[st.pos] = '\\'
                && st.src.[st.pos + 1] = 'u'
              then begin
                st.pos <- st.pos + 2;
                let lo = hex4 st in
                if lo >= 0xDC00 && lo <= 0xDFFF then
                  add_utf8 buf (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
                else add_utf8 buf 0xFFFD
              end
              else add_utf8 buf 0xFFFD
            else if u >= 0xDC00 && u <= 0xDFFF then add_utf8 buf 0xFFFD
            else add_utf8 buf u
        | _ -> fail "invalid escape \\%C" e);
        loop ())
    | c -> Buffer.add_char buf c; loop ()
  in
  loop ()

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  if peek st = Some '-' then st.pos <- st.pos + 1;
  let digits () =
    let n0 = st.pos in
    while
      st.pos < String.length st.src
      && match st.src.[st.pos] with '0' .. '9' -> true | _ -> false
    do
      st.pos <- st.pos + 1
    done;
    if st.pos = n0 then fail "invalid number at offset %d" start
  in
  digits ();
  if peek st = Some '.' then begin
    is_float := true;
    st.pos <- st.pos + 1;
    digits ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      is_float := true;
      st.pos <- st.pos + 1;
      (match peek st with Some ('+' | '-') -> st.pos <- st.pos + 1 | _ -> ());
      digits ()
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then Obs.Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Obs.Int i
    | None -> Obs.Float (float_of_string text)

(* Called on entering an array or object at nesting level [depth]. *)
let check_depth st depth =
  if depth >= max_depth then fail "nesting deeper than %d at offset %d" max_depth st.pos

let rec parse_value st depth =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input"
  | Some '"' -> Obs.Str (parse_string st)
  | Some '{' ->
      check_depth st depth;
      expect st '{';
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obs.Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st (depth + 1) in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              members ((key, v) :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              List.rev ((key, v) :: acc)
          | _ -> fail "expected ',' or '}' at offset %d" st.pos
        in
        Obs.Obj (members [])
      end
  | Some '[' ->
      check_depth st depth;
      expect st '[';
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        Obs.Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value st (depth + 1) in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              elems (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              List.rev (v :: acc)
          | _ -> fail "expected ',' or ']' at offset %d" st.pos
        in
        Obs.Arr (elems [])
      end
  | Some 't' -> literal st "true" (Obs.Bool true)
  | Some 'f' -> literal st "false" (Obs.Bool false)
  | Some 'n' -> literal st "null" Obs.Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail "unexpected character %C at offset %d" c st.pos

let parse (s : string) : Obs.json =
  let st = { src = s; pos = 0 } in
  let v = parse_value st 0 in
  skip_ws st;
  if st.pos <> String.length s then
    fail "trailing garbage at offset %d" st.pos;
  v
