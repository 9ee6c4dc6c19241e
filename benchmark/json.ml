(* JSON for run records, the result line and BENCHMARK.json.  Values use
   the engine's [Obs.json] type and its wire parser; the printer here
   differs from [Obs.json_to_string] in writing floats with every digit
   (that one rounds to six), since a measured value must reach the
   record as measured. *)

type t = Xqc_obs.Obs.json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let parse = Xqc_server.Json_parse.parse

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f when Float.is_finite f -> Printf.bprintf buf "%.17g" f
  | Float _ -> Buffer.add_string buf "null"
  | Str s -> escape buf s
  | Arr l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          write buf v)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          escape buf k;
          Buffer.add_string buf ": ";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let field name = function Obj fields -> List.assoc_opt name fields | _ -> None

let num = function
  | Some (Int n) -> Some (float_of_int n)
  | Some (Float f) -> Some f
  | _ -> None

(* A numeric field, 0 when absent: telemetry read from the server. *)
let num0 name json = Option.value (num (field name json)) ~default:0.

let str name json = match field name json with Some (Str s) -> Some s | _ -> None
let list name json = match field name json with Some (Arr l) -> l | _ -> []

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* Every parseable line of a JSON-lines file. *)
let read_lines path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter_map (fun line ->
         match parse line with v -> Some v | exception _ -> None)
