(* Atomic values of the XQuery data model.

   The paper's join algorithm (Section 6) relies on the XML Schema primitive
   type lattice: untyped values convert to the type of the other operand
   (Table 2), and numeric values promote along integer -> decimal -> float ->
   double.  We model the numeric tower with dedicated constructors and carry
   the remaining primitive types (dates, binaries, ...) as lexical forms
   tagged with their type name, which is sufficient because none of the
   paper's workloads perform arithmetic on them. *)

type type_name =
  | T_untyped
  | T_string
  | T_boolean
  | T_integer
  | T_decimal
  | T_float
  | T_double
  | T_any_uri
  | T_qname
  | T_date
  | T_time
  | T_date_time
  | T_duration
  | T_g_year
  | T_g_month
  | T_g_day
  | T_g_year_month
  | T_g_month_day
  | T_hex_binary
  | T_base64_binary
  | T_notation

type t =
  | Untyped of string
  | String of string
  | Boolean of bool
  | Integer of int
  | Decimal of float
  | Float of float
  | Double of float
  | Any_uri of string
  | Qname of string
  | Other of type_name * string

let type_of = function
  | Untyped _ -> T_untyped
  | String _ -> T_string
  | Boolean _ -> T_boolean
  | Integer _ -> T_integer
  | Decimal _ -> T_decimal
  | Float _ -> T_float
  | Double _ -> T_double
  | Any_uri _ -> T_any_uri
  | Qname _ -> T_qname
  | Other (tn, _) -> tn

let type_name_to_string = function
  | T_untyped -> "xdt:untypedAtomic"
  | T_string -> "xs:string"
  | T_boolean -> "xs:boolean"
  | T_integer -> "xs:integer"
  | T_decimal -> "xs:decimal"
  | T_float -> "xs:float"
  | T_double -> "xs:double"
  | T_any_uri -> "xs:anyURI"
  | T_qname -> "xs:QName"
  | T_date -> "xs:date"
  | T_time -> "xs:time"
  | T_date_time -> "xs:dateTime"
  | T_duration -> "xs:duration"
  | T_g_year -> "xs:gYear"
  | T_g_month -> "xs:gMonth"
  | T_g_day -> "xs:gDay"
  | T_g_year_month -> "xs:gYearMonth"
  | T_g_month_day -> "xs:gMonthDay"
  | T_hex_binary -> "xs:hexBinary"
  | T_base64_binary -> "xs:base64Binary"
  | T_notation -> "xs:NOTATION"

let type_name_of_string = function
  | "xdt:untypedAtomic" | "untypedAtomic" -> Some T_untyped
  | "xs:string" | "string" -> Some T_string
  | "xs:boolean" | "boolean" -> Some T_boolean
  | "xs:integer" | "integer" | "xs:int" | "xs:long" -> Some T_integer
  | "xs:decimal" | "decimal" -> Some T_decimal
  | "xs:float" | "float" -> Some T_float
  | "xs:double" | "double" -> Some T_double
  | "xs:anyURI" | "anyURI" -> Some T_any_uri
  | "xs:QName" | "QName" -> Some T_qname
  | "xs:date" | "date" -> Some T_date
  | "xs:time" | "time" -> Some T_time
  | "xs:dateTime" | "dateTime" -> Some T_date_time
  | "xs:duration" | "duration" -> Some T_duration
  | "xs:gYear" -> Some T_g_year
  | "xs:gMonth" -> Some T_g_month
  | "xs:gDay" -> Some T_g_day
  | "xs:gYearMonth" -> Some T_g_year_month
  | "xs:gMonthDay" -> Some T_g_month_day
  | "xs:hexBinary" -> Some T_hex_binary
  | "xs:base64Binary" -> Some T_base64_binary
  | "xs:NOTATION" -> Some T_notation
  | _ -> None

let is_numeric_type = function
  | T_integer | T_decimal | T_float | T_double -> true
  | T_untyped | T_string | T_boolean | T_any_uri | T_qname | T_date | T_time
  | T_date_time | T_duration | T_g_year | T_g_month | T_g_day | T_g_year_month
  | T_g_month_day | T_hex_binary | T_base64_binary | T_notation -> false

let is_numeric a = is_numeric_type (type_of a)

(* Canonical lexical form, following the XQuery serialization rules closely
   enough for the test suites (integers without a decimal point, booleans as
   true/false, doubles trimmed of a trailing dot-zero). *)
let float_to_lexical f =
  if Float.is_integer f && Float.abs f < 1e15 then
    (* 12.0 prints as "12" per the XPath canonical form for whole numbers *)
    Printf.sprintf "%.0f" f
  else if Float.is_nan f then "NaN"
  else if f = Float.infinity then "INF"
  else if f = Float.neg_infinity then "-INF"
  else
    let s = Printf.sprintf "%.12g" f in
    s

let to_string = function
  | Untyped s | String s | Any_uri s | Qname s | Other (_, s) -> s
  | Boolean b -> if b then "true" else "false"
  | Integer i -> string_of_int i
  | Decimal f | Float f | Double f -> float_to_lexical f

(* The XML Schema lexical spaces of the numeric types, read after the
   surrounding whitespace is trimmed (d is a decimal digit):

     integer        [+-]? d+
     decimal        [+-]? (d+ ('.' d* )? | '.' d+)
     float, double  decimal ([eE] [+-]? d+)?  |  INF | -INF | NaN

   OCaml's own conversions also read "0x1A", "1_000", "0b1" and "inf";
   a string reaches them only once it has matched here. *)
type numeric_lexical = Lex_integer | Lex_decimal | Lex_double

let lexical_matches kind s =
  let n = String.length s in
  let rec digits i = if i < n && s.[i] >= '0' && s.[i] <= '9' then digits (i + 1) else i in
  let sign i = if i < n && (s.[i] = '+' || s.[i] = '-') then i + 1 else i in
  let start = sign 0 in
  let int_end = digits start in
  match kind with
  | Lex_integer -> int_end > start && int_end = n
  | Lex_decimal | Lex_double ->
      let point = int_end < n && s.[int_end] = '.' in
      let frac_end = if point then digits (int_end + 1) else int_end in
      let mantissa_digits = frac_end - start - if point then 1 else 0 in
      mantissa_digits > 0
      && (frac_end = n
         || kind = Lex_double
            && (s.[frac_end] = 'e' || s.[frac_end] = 'E')
            &&
            let exp_start = sign (frac_end + 1) in
            let exp_end = digits exp_start in
            exp_end > exp_start && exp_end = n)

let integer_of_lexical s =
  let s = String.trim s in
  if lexical_matches Lex_integer s then int_of_string_opt s else None

let decimal_of_lexical s =
  let s = String.trim s in
  if lexical_matches Lex_decimal s then float_of_string_opt s else None

let double_of_lexical s =
  match String.trim s with
  | "INF" -> Some Float.infinity
  | "-INF" -> Some Float.neg_infinity
  | "NaN" -> Some Float.nan
  | s -> if lexical_matches Lex_double s then float_of_string_opt s else None

(* Numeric view used by arithmetic and by the sort join. *)
let to_float = function
  | Integer i -> Some (float_of_int i)
  | Decimal f | Float f | Double f -> Some f
  | Untyped s | String s -> double_of_lexical s
  | Boolean _ | Any_uri _ | Qname _ | Other _ -> None

exception Cast_error of string

let cast_error fmt = Printf.ksprintf (fun s -> raise (Cast_error s)) fmt

(* Casting between atomic types, as used by the Cast operator and by
   fs:convert-operand.  Unsupported combinations raise [Cast_error], which
   the runtime maps to an XQuery dynamic error. *)
let cast (target : type_name) (a : t) : t =
  let lexical = to_string a in
  (* numeric sources keep their round trip through the canonical lexical
     form; every other source must be in the target's lexical space *)
  let num_of target =
    let parsed =
      match a with
      | Integer i -> Some (float_of_int i)
      | Decimal _ | Float _ | Double _ -> double_of_lexical lexical
      | _ when target = T_decimal -> decimal_of_lexical lexical
      | _ -> double_of_lexical lexical
    in
    match parsed with
    | Some f when target <> T_decimal || Float.is_finite f -> f
    | Some _ | None ->
        cast_error "cannot cast %S to %s" lexical (type_name_to_string target)
  in
  match target with
  | T_untyped -> Untyped lexical
  | T_string -> String lexical
  | T_any_uri -> Any_uri (String.trim lexical)
  | T_qname -> Qname (String.trim lexical)
  | T_boolean -> (
      match a with
      | Boolean b -> Boolean b
      | Integer i -> Boolean (i <> 0)
      | Decimal f | Float f | Double f -> Boolean (f <> 0.0 && not (Float.is_nan f))
      | Untyped s | String s -> (
          match String.trim s with
          | "true" | "1" -> Boolean true
          | "false" | "0" -> Boolean false
          | other -> cast_error "cannot cast %S to xs:boolean" other)
      | Any_uri _ | Qname _ | Other _ ->
          cast_error "cannot cast %s to xs:boolean"
            (type_name_to_string (type_of a)))
  | T_integer -> (
      match a with
      | Integer i -> Integer i
      | Decimal f | Float f | Double f -> Integer (int_of_float f)
      | Boolean b -> Integer (if b then 1 else 0)
      | Untyped s | String s -> (
          match integer_of_lexical s with
          | Some i -> Integer i
          | None -> (
              (* "42.0" casts to integer via decimal *)
              match decimal_of_lexical s with
              | Some f when Float.is_integer f -> Integer (int_of_float f)
              | Some _ | None -> cast_error "cannot cast %S to xs:integer" s))
      | Any_uri _ | Qname _ | Other _ ->
          cast_error "cannot cast %s to xs:integer"
            (type_name_to_string (type_of a)))
  | T_decimal -> (
      match a with
      | Boolean b -> Decimal (if b then 1.0 else 0.0)
      | _ -> Decimal (num_of T_decimal))
  | T_float -> (
      match a with
      | Boolean b -> Float (if b then 1.0 else 0.0)
      | _ -> Float (num_of T_float))
  | T_double -> (
      match a with
      | Boolean b -> Double (if b then 1.0 else 0.0)
      | _ -> Double (num_of T_double))
  | T_date | T_time | T_date_time | T_duration | T_g_year | T_g_month | T_g_day
  | T_g_year_month | T_g_month_day | T_hex_binary | T_base64_binary
  | T_notation ->
      Other (target, String.trim lexical)

let castable target a =
  match cast target a with _ -> true | exception Cast_error _ -> false

(* Value equality between two atomics of the *same* comparison type, i.e.
   after fs:convert-operand has been applied.  op:equal in the paper. *)
let equal_same_type (a : t) (b : t) : bool =
  match (a, b) with
  | Integer x, Integer y -> x = y
  | (Integer _ | Decimal _ | Float _ | Double _), (Integer _ | Decimal _ | Float _ | Double _)
    -> (
      match (to_float a, to_float b) with
      | Some x, Some y -> x = y
      | (None | Some _), _ -> false)
  | Boolean x, Boolean y -> x = y
  | (String x | Untyped x | Any_uri x | Qname x), (String y | Untyped y | Any_uri y | Qname y)
    -> String.equal x y
  | Other (t1, x), Other (t2, y) -> t1 = t2 && String.equal x y
  | ( ( Untyped _ | String _ | Boolean _ | Integer _ | Decimal _ | Float _
      | Double _ | Any_uri _ | Qname _ | Other _ ),
      _ ) ->
      false

(* Ordering between two atomics of the same comparison type; used by
   OrderBy and the sort join.  Raises [Cast_error] for incomparable types. *)
let compare_same_type (a : t) (b : t) : int =
  match (a, b) with
  | Integer x, Integer y -> compare x y
  | (Integer _ | Decimal _ | Float _ | Double _), (Integer _ | Decimal _ | Float _ | Double _)
    -> (
      match (to_float a, to_float b) with
      | Some x, Some y -> Float.compare x y
      | (None | Some _), _ -> cast_error "incomparable numeric values")
  | Boolean x, Boolean y -> compare x y
  | (String x | Untyped x | Any_uri x), (String y | Untyped y | Any_uri y) ->
      String.compare x y
  | Other (t1, x), Other (t2, y) when t1 = t2 -> String.compare x y
  | ( ( Untyped _ | String _ | Boolean _ | Integer _ | Decimal _ | Float _
      | Double _ | Any_uri _ | Qname _ | Other _ ),
      _ ) ->
      cast_error "cannot compare %s with %s"
        (type_name_to_string (type_of a))
        (type_name_to_string (type_of b))

let pp ppf a =
  Format.fprintf ppf "%s(%s)" (type_name_to_string (type_of a)) (to_string a)
