(** Atomic values of the XQuery data model.

    The numeric tower (integer < decimal < float < double) is modeled with
    dedicated constructors; the remaining XML Schema primitive types
    (calendar and binary types) are carried as lexical forms tagged with
    their type name, which suffices because no workload in this repository
    performs arithmetic on them. *)

(** Names of the modeled atomic types: xdt:untypedAtomic plus the XML
    Schema primitive types (with xs:integer standing in for the integer
    branch of the decimal hierarchy). *)
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

(** An atomic value.  [Untyped] is character data that has not been
    validated; [Other] carries the lexical form of a calendar/binary/
    NOTATION value. *)
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

val type_of : t -> type_name
(** The dynamic type of a value. *)

val type_name_to_string : type_name -> string
(** The prefixed QName of the type, e.g. ["xs:integer"]. *)

val type_name_of_string : string -> type_name option
(** Inverse of {!type_name_to_string}; also accepts unprefixed names. *)

val is_numeric_type : type_name -> bool
(** Is the type in the numeric tower (integer/decimal/float/double)? *)

val is_numeric : t -> bool

val to_string : t -> string
(** The canonical lexical form (fn:string): integers without a decimal
    point, whole doubles without a fraction, [NaN]/[INF]/[-INF]. *)

val float_to_lexical : float -> string

val double_of_lexical : string -> float option
(** The reading of a string in the XML Schema lexical space of xs:double
    (also xs:float's), after surrounding whitespace is trimmed: decimal
    digits with an optional point and exponent, or [INF], [-INF], [NaN].
    OCaml-only forms such as ["0x1A"], ["1_000"] or ["inf"] read as
    [None].  {!cast} reads xs:integer and xs:decimal the same way; there
    the special values are invalid, and xs:decimal takes no exponent. *)

val to_float : t -> float option
(** Numeric view: numeric values directly, strings and untyped values by
    {!double_of_lexical}; [None] when no numeric reading exists. *)

exception Cast_error of string
(** Raised by {!cast} and the comparison functions on dynamic type
    errors; the runtime maps it to an XQuery dynamic error. *)

val cast_error : ('a, unit, string, 'b) format4 -> 'a
(** [cast_error fmt ...] raises {!Cast_error} with a formatted message. *)

val cast : type_name -> t -> t
(** [cast target v] converts [v] to the target type per the XQuery
    casting rules (via the lexical form for string-ish sources).
    @raise Cast_error when the conversion is not allowed or the lexical
    form does not parse. *)

val castable : type_name -> t -> bool
(** Does {!cast} succeed? *)

val equal_same_type : t -> t -> bool
(** Value equality between two atomics already brought to a common
    comparison type by fs:convert-operand — the paper's [op:equal].
    NaN is unequal to everything, including itself. *)

val compare_same_type : t -> t -> int
(** Three-way ordering between two atomics of a common comparison type.
    @raise Cast_error on incomparable types (e.g. string vs boolean). *)

val pp : Format.formatter -> t -> unit
