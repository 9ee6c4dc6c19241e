(* Atomic values: lexical forms, casting, same-type equality/ordering. *)

module A = Xqc.Atomic

let check = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let test_lexical () =
  check "integer" "42" (A.to_string (A.Integer 42));
  check "negative" "-7" (A.to_string (A.Integer (-7)));
  check "double whole" "12" (A.to_string (A.Double 12.0));
  check "double frac" "1.5" (A.to_string (A.Double 1.5));
  check "nan" "NaN" (A.to_string (A.Double Float.nan));
  check "inf" "INF" (A.to_string (A.Double Float.infinity));
  check "-inf" "-INF" (A.to_string (A.Double Float.neg_infinity));
  check "bool" "true" (A.to_string (A.Boolean true));
  check "string" "hi" (A.to_string (A.String "hi"))

let test_cast_to_integer () =
  Alcotest.(check int) "from string" 7
    (match A.cast A.T_integer (A.String "7") with A.Integer i -> i | _ -> -1);
  Alcotest.(check int) "from untyped with ws" 7
    (match A.cast A.T_integer (A.Untyped " 7 ") with A.Integer i -> i | _ -> -1);
  Alcotest.(check int) "from decimal-looking string" 42
    (match A.cast A.T_integer (A.Untyped "42.0") with A.Integer i -> i | _ -> -1);
  Alcotest.(check int) "from double truncates" 3
    (match A.cast A.T_integer (A.Double 3.9) with A.Integer i -> i | _ -> -1);
  Alcotest.(check int) "from boolean" 1
    (match A.cast A.T_integer (A.Boolean true) with A.Integer i -> i | _ -> -1)

let test_cast_errors () =
  check_bool "abc to integer fails" false (A.castable A.T_integer (A.Untyped "abc"));
  check_bool "3.5 to integer fails" false (A.castable A.T_integer (A.String "3.5"));
  check_bool "maybe to boolean fails" false (A.castable A.T_boolean (A.String "maybe"));
  check_bool "1 to boolean ok" true (A.castable A.T_boolean (A.Untyped "1"));
  check_bool "date accepts lexical" true (A.castable A.T_date (A.String "2006-04-01"))

(* Only the XML Schema lexical forms cast to numbers: OCaml's own
   readings of "1_000", "0x1A", "inf" or "0b1" raise Cast_error. *)
let test_cast_numeric_lexical () =
  let raises target s =
    match A.cast target (A.String s) with
    | v -> Alcotest.failf "%S cast to %s gave %s" s (A.type_name_to_string target) (A.to_string v)
    | exception A.Cast_error _ -> ()
  in
  List.iter (raises A.T_double) [ "1_000"; "0x1A"; "inf"; "infinity"; "nan"; "0b1"; "1e"; "."; "+"; "1 0"; "" ];
  List.iter (raises A.T_float) [ "0x1A"; "inf" ];
  List.iter (raises A.T_integer) [ "1_0"; "0x10"; "0o7"; "+"; "1e3"; "INF" ];
  List.iter (raises A.T_decimal) [ "1e3"; "INF"; "-INF"; "NaN"; "0x1A" ];
  let casts target s want =
    check (Printf.sprintf "%S as %s" s (A.type_name_to_string target)) want
      (A.to_string (A.cast target (A.Untyped s)))
  in
  casts A.T_double "INF" "INF";
  casts A.T_double "-INF" "-INF";
  casts A.T_double "NaN" "NaN";
  casts A.T_float "INF" "INF";
  casts A.T_integer " 12 " "12";
  casts A.T_integer "+12" "12";
  casts A.T_double "1e3" "1000";
  casts A.T_double "-1.5E-1" "-0.15";
  casts A.T_decimal ".5" "0.5";
  casts A.T_decimal "5." "5";
  casts A.T_double " .5 " "0.5";
  casts A.T_double "5." "5";
  Alcotest.(check (option (float 0.))) "to_float reads 1e3" (Some 1000.)
    (A.to_float (A.Untyped "1e3"));
  Alcotest.(check (option (float 0.))) "to_float rejects 0x10" None
    (A.to_float (A.Untyped "0x10"))

let test_cast_boolean () =
  check_bool "string true" true
    (match A.cast A.T_boolean (A.String "true") with A.Boolean b -> b | _ -> false);
  check_bool "string 0" false
    (match A.cast A.T_boolean (A.String "0") with A.Boolean b -> b | _ -> true);
  check_bool "zero double" false
    (match A.cast A.T_boolean (A.Double 0.0) with A.Boolean b -> b | _ -> true);
  check_bool "nan is false" false
    (match A.cast A.T_boolean (A.Double Float.nan) with A.Boolean b -> b | _ -> true)

let test_equal_same_type () =
  check_bool "int/int" true (A.equal_same_type (A.Integer 3) (A.Integer 3));
  check_bool "int/double promoted" true (A.equal_same_type (A.Integer 3) (A.Double 3.0));
  check_bool "strings by content" true (A.equal_same_type (A.String "a") (A.Untyped "a"));
  check_bool "string vs int" false (A.equal_same_type (A.String "3") (A.Integer 3));
  check_bool "nan <> nan" false
    (A.equal_same_type (A.Double Float.nan) (A.Double Float.nan))

let test_compare_same_type () =
  Alcotest.(check bool) "1 < 2" true (A.compare_same_type (A.Integer 1) (A.Integer 2) < 0);
  Alcotest.(check bool) "2.5 > 2" true (A.compare_same_type (A.Decimal 2.5) (A.Integer 2) > 0);
  Alcotest.(check bool) "abc < abd" true (A.compare_same_type (A.String "abc") (A.String "abd") < 0);
  Alcotest.check_raises "string vs bool raises" (A.Cast_error "cannot compare xs:string with xs:boolean")
    (fun () -> ignore (A.compare_same_type (A.String "x") (A.Boolean true)))

let test_type_names () =
  Alcotest.(check bool) "roundtrip all type names" true
    (List.for_all
       (fun tn -> A.type_name_of_string (A.type_name_to_string tn) = Some tn)
       [ A.T_untyped; A.T_string; A.T_boolean; A.T_integer; A.T_decimal;
         A.T_float; A.T_double; A.T_any_uri; A.T_qname; A.T_date; A.T_time;
         A.T_date_time; A.T_duration; A.T_g_year; A.T_g_month; A.T_g_day;
         A.T_g_year_month; A.T_g_month_day; A.T_hex_binary; A.T_base64_binary;
         A.T_notation ])

let test_is_numeric () =
  check_bool "integer" true (A.is_numeric (A.Integer 1));
  check_bool "decimal" true (A.is_numeric (A.Decimal 1.0));
  check_bool "untyped not numeric" false (A.is_numeric (A.Untyped "1"));
  check_bool "string not numeric" false (A.is_numeric (A.String "1"))

(* qcheck: casting any integer to string and back is the identity. *)
let prop_int_string_roundtrip =
  QCheck.Test.make ~name:"integer -> string -> integer roundtrip" ~count:200
    QCheck.int (fun i ->
      match A.cast A.T_integer (A.cast A.T_string (A.Integer i)) with
      | A.Integer j -> i = j
      | _ -> false)

(* qcheck: cast to double then equal_same_type with the original integer. *)
let prop_int_double_equal =
  QCheck.Test.make ~name:"integer equals its double promotion" ~count:200
    QCheck.small_signed_int (fun i ->
      A.equal_same_type (A.Integer i) (A.cast A.T_double (A.Integer i)))

(* qcheck: compare_same_type is antisymmetric on integers. *)
let prop_compare_antisym =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:200
    QCheck.(pair small_signed_int small_signed_int)
    (fun (a, b) ->
      let c1 = A.compare_same_type (A.Integer a) (A.Integer b) in
      let c2 = A.compare_same_type (A.Integer b) (A.Integer a) in
      compare c1 0 = compare 0 c2)

let () =
  Alcotest.run "atomic"
    [
      ( "unit",
        [
          Alcotest.test_case "lexical forms" `Quick test_lexical;
          Alcotest.test_case "cast to integer" `Quick test_cast_to_integer;
          Alcotest.test_case "cast errors" `Quick test_cast_errors;
          Alcotest.test_case "cast to boolean" `Quick test_cast_boolean;
          Alcotest.test_case "numeric lexical forms" `Quick test_cast_numeric_lexical;
          Alcotest.test_case "equal same type" `Quick test_equal_same_type;
          Alcotest.test_case "compare same type" `Quick test_compare_same_type;
          Alcotest.test_case "type name roundtrip" `Quick test_type_names;
          Alcotest.test_case "is_numeric" `Quick test_is_numeric;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_int_string_roundtrip; prop_int_double_equal; prop_compare_antisym ]
      );
    ]
