(* XQuery surface parser: AST shapes, operator precedence, constructors,
   prolog declarations, and syntax errors. *)

open Xqc

let parse = Xq_parser.parse_expression
let check_bool = Alcotest.(check bool)

let fails s =
  match Xq_parser.parse_query s with
  | exception Xq_parser.Syntax_error _ -> true
  | _ -> false

let test_literals () =
  (match parse "42" with
  | Ast.Literal (Atomic.Integer 42) -> ()
  | _ -> Alcotest.fail "integer literal");
  (match parse "3.14" with
  | Ast.Literal (Atomic.Decimal _) -> ()
  | _ -> Alcotest.fail "decimal literal");
  (match parse "1e3" with
  | Ast.Literal (Atomic.Double 1000.0) -> ()
  | _ -> Alcotest.fail "double literal");
  (match parse {|"a""b"|} with
  | Ast.Literal (Atomic.String {|a"b|}) -> ()
  | _ -> Alcotest.fail "doubled quote escape");
  (match parse "'x'" with
  | Ast.Literal (Atomic.String "x") -> ()
  | _ -> Alcotest.fail "single quoted");
  (match parse {|"&#65;&#x1F600;&amp;"|} with
  | Ast.Literal (Atomic.String "A\xF0\x9F\x98\x80&") -> ()
  | _ -> Alcotest.fail "character references in a string literal");
  (* malformed references are syntax errors, not stray exceptions *)
  List.iter
    (fun r -> check_bool r true (fails (Printf.sprintf {|"%s"|} r)))
    [ "&#-5;"; "&#x110000;"; "&#99999999999;"; "&#+65;"; "&#0x41;"; "&#1_0_0;"; "&#0;" ]

let test_precedence () =
  (match parse "1 + 2 * 3" with
  | Ast.Arith (Ast.Add, Ast.Literal (Atomic.Integer 1), Ast.Arith (Ast.Mul, _, _)) -> ()
  | _ -> Alcotest.fail "mul binds tighter than add");
  (match parse "1 = 2 + 3" with
  | Ast.General_comp (Ast.Gen_eq, _, Ast.Arith (Ast.Add, _, _)) -> ()
  | _ -> Alcotest.fail "add binds tighter than =");
  (match parse "$a or $b and $c" with
  | Ast.Or_expr (Ast.Var "a", Ast.And_expr (Ast.Var "b", Ast.Var "c")) -> ()
  | _ -> Alcotest.fail "and binds tighter than or");
  (match parse "1 to 5" with
  | Ast.Range (_, _) -> ()
  | _ -> Alcotest.fail "range");
  match parse "-1 + 2" with
  | Ast.Arith (Ast.Add, Ast.Unary_minus _, _) -> ()
  | _ -> Alcotest.fail "unary minus"

let test_comparisons () =
  let ops =
    [ ("=", `G Ast.Gen_eq); ("!=", `G Ast.Gen_ne); ("<", `G Ast.Gen_lt);
      ("<=", `G Ast.Gen_le); (">", `G Ast.Gen_gt); (">=", `G Ast.Gen_ge);
      ("eq", `V Ast.Val_eq); ("lt", `V Ast.Val_lt); ("is", `N Ast.Node_is);
      ("<<", `N Ast.Node_before); (">>", `N Ast.Node_after) ]
  in
  List.iter
    (fun (sym, expected) ->
      match (parse (Printf.sprintf "$a %s $b" sym), expected) with
      | Ast.General_comp (g, _, _), `G g' when g = g' -> ()
      | Ast.Value_comp (v, _, _), `V v' when v = v' -> ()
      | Ast.Node_comp (n, _, _), `N n' when n = n' -> ()
      | _ -> Alcotest.failf "comparison %s" sym)
    ops

let test_paths () =
  (match parse "$d/a/b" with
  | Ast.Path (Ast.Var "d", [ s1; s2 ]) ->
      check_bool "names" true (s1.Ast.test = Ast.Name_test "a" && s2.Ast.test = Ast.Name_test "b")
  | _ -> Alcotest.fail "two steps");
  (match parse "$d//b" with
  | Ast.Path (Ast.Var "d", [ dos; _ ]) ->
      check_bool "descendant-or-self inserted" true (dos.Ast.axis = Ast.Descendant_or_self)
  | _ -> Alcotest.fail "//");
  (match parse "$d/@id" with
  | Ast.Path (_, [ s ]) -> check_bool "attribute axis" true (s.Ast.axis = Ast.Attribute_axis)
  | _ -> Alcotest.fail "@");
  (match parse "$d/a[2]/text()" with
  | Ast.Path (_, [ a; t ]) ->
      check_bool "predicate count" true (List.length a.Ast.predicates = 1);
      check_bool "text() kind test" true (t.Ast.test = Ast.Kind_test Seqtype.It_text)
  | _ -> Alcotest.fail "predicate and kind test");
  (match parse "$d/ancestor::x" with
  | Ast.Path (_, [ s ]) -> check_bool "explicit axis" true (s.Ast.axis = Ast.Ancestor)
  | _ -> Alcotest.fail "ancestor axis");
  (match parse "$d/.." with
  | Ast.Path (_, [ s ]) -> check_bool "parent step" true (s.Ast.axis = Ast.Parent)
  | _ -> Alcotest.fail "..");
  match parse "$d/element(x, T)" with
  | Ast.Path (_, [ s ]) ->
      check_bool "element kind test with type" true
        (s.Ast.test = Ast.Kind_test (Seqtype.It_element (Some "x", Some "T")))
  | _ -> Alcotest.fail "element() kind test"

let test_flwor () =
  match parse "for $x at $i in $s, $y in $t let $z := $x where $i > 1 order by $z descending return ($x, $z)" with
  | Ast.Flwor (clauses, [ spec ], Ast.Sequence_expr [ _; _ ]) ->
      check_bool "clause count" true (List.length clauses = 4);
      (match clauses with
      | Ast.For_clause { var = "x"; at_var = Some "i"; _ }
        :: Ast.For_clause { var = "y"; at_var = None; _ }
        :: Ast.Let_clause { var = "z"; _ }
        :: Ast.Where_clause _ :: [] -> ()
      | _ -> Alcotest.fail "clause shapes");
      check_bool "descending" true (spec.Ast.dir = Ast.Descending)
  | _ -> Alcotest.fail "flwor shape"

let test_constructors () =
  (match parse "<a x=\"1\">hi{$v}</a>" with
  | Ast.Elem_constructor ("a", [ ("x", Ast.Attr_parts [ Ast.Attr_text "1" ]) ], content)
    ->
      check_bool "content pieces" true
        (match content with
        | [ Ast.Text_content "hi"; Ast.Enclosed (Ast.Var "v") ] -> true
        | _ -> false)
  | _ -> Alcotest.fail "direct constructor");
  (match parse {|<a b="x{$y}z"/>|} with
  | Ast.Elem_constructor (_, [ (_, Ast.Attr_parts [ Ast.Attr_text "x"; Ast.Attr_expr _; Ast.Attr_text "z" ]) ], [])
    -> ()
  | _ -> Alcotest.fail "attribute value template");
  (match parse "<a>{{literal}}</a>" with
  | Ast.Elem_constructor (_, _, [ Ast.Text_content "{literal}" ]) -> ()
  | _ -> Alcotest.fail "brace escapes");
  match parse "text { $v }" with
  | Ast.Text_constructor (Ast.Var "v") -> ()
  | _ -> Alcotest.fail "computed text"

let test_big_expressions () =
  (match parse "some $x in $s, $y in $t satisfies $x = $y" with
  | Ast.Quantified (Ast.Some_quant, [ ("x", _); ("y", _) ], _) -> ()
  | _ -> Alcotest.fail "quantified");
  (match parse "typeswitch ($x) case $a as element(b) return $a default return ()" with
  | Ast.Typeswitch (_, [ { Ast.case_var = Some "a"; _ } ], (None, _)) -> ()
  | _ -> Alcotest.fail "typeswitch");
  (match parse "$x instance of xs:integer+" with
  | Ast.Instance_of (_, Seqtype.Occ (Seqtype.It_atomic Atomic.T_integer, Seqtype.One_or_more)) -> ()
  | _ -> Alcotest.fail "instance of");
  (match parse "$x cast as xs:double?" with
  | Ast.Cast_as (_, Atomic.T_double, true) -> ()
  | _ -> Alcotest.fail "cast as");
  (match parse "validate { $x }" with
  | Ast.Validate_expr _ -> ()
  | _ -> Alcotest.fail "validate");
  match parse "$a union $b | $c" with
  | Ast.Union_expr (Ast.Union_expr _, _) -> ()
  | _ -> Alcotest.fail "union chain"

let test_prolog () =
  let q =
    Xq_parser.parse_query
      "declare variable $g := 10; declare function local:f($x as xs:integer) as xs:integer { $x + $g }; local:f(1)"
  in
  (match q.Ast.prolog with
  | [ Ast.Variable_decl ("g", _); Ast.Function_decl f ] ->
      check_bool "fn name" true (f.Ast.fname = "local:f");
      check_bool "param typed" true
        (match f.Ast.params with [ ("x", Some _) ] -> true | _ -> false)
  | _ -> Alcotest.fail "prolog shape");
  match q.Ast.main with
  | Ast.Call ("local:f", [ _ ]) -> ()
  | _ -> Alcotest.fail "main call"

let test_comments_and_ws () =
  (match parse "(: a (: nested :) comment :) 1" with
  | Ast.Literal (Atomic.Integer 1) -> ()
  | _ -> Alcotest.fail "comments skipped");
  match parse "  1  " with
  | Ast.Literal (Atomic.Integer 1) -> ()
  | _ -> Alcotest.fail "whitespace"

let test_errors () =
  check_bool "unbalanced paren" true (fails "(1");
  check_bool "missing return" true (fails "for $x in $s");
  check_bool "unterminated string" true (fails "\"abc");
  check_bool "unterminated constructor" true (fails "<a>");
  check_bool "mismatched constructor" true (fails "<a></b>");
  check_bool "unknown type" true (fails "$x cast as xs:nosuch")

let () =
  Alcotest.run "xq_parser"
    [
      ( "expressions",
        [
          Alcotest.test_case "literals" `Quick test_literals;
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "paths" `Quick test_paths;
          Alcotest.test_case "flwor" `Quick test_flwor;
          Alcotest.test_case "constructors" `Quick test_constructors;
          Alcotest.test_case "big expressions" `Quick test_big_expressions;
          Alcotest.test_case "prolog" `Quick test_prolog;
          Alcotest.test_case "comments" `Quick test_comments_and_ws;
          Alcotest.test_case "errors" `Quick test_errors;
        ] );
    ]
