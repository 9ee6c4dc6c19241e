(* Normalization to the XQuery Core: FLWOR preservation, path and
   predicate normalization, typeswitch renaming, alpha-renaming. *)

open Xqc
open Core_ast

let norm s = (Normalize.normalize_string s).cq_main
let check_bool = Alcotest.(check bool)

let rec collect_calls (e : cexpr) : string list =
  match e with
  | C_call (f, args) -> f :: List.concat_map collect_calls args
  | C_seq es -> List.concat_map collect_calls es
  | C_elem (_, c) | C_attr (_, c) | C_text c | C_comment c | C_pi (_, c) ->
      collect_calls c
  | C_if (a, b, c) -> collect_calls a @ collect_calls b @ collect_calls c
  | C_flwor (clauses, orders, ret) ->
      List.concat_map
        (function
          | CC_for { source; _ } -> collect_calls source
          | CC_let { value; _ } -> collect_calls value
          | CC_where w -> collect_calls w)
        clauses
      @ List.concat_map (fun o -> collect_calls o.ckey) orders
      @ collect_calls ret
  | C_quant (_, _, s, b) -> collect_calls s @ collect_calls b
  | C_typeswitch (_, s, cases, d) ->
      collect_calls s @ List.concat_map (fun (_, b) -> collect_calls b) cases
      @ collect_calls d
  | C_treejoin (_, _, i) -> collect_calls i
  | C_instance_of (c, _) | C_typeassert (c, _) | C_cast (c, _, _)
  | C_castable (c, _, _) | C_validate c ->
      collect_calls c
  | C_empty | C_scalar _ | C_var _ -> []

let rec bound_vars (e : cexpr) : string list =
  match e with
  | C_flwor (clauses, orders, ret) ->
      List.concat_map
        (function
          | CC_for { var; at_var; source; _ } ->
              (var :: Option.to_list at_var) @ bound_vars source
          | CC_let { var; value; _ } -> var :: bound_vars value
          | CC_where w -> bound_vars w)
        clauses
      @ List.concat_map (fun o -> bound_vars o.ckey) orders
      @ bound_vars ret
  | C_quant (_, v, s, b) -> (v :: bound_vars s) @ bound_vars b
  | C_typeswitch (v, s, cases, d) ->
      (v :: bound_vars s)
      @ List.concat_map (fun (_, b) -> bound_vars b) cases
      @ bound_vars d
  | C_seq es -> List.concat_map bound_vars es
  | C_elem (_, c) | C_attr (_, c) | C_text c | C_comment c | C_pi (_, c) ->
      bound_vars c
  | C_if (a, b, c) -> bound_vars a @ bound_vars b @ bound_vars c
  | C_call (_, args) -> List.concat_map bound_vars args
  | C_treejoin (_, _, i) -> bound_vars i
  | C_instance_of (c, _) | C_typeassert (c, _) | C_cast (c, _, _)
  | C_castable (c, _, _) | C_validate c ->
      bound_vars c
  | C_empty | C_scalar _ | C_var _ -> []

let test_simple_path () =
  match norm "$d/a/b" with
  | C_treejoin (Ast.Child, Ast.Name_test "b", C_treejoin (Ast.Child, Ast.Name_test "a", C_var "d"))
    -> ()
  | other -> Alcotest.failf "unexpected core: %s" (to_string other)

let test_positional_predicate () =
  (* $x/a[2] -> a FLWOR with an at-variable and a position test *)
  (match norm "for $x in $d return $x/a[2]" with
  | C_flwor
      ( [ CC_for _ ],
        [],
        C_flwor
          ( [ CC_for { at_var = Some _; source = C_treejoin _; _ }; CC_where (C_call ("op:eq", _)) ],
            [],
            C_var _ ) ) ->
      ()
  | other -> Alcotest.failf "unexpected core: %s" (to_string other));
  (* over a sequence the position counts per context node:
     op:union(for $c in $d return $c/a[2], ()) *)
  match norm "$d/a[2]" with
  | C_call
      ( "op:union",
        [ C_flwor ([ CC_for { source = C_var "d"; _ } ], [], C_flwor ([ CC_for { at_var = Some _; _ }; _ ], [], _));
          C_empty ] ) ->
      ()
  | other -> Alcotest.failf "unexpected core: %s" (to_string other)

let test_boolean_predicate_has_no_position () =
  (* a statically boolean predicate must not introduce the positional
     machinery (this is what enables join detection through predicates) *)
  match norm "$d/a[@id = \"x\"]" with
  | C_flwor ([ CC_for { at_var = None; _ }; CC_where _ ], [], C_var _) -> ()
  | other -> Alcotest.failf "unexpected core: %s" (to_string other)

let test_last_predicate () =
  (* a last() predicate let-binds the sequence and its count *)
  match norm "for $x in $d return $x/a[last()]" with
  | C_flwor
      ( [ CC_for _ ],
        [],
        C_flwor (CC_let _ :: CC_let { value = C_call ("fn:count", _); _ } :: CC_for _ :: CC_where _ :: [], [], _) )
    -> ()
  | other -> Alcotest.failf "unexpected core: %s" (to_string other)

let test_general_comparison () =
  check_bool "= becomes op:general-eq" true
    (List.mem "op:general-eq" (collect_calls (norm "$a = $b")));
  check_bool "lt becomes op:lt" true (List.mem "op:lt" (collect_calls (norm "$a lt $b")));
  check_bool "arith" true (List.mem "op:add" (collect_calls (norm "1 + 2")))

let test_and_or_desugar () =
  (match norm "$a and $b" with
  | C_if (C_call ("fn:boolean", _), C_call ("fn:boolean", _), C_scalar (Atomic.Boolean false))
    -> ()
  | other -> Alcotest.failf "and: %s" (to_string other));
  match norm "$a or $b" with
  | C_if (_, C_scalar (Atomic.Boolean true), _) -> ()
  | other -> Alcotest.failf "or: %s" (to_string other)

let test_alpha_renaming () =
  (* shadowed variables get distinct core names *)
  let core = norm "for $x in (1,2) return (for $x in (3,4) return $x)" in
  let bound = bound_vars core in
  Alcotest.(check int) "two distinct binders" 2 (List.length (List.sort_uniq compare bound))

let test_typeswitch_common_var () =
  match norm "typeswitch ($v) case $a as xs:integer return $a case $b as xs:string return $b default $d return $d" with
  | C_typeswitch (x, C_var "v", [ (_, C_var x1); (_, C_var x2) ], C_var x3) ->
      check_bool "all branches share the common variable" true
        (x = x1 && x1 = x2 && x2 = x3)
  | other -> Alcotest.failf "typeswitch: %s" (to_string other)

let test_builtin_prefixing () =
  check_bool "count becomes fn:count" true
    (List.mem "fn:count" (collect_calls (norm "count((1,2))")));
  let q = Normalize.normalize_string "declare function local:f($x) { $x }; local:f(1)" in
  check_bool "user function kept" true (List.mem "local:f" (collect_calls q.cq_main))

let test_free_vars () =
  let core = norm "for $x in $src return ($x, $other)" in
  let fv = List.sort_uniq compare (free_vars core) in
  Alcotest.(check (list string)) "free variables" [ "other"; "src" ] fv

let test_avt () =
  let calls = collect_calls (norm "<a b=\"x{1+1}y\"/>") in
  check_bool "avt pieces stringified and concatenated" true
    (List.mem "fn:concat" calls && List.mem "fs:item-sequence-to-string" calls)

let test_quantifier () =
  match norm "some $x in $s satisfies $x > 1" with
  | C_quant (Ast.Some_quant, _, C_var "s", C_call ("fn:boolean", _)) -> ()
  | other -> Alcotest.failf "quantifier: %s" (to_string other)

let test_boundary_whitespace () =
  (* whitespace-only text between constructor children is stripped *)
  match norm "<a> <b/> </a>" with
  | C_elem ("a", C_elem ("b", C_empty)) -> ()
  | other -> Alcotest.failf "boundary ws: %s" (to_string other)

let test_context_errors () =
  let fails s =
    match Normalize.normalize_string s with
    | exception Normalize.Norm_error _ -> true
    | _ -> false
  in
  check_bool "bare . at top level" true (fails ".");
  check_bool "position() outside predicate" true (fails "position()");
  check_bool "last() outside predicate" true (fails "last()")

(* qcheck: normalization never produces two binders with the same name. *)
let gen_query =
  QCheck.Gen.(
    oneofl
      [
        "for $x in (1,2,3) return $x + 1";
        "for $x in $s, $y in $s where $x = $y return ($x, $y)";
        "for $x in (1,2) return for $x in (3,4) return $x";
        "let $a := (for $b in $s return $b) return count($a)";
        "$d/a/b[2]/c[@id = \"k\"]";
        "some $v in (1,2) satisfies every $v in (3,4) satisfies $v > 2";
      ])

let prop_unique_binders =
  QCheck.Test.make ~name:"alpha renaming yields unique binders" ~count:50
    (QCheck.make gen_query) (fun q ->
      let bound = bound_vars (norm q) in
      List.length bound = List.length (List.sort_uniq compare bound))

let () =
  Alcotest.run "normalize"
    [
      ( "paths",
        [
          Alcotest.test_case "simple path" `Quick test_simple_path;
          Alcotest.test_case "positional predicate" `Quick test_positional_predicate;
          Alcotest.test_case "boolean predicate" `Quick test_boolean_predicate_has_no_position;
          Alcotest.test_case "last() predicate" `Quick test_last_predicate;
        ] );
      ( "expressions",
        [
          Alcotest.test_case "general comparison" `Quick test_general_comparison;
          Alcotest.test_case "and/or desugar" `Quick test_and_or_desugar;
          Alcotest.test_case "alpha renaming" `Quick test_alpha_renaming;
          Alcotest.test_case "typeswitch common var" `Quick test_typeswitch_common_var;
          Alcotest.test_case "builtin prefixing" `Quick test_builtin_prefixing;
          Alcotest.test_case "free vars" `Quick test_free_vars;
          Alcotest.test_case "avt" `Quick test_avt;
          Alcotest.test_case "quantifier" `Quick test_quantifier;
          Alcotest.test_case "boundary whitespace" `Quick test_boundary_whitespace;
          Alcotest.test_case "context errors" `Quick test_context_errors;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_unique_binders ]);
    ]
