(* Static type inference and the type-driven plan simplification
   (Section 6's "static type analysis can improve our algorithm"). *)

open Xqc
open Algebra
module S = Xqc_optimizer.Static_type

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let infer p = S.infer S.top_env p

let test_infer_basics () =
  check_bool "integer scalar" true ((infer (Scalar (Atomic.Integer 1))).S.kind = S.AK_integer);
  check_bool "element constructor" true ((infer (Element ("a", Empty))).S.kind = S.AK_element);
  check_bool "count is integer" true
    ((infer (Call ("fn:count", [ Empty ]))).S.kind = S.AK_integer);
  check_bool "boolean comparison" true
    ((infer (Call ("op:general-eq", [ Empty; Empty ]))).S.kind = S.AK_boolean);
  check_bool "text step" true
    ((infer (TreeJoin (Ast.Child, Ast.Kind_test Seqtype.It_text, Input))).S.kind = S.AK_text);
  check_bool "unknown for field access" true ((infer (FieldAccess "q")).S.kind = S.AK_item)

let test_infer_occurrences () =
  let t = infer (Seq [ Scalar (Atomic.Integer 1); Scalar (Atomic.Integer 2) ]) in
  check_int "seq lo" 2 t.S.occ.S.lo;
  check_bool "seq hi" true (t.S.occ.S.hi = Some 2);
  let t = infer Empty in
  check_bool "empty" true (t.S.occ.S.hi = Some 0)

let test_matches_judgments () =
  let int_one = infer (Scalar (Atomic.Integer 1)) in
  check_bool "integer matches xs:integer" true
    (S.definitely_matches int_one (Seqtype.item (Seqtype.It_atomic Atomic.T_integer)));
  check_bool "integer matches xs:decimal" true
    (S.definitely_matches int_one (Seqtype.item (Seqtype.It_atomic Atomic.T_decimal)));
  check_bool "integer mismatches element()" true
    (S.definitely_mismatches int_one (Seqtype.item (Seqtype.It_element (None, None))));
  check_bool "unknown neither matches nor mismatches" true
    (let u = infer (FieldAccess "q") in
     (not (S.definitely_matches u (Seqtype.item (Seqtype.It_atomic Atomic.T_integer))))
     && not (S.definitely_mismatches u (Seqtype.item (Seqtype.It_atomic Atomic.T_integer))));
  (* nominal element types stay dynamic: never provable statically *)
  check_bool "typed element test stays dynamic" true
    (not
       (S.definitely_matches
          (infer (Element ("a", Empty)))
          (Seqtype.item (Seqtype.It_element (None, Some "T")))))

let count name p =
  List.length (List.filter (String.equal name) (Pretty.operator_names p))

let optimized q =
  match (Xqc.prepare q).Xqc.plan with Some p -> p | None -> Alcotest.fail "no plan"

let test_typeswitch_pruning () =
  let p =
    optimized
      "typeswitch (<a/>) case $i as xs:integer return 1 case $e as element() return 2 default return 3"
  in
  check_int "no dynamic type tests left" 0 (count "TypeMatches" p);
  check_int "no conditionals left" 0 (count "Cond" p);
  Alcotest.(check string) "result" "2" (Xqc.serialize (Xqc.eval_string
    "typeswitch (<a/>) case $i as xs:integer return 1 case $e as element() return 2 default return 3"))

let test_typeassert_elimination () =
  let p = optimized "for $x as element() in (<a/>, <b/>) return name($x)" in
  check_int "as-clause assert removed" 0 (count "TypeAssert" p);
  (* an unprovable assert stays *)
  let p2 = optimized "for $x as xs:integer in $unknown return $x" in
  check_int "unprovable assert kept" 1 (count "TypeAssert" p2)

let test_instance_of_folding () =
  let p = optimized "(1, 2) instance of xs:integer+" in
  check_int "folded to a constant" 0 (count "TypeMatches" p);
  Alcotest.(check string) "still true" "true"
    (Xqc.serialize (Xqc.eval_string "(1, 2) instance of xs:integer+"))

let test_simplification_preserves_semantics () =
  (* queries whose typeswitch/instance-of results must be unchanged *)
  List.iter
    (fun q ->
      let with_types = Xqc.serialize (Xqc.eval_string ~strategy:Xqc.Optimized q) in
      let without = Xqc.serialize (Xqc.eval_string ~strategy:Xqc.No_algebra q) in
      Alcotest.(check string) q without with_types)
    [
      "typeswitch (42) case $s as xs:string return 0 default return 1";
      "for $x in (1, \"a\", <e/>) return (typeswitch ($x) case $i as xs:integer return \"i\" case $e as element() return \"e\" default return \"o\")";
      "(<a/> instance of element(), 1 instance of xs:string)";
      "for $x as xs:integer* in (1,2,3) return $x + 1";
    ]

let () =
  Alcotest.run "static_type"
    [
      ( "inference",
        [
          Alcotest.test_case "basics" `Quick test_infer_basics;
          Alcotest.test_case "occurrences" `Quick test_infer_occurrences;
          Alcotest.test_case "judgments" `Quick test_matches_judgments;
        ] );
      ( "simplification",
        [
          Alcotest.test_case "typeswitch pruning" `Quick test_typeswitch_pruning;
          Alcotest.test_case "typeassert elimination" `Quick test_typeassert_elimination;
          Alcotest.test_case "instance-of folding" `Quick test_instance_of_folding;
          Alcotest.test_case "semantics preserved" `Quick test_simplification_preserves_semantics;
        ] );
    ]
