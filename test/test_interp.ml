(* The Core interpreters: the naive baseline and the indexed (Saxon
   stand-in) variant, including the join-detection hook. *)

open Xqc

let doc =
  parse_document
    {|<db><people><p id="a"><inc>10</inc></p><p id="b"><inc>20</inc></p><p id="c"><inc>20</inc></p></people><orders><o buyer="b"/><o buyer="a"/><o buyer="b"/><o buyer="zz"/></orders></db>|}

let eval_with runner q =
  let core = Normalize.normalize_string q in
  let ctx = context () in
  bind_variable ctx "d" [ Item.Node doc ];
  serialize (runner ctx core)

let naive q = eval_with (fun ctx core -> Interp.run ctx core) q
let indexed q = eval_with (fun ctx core -> Indexed.run ctx core) q

let check = Alcotest.(check string)

let join_query =
  "for $p in $d//p return <r id=\"{$p/@id}\">{count(for $o in $d//o where $o/@buyer = $p/@id return $o)}</r>"

let test_join_results_agree () =
  check "indexed equals naive on the join" (naive join_query) (indexed join_query)

let test_join_detection () =
  (* the hook should recognize the for/where pair *)
  let core = Normalize.normalize_string join_query in
  let rec find_pair (e : Core_ast.cexpr) : bool =
    match e with
    | Core_ast.C_flwor (Core_ast.CC_for { var; _ } :: Core_ast.CC_where w :: _, _, _) ->
        Indexed.split_equality var w <> None
    | Core_ast.C_flwor (_ :: rest, orders, ret) ->
        find_pair (Core_ast.C_flwor (rest, orders, ret))
    | Core_ast.C_elem (_, c) -> find_pair c
    | Core_ast.C_seq es -> List.exists find_pair es
    | Core_ast.C_call (_, args) -> List.exists find_pair args
    | _ -> false
  in
  (* the inner block lives in the return clause of the outer FLWOR *)
  let rec find_anywhere (e : Core_ast.cexpr) : bool =
    find_pair e
    ||
    match e with
    | Core_ast.C_flwor (_, _, ret) -> find_anywhere ret
    | Core_ast.C_elem (_, c) | Core_ast.C_attr (_, c) -> find_anywhere c
    | Core_ast.C_seq es -> List.exists find_anywhere es
    | Core_ast.C_call (_, args) -> List.exists find_anywhere args
    | _ -> false
  in
  Alcotest.(check bool) "equality where-clause detected" true
    (find_anywhere core.Core_ast.cq_main)

let test_split_equality () =
  let norm s =
    match (Normalize.normalize_string s).Core_ast.cq_main with
    | Core_ast.C_flwor ([ Core_ast.CC_for { var; _ }; Core_ast.CC_where w ], _, _) ->
        (var, w)
    | _ -> Alcotest.fail "unexpected core shape"
  in
  let var, w = norm "for $x in $s where $x/@k = $outer return 1" in
  (match Indexed.split_equality var w with
  | Some (outer_side, inner_side) ->
      Alcotest.(check (list string)) "inner side depends on the loop var"
        [ var ] (Core_ast.free_vars inner_side);
      Alcotest.(check bool) "outer side free of the loop var" true
        (not (List.mem var (Core_ast.free_vars outer_side)))
  | None -> Alcotest.fail "equality not split");
  (* non-equality or both-sides predicates must not split *)
  let var2, w2 = norm "for $x in $s where $x/@k < $outer return 1" in
  Alcotest.(check bool) "inequality not split" true (Indexed.split_equality var2 w2 = None);
  let var3, w3 = norm "for $x in $s where $x/@k = $x/@j return 1" in
  Alcotest.(check bool) "self-comparison not split" true (Indexed.split_equality var3 w3 = None)

let test_interp_features () =
  (* spot-check interpreter coverage beyond what equivalence tests hit *)
  List.iter
    (fun (q, expected) -> check q expected (naive q))
    [
      ("sum(for $i in 1 to 5 return $i)", "15");
      ("for $x at $i in (\"a\",\"b\") return $i", "1 2");
      ("for $x in (2,3,1) order by $x return $x", "1 2 3");
      ("typeswitch (1) case xs:integer return \"i\" default return \"d\"", "i");
      ("(1,2) instance of xs:integer+", "true");
      ("\"5\" cast as xs:integer", "5");
      ("<a b=\"{1+1}\">{2+2}</a>", "<a b=\"2\">4</a>");
    ]

let test_recursive_function_in_interp () =
  let q =
    "declare function local:sum($n) { if ($n = 0) then 0 else $n + local:sum($n - 1) }; local:sum(10)"
  in
  check "recursion" "55" (naive q);
  check "recursion indexed" "55" (indexed q)

let test_index_correct_on_duplicates () =
  (* several inner tuples share a key; order must be inner order *)
  let q =
    "for $k in (\"b\") return (for $o in $d//o where $o/@buyer = $k return string($o/@buyer))"
  in
  check "duplicates in inner order" (naive q) (indexed q)

let () =
  Alcotest.run "interp"
    [
      ( "indexed",
        [
          Alcotest.test_case "join agree" `Quick test_join_results_agree;
          Alcotest.test_case "join detection" `Quick test_join_detection;
          Alcotest.test_case "split equality" `Quick test_split_equality;
          Alcotest.test_case "duplicates" `Quick test_index_correct_on_duplicates;
        ] );
      ( "naive",
        [
          Alcotest.test_case "features" `Quick test_interp_features;
          Alcotest.test_case "recursion" `Quick test_recursive_function_in_interp;
        ] );
    ]
