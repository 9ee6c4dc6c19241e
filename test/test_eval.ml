(* End-to-end evaluation: a table of queries and expected serialized
   results, run through the fully optimized engine (cross-strategy
   agreement is covered separately in test_equivalence.ml). *)

let doc =
  Xqc.parse_document ~uri:"d.xml"
    {|<root><people><person id="p1" age="30"><name>Alice</name><pet>cat</pet><pet>dog</pet></person><person id="p2" age="25"><name>Bob</name></person></people><nums><n>1</n><n>2</n><n>3</n></nums></root>|}

let eval ?(strategy = Xqc.Optimized) q =
  Xqc.serialize
    (Xqc.eval_string ~strategy ~variables:[ ("d", [ Xqc.Item.Node doc ]) ] q)

let expect (name, q, expected) =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name expected (eval q))

let arithmetic =
  [
    ("add", "1 + 2", "3");
    ("precedence", "2 + 3 * 4", "14");
    ("division is decimal", "7 div 2", "3.5");
    ("integer division", "7 idiv 2", "3");
    ("mod", "7 mod 2", "1");
    ("unary minus", "-(3) + 1", "-2");
    ("double arithmetic", "1.5e1 * 2", "30");
    ("empty propagates", "() + 1", "");
    ("untyped data in arithmetic", "$d//person[@id = \"p1\"]/@age + 1", "31");
    ("range", "1 to 4", "1 2 3 4");
    ("empty range", "3 to 1", "");
  ]

let comparisons =
  [
    ("general eq true", "(1,2,3) = 2", "true");
    ("general eq false", "(1,2,3) = 5", "false");
    ("general with untyped", "$d//person/@age > 28", "true");
    ("value comparison", "2 eq 2", "true");
    ("value comparison empty", "() eq 2", "");
    ("string comparison", "\"abc\" < \"abd\"", "true");
    ("untyped untyped string semantics", "$d//n[1]/text() = \"1\"", "true");
    ("node is", "($d//person)[1] is ($d//person)[1]", "true");
    ("node before", "($d//person)[1] << ($d//person)[2]", "true");
    ("and", "1 = 1 and 2 = 2", "true");
    ("or short circuit-ish", "1 = 1 or 1 div 1 = 0", "true");
    ("not", "not(1 = 2)", "true");
  ]

let paths =
  [
    ("child path", "$d/root/people/person/name/text()", "AliceBob");
    ("descendant", "count($d//person)", "2");
    ("attribute", "$d//person[1]/@id", "id=\"p1\"");
    ("attribute string", "string($d//person[1]/@id)", "p1");
    ("wildcard", "count($d/root/*)", "2");
    ("parent", "name(($d//name)[1]/..)", "person");
    ("ancestor", "count(($d//name)[1]/ancestor::*)", "3");
    ("positional predicate per context node", "count($d//name[1])", "2");
    ("per-node ancestors unioned", "count($d//name[1]/ancestor::*)", "4");
    ("self", "count($d//person/self::person)", "2");
    ("following-sibling", "name($d//people/following-sibling::*)", "nums");
    ("preceding-sibling", "name($d//nums/preceding-sibling::*)", "people");
    ("positional predicate", "$d//pet[2]/text()", "dog");
    ("last()", "$d//pet[last()]/text()", "dog");
    ("position()", "$d//n[position() > 1]/text()", "23");
    ("boolean predicate", "$d//person[@id = \"p2\"]/name/text()", "Bob");
    ("predicate keeps order", "$d//n[. > 1]/text()", "23");
    ("text kind test", "count($d//person[1]/pet/text())", "2");
    ("node kind test", "count($d//people/node())", "2");
    ( "doc order after union",
      "for $x in ($d//nums | $d//people) return name($x)", "people nums" );
  ]

let flwor =
  [
    ("simple for", "for $x in (1,2,3) return $x * 2", "2 4 6");
    ("for at", "for $x at $i in (\"a\",\"b\") return ($i, $x)", "1 a 2 b");
    ("let", "let $x := (1,2) return count($x)", "2");
    ("where", "for $x in 1 to 10 where $x mod 3 = 0 return $x", "3 6 9");
    ("two fors", "for $x in (1,2), $y in (10,20) return $x + $y", "11 21 12 22");
    ( "order by",
      "for $x in (3,1,2) order by $x return $x", "1 2 3" );
    ( "order by descending",
      "for $x in (3,1,2) order by $x descending return $x", "3 2 1" );
    ( "order by empty greatest",
      "for $p in $d//person order by $p/pet[1]/text() empty greatest return $p/name/text()",
      "AliceBob" );
    ( "order by empty least",
      "for $p in $d//person order by $p/pet[1]/text() empty least return $p/name/text()",
      "BobAlice" );
    ( "order by string keys",
      "for $p in $d//person order by $p/name/text() descending return $p/name/text()",
      "BobAlice" );
    ( "nested flwor",
      "for $x in (1,2) return (for $y in (1,2) return $x * $y)", "1 2 2 4" );
    ( "join with group semantics",
      "for $p in $d//person let $c := (for $q in $d//pet where $q/.. is $p return $q) return count($c)",
      "2 0" );
    ("stable order", "for $x in (2,1,2,1) order by $x return $x", "1 1 2 2");
  ]

let constructors =
  [
    ("element", "<a>{1 + 1}</a>", "<a>2</a>");
    ("nested", "<a><b>x</b></a>", "<a><b>x</b></a>");
    ("avt", "let $v := 5 return <a b=\"v={$v}!\"/>", "<a b=\"v=5!\"/>");
    ("attribute from node", "<a>{$d//person[1]/@id}</a>", "<a id=\"p1\"/>");
    ("sequence content spacing", "<a>{1,2,3}</a>", "<a>1 2 3</a>");
    ("copied nodes", "<a>{$d//name}</a>", "<a><name>Alice</name><name>Bob</name></a>");
    ("text constructor", "text { \"hi\" }", "hi");
    ("empty text constructor", "text { () }", ""); 
    ("comment constructor", "comment { \"c\" }", "<!--c-->");
    ("mixed literal and enclosed", "<a>x{1}y</a>", "<a>x1y</a>");
  ]

let functions =
  [
    ("count", "count((1,2,3))", "3");
    ("sum", "sum((1,2,3))", "6");
    ("sum empty", "sum(())", "0");
    ("avg", "avg((1,2,3))", "2");
    ("avg empty", "avg(())", "");
    ("min max", "(min((3,1,2)), max((3,1,2)))", "1 3");
    ("min promotes", "min((2, 1.5))", "1.5");
    ("empty exists", "(empty(()), exists(()))", "true false");
    ("string of node", "string(($d//name)[1])", "Alice");
    ("string-length", "string-length(\"abcd\")", "4");
    ("concat", "concat(\"a\", \"b\", \"c\")", "abc");
    ("string-join", "string-join((\"a\",\"b\"), \"-\")", "a-b");
    ("contains", "contains(\"hello world\", \"lo w\")", "true");
    ("starts ends", "(starts-with(\"abc\",\"ab\"), ends-with(\"abc\",\"bc\"))", "true true");
    ("substring", "substring(\"hello\", 2, 3)", "ell");
    ("upper lower", "(upper-case(\"aB\"), lower-case(\"aB\"))", "AB ab");
    ("normalize-space", "normalize-space(\"  a   b \")", "a b");
    ("translate", "translate(\"abcab\", \"ab\", \"AB\")", "ABcAB");
    ("number", "number(\"3.5\") + 0.5", "4");
    ("number nan", "string(number(\"abc\"))", "NaN");
    ("round floor ceiling", "(round(2.5), floor(2.7), ceiling(2.1))", "3 2 3");
    ("abs", "abs(-4)", "4");
    ("distinct-values", "distinct-values((1, 2, 1, \"1\", 2.0))", "1 2");
    ("reverse", "reverse((1,2,3))", "3 2 1");
    ("subsequence", "subsequence((1,2,3,4,5), 2, 3)", "2 3 4");
    ("insert-before", "insert-before((1,2,3), 2, 99)", "1 99 2 3");
    ("remove", "remove((1,2,3), 2)", "1 3");
    ("exactly-one", "exactly-one((42))", "42");
    ("zero-or-one empty", "zero-or-one(())", "");
    ("one-or-more", "one-or-more((1,2))", "1 2");
    ("name local-name", "(name($d//person[1]), local-name($d//person[1]))", "person person");
    ("root", "count(root(($d//name)[1])//person)", "2");
    ("boolean of nodes", "boolean($d//person)", "true");
    ("data", "data($d//n)", "1 2 3");
    ("string-join over path", "string-join($d//pet/text(), \",\")", "cat,dog");
  ]

let node_set_ops =
  [
    ("intersect", "count($d//person intersect $d//*)", "2");
    ("except", "for $x in ($d/root/* except $d//people) return name($x)", "nums");
    ("intersect empty", "count($d//person intersect $d//n)", "0");
    ("except keeps doc order", "for $x in ($d//* except $d//pet) return name($x)",
     "root people person name person name nums n n n");
  ]

let computed_constructors =
  [
    ("computed element", "element box { 1 + 1 }", "<box>2</box>");
    ("computed attribute", "<e>{attribute k { 6 * 7 }}</e>", {|<e k="42"/>|});
    ("computed pi", {|processing-instruction target { "data" }|}, "<?target data?>");
    ("document node", "count(document { <r><a/></r> }/r/a)", "1");
    ("element wrapping nodes", "element all { $d//pet }", "<all><pet>cat</pet><pet>dog</pet></all>");
  ]

let extra_functions =
  [
    ("deep-equal true", {|deep-equal(<a x="1"><b/></a>, <a x="1"><b/></a>)|}, "true");
    ("deep-equal attr order", {|deep-equal(<a x="1" y="2"/>, <a y="2" x="1"/>)|}, "true");
    ("deep-equal false", "deep-equal(<a/>, <b/>)", "false");
    ("deep-equal atoms", "deep-equal((1, 2), (1.0, 2.0))", "true");
    ("index-of", {|index-of(("a","b","a"), "a")|}, "1 3");
    ("index-of untyped", {|index-of($d//n/text(), "2")|}, "2");
    ("compare", {|(compare("a","b"), compare("b","b"), compare("c","b"))|}, "-1 0 1");
    ("substring-before", {|substring-before("key=value", "=")|}, "key");
    ("substring-after", {|substring-after("key=value", "=")|}, "value");
    ("substring-before missing", {|substring-before("abc", "z")|}, "");
    ("matches", {|matches("abc123", "[a-c]+\d")|}, "true");
    ("matches anchors", {|matches("abc", "^a.c$")|}, "true");
    ("matches alternation", {|matches("xbc", "(a|x)bc")|}, "true");
    ("replace", {|replace("2006-07-06", "-", "/")|}, "2006/07/06");
    ("replace class", {|replace("a1b2", "\d", "#")|}, "a#b#");
    ("tokenize", {|count(tokenize("a b c", "\s"))|}, "3");
    ("string-to-codepoints", {|string-to-codepoints("AB")|}, "65 66");
    ("codepoints-to-string", "codepoints-to-string((72, 105))", "Hi");
  ]

let control =
  [
    ("if then", "if (1 = 1) then \"y\" else \"n\"", "y");
    ("if else", "if (1 = 2) then \"y\" else \"n\"", "n");
    ("if on node sequence", "if ($d//person) then \"some\" else \"none\"", "some");
    ("some", "some $x in (1,2,3) satisfies $x > 2", "true");
    ("every", "every $x in (1,2,3) satisfies $x > 2", "false");
    ("some multiple binders", "some $x in (1,2), $y in (2,3) satisfies $x = $y", "true");
    ("quantifier over empty", "(some $x in () satisfies true(), every $x in () satisfies false())", "false true");
    ( "typeswitch integer",
      "typeswitch (42) case $i as xs:integer return \"int\" case $s as xs:string return \"str\" default return \"other\"",
      "int" );
    ( "typeswitch node",
      "typeswitch (($d//name)[1]) case element(name) return \"name elem\" default return \"other\"",
      "name elem" );
    ( "typeswitch default",
      "typeswitch (3.14) case $i as xs:integer return \"int\" default $o return string($o)",
      "3.14" );
    ("instance of", "(1,2) instance of xs:integer+", "true");
    ("instance of fails", "(1, \"x\") instance of xs:integer*", "false");
    ("treat as", "(1,2) treat as xs:integer*", "1 2");
    ("castable", "(\"12\" castable as xs:integer, \"x\" castable as xs:integer)", "true false");
    ("cast", "\"12\" cast as xs:integer", "12"); 
    ("cast optional empty", "() cast as xs:integer?", "");
    ("union dedups and orders", "count(($d//person | $d//person))", "2");
  ]

let predicate_edge_cases =
  [
    ("nested predicate with last", "$d//person[pet[last()]]/name/text()", "Alice");
    ("predicate on predicate result", "($d//pet[1])[1]/text()", "cat");
    ("position in inner not outer", "$d//person[pet[2]]/@id", {|id="p1"|});
    ("numeric predicate via expression", "$d//n[1 + 1]/text()", "2");
    ("boolean-typed function predicate", "$d//person[empty(pet)]/name/text()", "Bob");
    ("predicate over atomic sequence", "(10, 20, 30)[. > 15]", "20 30");
    ("chained predicates", "$d//n[. > 1][1]/text()", "2");
    ("last on empty", "$d//zz[last()]", "");
    ("predicate false for all", "$d//n[. > 99]", "");
    ("attribute kind test step", "count($d//person/attribute(id))", "2");
    ("element kind test step", "count($d//people/element(person))", "2");
    ("wildcard attribute", "count($d//person[1]/@*)", "2");
  ]

let user_functions =
  [
    ( "simple function",
      "declare function local:double($x) { $x * 2 }; local:double(21)", "42" );
    ( "recursion",
      "declare function local:fib($n) { if ($n <= 1) then $n else local:fib($n - 1) + local:fib($n - 2) }; local:fib(10)",
      "55" );
    ( "mutual composition",
      "declare function local:inc($x) { $x + 1 }; declare function local:twice($x) { local:inc(local:inc($x)) }; local:twice(1)",
      "3" );
    ( "function over nodes",
      "declare function local:names($p) { $p/name/text() }; local:names($d//person)",
      "AliceBob" );
    ( "typed params",
      "declare function local:f($x as xs:integer) as xs:integer { $x }; local:f(3)",
      "3" );
    ( "global variable",
      "declare variable $g := 10; declare function local:f($x) { $x + $g }; local:f(5)",
      "15" );
  ]

(* A user declaration in the fn: namespace shadows the builtin of the
   same name, under every strategy including the No-algebra interpreter. *)
let test_shadowed_builtin () =
  let q =
    {|declare function fn:count($x) { 999 };
      count(for $p in $d//pet where $p = "cat" return $p)|}
  in
  List.iter
    (fun strategy ->
      Alcotest.(check string) (Xqc.strategy_name strategy) "999" (eval ~strategy q))
    Xqc.all_strategies

let errors =
  [
    ("unknown function", "nosuchfn(1)");
    ("unknown variable", "$nosuchvar");
    ("treat as failure", "(1, \"x\") treat as xs:integer*");
    ("cast failure", "\"abc\" cast as xs:integer");
    ("exactly-one failure", "exactly-one((1,2))");
    ("arith on nodes", "$d//person + 1");
  ]

let error_tests =
  List.map
    (fun (name, q) ->
      Alcotest.test_case name `Quick (fun () ->
          match eval q with
          | exception Xqc.Error _ -> ()
          | r -> Alcotest.failf "expected an error, got %S" r))
    errors

(* ------------------------------------------------------------------ *)
(* Identity of constructed nodes                                        *)
(* ------------------------------------------------------------------ *)

(* Serialized output cannot show a node shared by two parents, so these
   cases assert identity and parent links directly, and every result
   tree must pass [Node.check_tree].  Each runs under every strategy,
   streamed and materialized. *)

module N = Xqc.Node

let modes =
  List.concat_map (fun s -> [ (s, false); (s, true) ]) Xqc.all_strategies

let mode_name (s, m) =
  Printf.sprintf "%s, %s" (Xqc.strategy_name s) (if m then "materialized" else "streamed")

let run_in (s, materialize) q =
  let saved = !Xqc.Eval.force_materialize in
  Xqc.Eval.force_materialize := materialize;
  Fun.protect
    ~finally:(fun () -> Xqc.Eval.force_materialize := saved)
    (fun () -> Xqc.eval_string ~strategy:s ~variables:[ ("d", [ Xqc.Item.Node doc ]) ] q)

let check_trees what items =
  List.iter
    (function
      | Xqc.Item.Node n -> (
          match N.check_tree n with
          | Ok () -> ()
          | Error m -> Alcotest.failf "%s: %s" what m)
      | Xqc.Item.Atom _ -> ())
    items

let single_node what = function
  | [ Xqc.Item.Node n ] -> n
  | items -> Alcotest.failf "%s: expected one node, got %d items" what (List.length items)

let child_elements n = List.filter (fun c -> N.kind c = N.Kelement) (N.children n)

(* [check] gets the result items of [q] in every mode. *)
let identity_case name q check =
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun mode ->
          let what = Printf.sprintf "%s (%s)" name (mode_name mode) in
          let items = run_in mode q in
          check_trees what items;
          check what items)
        modes)

let expect_serialized expected what items =
  Alcotest.(check string) what expected (Xqc.serialize items)

(* Unnested FLWORs whose GroupBy aggregate must not be adopted: read
   twice, carried through a product, or duplicated by a dependent join. *)
let grouped_pets = {|(for $q in $d//pet where $q/.. is $p return <x>{$q/text()}</x>)|}

let identity_queries =
  [
    identity_case "variable is copied, not moved"
      "let $x := <a/> return (empty($x/..), <b>{$x}</b>/a is $x)"
      (expect_serialized "true false");
    identity_case "one node twice in content is copied twice"
      "let $c := <c/> return <r>{$c}{$c}</r>" (fun what items ->
        let r = single_node what items in
        match child_elements r with
        | [ c1; c2 ] ->
            Alcotest.(check bool) (what ^ ": distinct children") false (c1 == c2);
            List.iter
              (fun c ->
                Alcotest.(check bool) (what ^ ": parent is r") true
                  (match N.parent c with Some p -> p == r | None -> false))
              [ c1; c2 ]
        | l -> Alcotest.failf "%s: expected two c children, got %d" what (List.length l));
    identity_case "parent links of nested constructors" "(<a><b><c/></b></a>//c/../..)"
      (fun what items ->
        let a = single_node what items in
        Alcotest.(check (option string)) (what ^ ": name") (Some "a") (N.name a);
        Alcotest.(check bool) (what ^ ": a is the root") true (N.parent a = None);
        match child_elements a with
        | [ b ] -> (
            Alcotest.(check bool) (what ^ ": b under a") true
              (match N.parent b with Some p -> p == a | None -> false);
            match child_elements b with
            | [ c ] ->
                Alcotest.(check bool) (what ^ ": c under b") true
                  (match N.parent c with Some p -> p == b | None -> false)
            | _ -> Alcotest.failf "%s: b should have one child" what)
        | _ -> Alcotest.failf "%s: a should have one child" what);
    identity_case "nested constructor result is its own root"
      "let $a := <a><b><c/></b></a> return ($a//c/../.. is $a, <w>{$a}</w>/a is $a)"
      (expect_serialized "true false");
    identity_case "grouped aggregate read twice"
      ("for $p in $d//person let $ps := " ^ grouped_pets ^ " return <r>{$ps}{$ps}</r>")
      (expect_serialized
         "<r><x>cat</x><x>dog</x><x>cat</x><x>dog</x></r><r/>");
    identity_case "grouped aggregate through a product"
      ("for $p in $d//person let $ps := " ^ grouped_pets
     ^ " for $n in $d//n return <r>{$ps}</r>")
      (expect_serialized
         "<r><x>cat</x><x>dog</x></r><r><x>cat</x><x>dog</x></r><r><x>cat</x><x>dog</x></r><r/><r/><r/>");
    identity_case "grouped constructor through a dependent join"
      ("for $r in (for $p in $d//person let $ps := " ^ grouped_pets
     ^ " return <r>{$ps}</r>), $m in $d//n return <s>{$r}</s>")
      (expect_serialized
         "<s><r><x>cat</x><x>dog</x></r></s><s><r><x>cat</x><x>dog</x></r></s><s><r><x>cat</x><x>dog</x></r></s><s><r/></s><s><r/></s><s><r/></s>");
    identity_case "document constructor" "document { <r><a/>{1}</r>, <s/> }"
      (fun what items ->
        expect_serialized "<r><a/>1</r><s/>" what items;
        let d = single_node what items in
        Alcotest.(check bool) (what ^ ": document node") true (N.kind d = N.Kdocument));
    identity_case "computed attribute and text content"
      {|<e>{attribute k { <v>4</v>, 2 }}{text { <t>x</t>, "y" }}</e>|}
      (expect_serialized {|<e k="4 2">x y</e>|});
  ]

(* At the plan level: a GroupBy read once by the MapToItem it feeds
   builds its aggregate fresh, so the enclosing constructor adopts it and
   copies nothing; any operator between the two — here a Select whose
   predicate is always true — forces the copy. *)
let test_operator_between_forces_copy () =
  let open Xqc.Algebra in
  let rows =
    Xqc.parse_document {|<t><row k="1" v="a"/><row k="1" v="b"/><row k="2" v="c"/></t>|}
  in
  let attr name = Call ("fn:data", [ TreeJoin (Xqc.Ast.Attribute_axis, Xqc.Ast.Name_test name, Input) ]) in
  let g =
    {
      g_agg = "agg";
      g_indices = [ "k" ];
      g_nulls = [];
      g_post = Input;
      g_pre = Element ("x", FieldAccess "v");
    }
  in
  let logical =
    Element
      ( "w",
        MapToItem
          ( Element ("r", FieldAccess "agg"),
            GroupBy
              ( g,
                MapFromItem
                  ( TupleConstruct [ ("k", attr "k"); ("v", attr "v") ],
                    TreeJoin (Xqc.Ast.Child, Xqc.Ast.Name_test "row", Var "t") ) ) ) )
  in
  let planned = Xqc.Planner.plan logical in
  let rec cut (p : Xqc.Physical.t) : Xqc.Physical.t =
    match p.Xqc.Physical.pop with
    | Xqc.Physical.PElement (n, c) -> { p with pop = PElement (n, cut c) }
    | Xqc.Physical.PMapToItem (dep, input) ->
        let always = { input with pop = PScalar (Xqc.Atomic.Boolean true) } in
        { p with pop = PMapToItem (dep, { input with pop = PSelect (always, input) }) }
    | _ -> Alcotest.fail "unexpected plan shape"
  in
  let copies p =
    let ctx = Xqc.Dynamic_ctx.create () in
    Xqc.Dynamic_ctx.bind_global ctx "t" [ Xqc.Item.Node (List.hd (N.children rows)) ];
    let before = Xqc.Obs.counter_value (Xqc.Obs.global_counter "construct_nodes_copied") in
    let comp, _ = Xqc.Eval.compile (Xqc.Eval.top_env (Xqc.Obs.profile ~timed:false) p) p in
    let items = Xqc.Eval.as_items (comp ctx Xqc.Eval.INone) in
    check_trees "plan result" items;
    Alcotest.(check string) "result" "<w><r><x>a</x><x>b</x></r><r><x>c</x></r></w>"
      (Xqc.serialize items);
    Xqc.Obs.counter_value (Xqc.Obs.global_counter "construct_nodes_copied") - before
  in
  Alcotest.(check int) "direct GroupBy: adopted, nothing copied" 0 (copies planned);
  Alcotest.(check int) "behind a Select: each x copied with its text" 6 (copies (cut planned))

let () =
  Alcotest.run "eval"
    [
      ("arithmetic", List.map expect arithmetic);
      ("comparisons", List.map expect comparisons);
      ("paths", List.map expect paths);
      ("flwor", List.map expect flwor);
      ("constructors", List.map expect constructors);
      ("functions", List.map expect functions);
      ("control", List.map expect control);
      ("node set ops", List.map expect node_set_ops);
      ("computed constructors", List.map expect computed_constructors);
      ("extra functions", List.map expect extra_functions);
      ( "user functions",
        List.map expect user_functions
        @ [ Alcotest.test_case "shadowed builtin" `Quick test_shadowed_builtin ] );
      ("predicate edge cases", List.map expect predicate_edge_cases);
      ("errors", error_tests);
      ( "constructed node identity",
        identity_queries
        @ [ Alcotest.test_case "an operator between forces a copy" `Quick test_operator_between_forces_copy ] );
    ]
