(* Cross-strategy equivalence: randomized queries over randomized small
   documents must produce byte-identical serialized results under every
   engine configuration.  This is the repository's main correctness
   property: the interpreter is the executable specification and the
   optimized algebraic plans must agree with it. *)

let strategies = Xqc.all_strategies

(* -------- random document generator -------- *)

let doc_gen : Xqc.Node.t QCheck.Gen.t =
  let open QCheck.Gen in
  (* numeric-only data values: the Section 6 join algorithms deliberately
     turn "untyped value does not cast" errors into non-matches (the
     paper's semantics), so non-numeric ages/amounts would make the
     interpreter error where the hash join returns no match *)
  let value = oneofl [ "1"; "2"; "3"; "10"; "1.5"; "0" ] in
  let person i =
    value >>= fun age ->
    oneofl [ "a"; "b"; "c" ] >>= fun name ->
    int_bound 2 >>= fun pets ->
    return
      (Printf.sprintf
         {|<person id="p%d" age="%s"><name>%s</name>%s</person>|} i age name
         (String.concat "" (List.init pets (fun p -> Printf.sprintf "<pet>x%d</pet>" p))))
  in
  let order _i =
    value >>= fun amount ->
    int_bound 4 >>= fun who ->
    return (Printf.sprintf {|<order buyer="p%d"><amount>%s</amount></order>|} who amount)
  in
  int_range 0 5 >>= fun np ->
  int_range 0 6 >>= fun no ->
  let rec seq f n acc =
    if n = 0 then return (List.rev acc)
    else f n >>= fun x -> seq f (n - 1) (x :: acc)
  in
  seq person np [] >>= fun persons ->
  seq order no [] >>= fun orders ->
  return
    (Xqc.parse_document
       (Printf.sprintf "<db><people>%s</people><orders>%s</orders></db>"
          (String.concat "" persons) (String.concat "" orders)))

(* -------- query pool -------- *)

let queries =
  [|
    "count($d//person)";
    "for $p in $d//person return $p/name/text()";
    "for $p in $d//person where $p/@age > 2 return $p/@id";
    "for $p in $d//person, $o in $d//order where $o/@buyer = $p/@id return <hit>{$p/name/text()}</hit>";
    "for $p in $d//person let $os := (for $o in $d//order where $o/@buyer = $p/@id return $o) return <p n=\"{$p/name/text()}\">{count($os)}</p>";
    "for $p in $d//person let $os := (for $o in $d//order where $o/amount < $p/@age return $o) return count($os)";
    "for $p in $d//person return <r>{for $o in $d//order where $o/@buyer = $p/@id return $o/amount/text()}</r>";
    "for $p in $d//person order by $p/@age descending return $p/name/text()";
    "for $p in $d//person[@age >= 2] return count($p/pet)";
    "sum(for $o in $d//order return $o/amount[. castable as xs:double] cast as xs:double?)";
    "for $x in $d//pet[1] return $x";
    "some $p in $d//person satisfies $p/@age = 10";
    "every $p in $d//person satisfies exists($p/name)";
    "distinct-values($d//order/@buyer)";
    "for $p in $d//person return (typeswitch ($p/pet) case element(pet)+ return \"has pets\" default return \"none\")";
    "$d//person[2]/name/text()";
    "$d//person[last()]/@id";
    "for $p in $d//person return ($p/@age + 1, string-length($p/name))";
    "<summary people=\"{count($d//people/person)}\">{$d//order[amount > 2]}</summary>";
    "for $a in $d//person, $b in $d//person where $a/@age = $b/@age return 1";
    "for $p in $d//person order by $p/name/text(), $p/@age descending return $p/@id";
    "for $x in ($d//person union $d//order) return name($x)";
    "count($d//person/pet intersect $d//pet)";
    "for $x in ($d//* except $d//pet) return name($x)";
    "for $p in $d//person return element rec { attribute age { $p/@age }, $p/name/text() }";
    "for $p in $d//person[position() > 1] return $p/@id";
    "$d//person[last()]/name/text()";
    "for $p in $d//person return (if ($p/pet) then count($p/pet) else -1)";
    "some $p in $d//person, $o in $d//order satisfies $o/@buyer = $p/@id";
    "every $o in $d//order satisfies $o/amount > 0";
    {|for $p in $d//person return string-join(for $q in $p/pet return string($q), "+")|};
    "sum(for $p in $d//person return count($p/pet) * 2)";
    "for $p in $d//person let $n := normalize-space(string($p/name)) where string-length($n) > 0 return $n";
    "for $o in $d//order order by number($o/amount) descending, $o/@buyer return $o/amount/text()";
    "deep-equal($d//person[1], $d//person[1])";
    {|for $p in $d//person return (typeswitch ($p/@age) case $a as attribute() return "attr" default return "none")|};
    {|count(clio:deep-distinct(for $o in $d//order return <o b="{$o/@buyer}"/>))|};
    "for $p in reverse($d//person) return $p/@id";
    "for $i in 1 to count($d//person) return $d//person[$i]/name/text()";
    {|for $p in $d//person where matches(string($p/name), "[ab]") return $p/name/text()|};
    "for $p in $d//person return <w>{$p/pet[1]}{$p/pet[2]}</w>";
    "(for $p in $d//person return $p/@age) = (for $o in $d//order return $o/amount)";
    {|for $p in $d//person let $c := count(for $o in $d//order where $o/@buyer = $p/@id return $o) order by $c descending, $p/@id return <r id="{$p/@id}">{$c}</r>|};
    (* descendant steps over a constructed tree of 64 nodes or more
       whenever the document has a person (an order): the store indexes
       it lazily, a smaller one is walked *)
    "count(<r>{for $i in 1 to 16 return $d//person}</r>//pet)";
    "for $a in <r>{for $i in 1 to 16 return $d//order}</r>//amount return $a/text()";
    "let $r := <r>{for $i in 1 to 16 return $d//person}</r> return (exists($r//pet), $r/descendant-or-self::name[2])";
  |]

let arb =
  QCheck.make
    ~print:(fun (qi, _) -> queries.(qi))
    QCheck.Gen.(pair (int_bound (Array.length queries - 1)) doc_gen)

(* Run [f] with [Eval.force_materialize] set to [m]: every operator
   drains its cursor eagerly and the early-termination special cases are
   off — the fully materialized reference the streaming pipeline must
   agree with. *)
let with_materialize m f =
  let saved = !Xqc.Eval.force_materialize in
  Xqc.Eval.force_materialize := m;
  Fun.protect ~finally:(fun () -> Xqc.Eval.force_materialize := saved) f

let run_one ?(materialize = false) ?force_join strategy doc q =
  with_materialize materialize @@ fun () ->
  match
    Xqc.eval_string ~strategy ?force_join
      ~variables:[ ("d", [ Xqc.Item.Node doc ]) ]
      q
  with
  | items -> "OK:" ^ Xqc.serialize items
  | exception Xqc.Error _ -> "ERROR"

(* Run [f] with the structural index on ([true]) or with every step
   walked, restoring the ambient setting afterwards.  Every random
   document is parsed, so the loader has indexed it. *)
let with_index on f =
  let saved = !Xqc.Store.walk_only in
  Xqc.Store.walk_only := not on;
  Fun.protect ~finally:(fun () -> Xqc.Store.walk_only := saved) f

let prop_all_strategies_agree =
  QCheck.Test.make ~name:"all strategies agree on random query/doc pairs"
    ~count:500 arb (fun (qi, doc) ->
      let q = queries.(qi) in
      let results = List.map (fun s -> run_one s doc q) strategies in
      List.for_all (String.equal (List.hd results)) results)

(* The streaming pipeline against its own materialized execution (the
   [Eval.force_materialize] debug knob drains every cursor eagerly and disables
   the early-termination special cases): cursors must be a pure
   evaluation-order change, never a result change. *)
let prop_streaming_is_transparent =
  QCheck.Test.make ~name:"streamed and materialized evaluation agree"
    ~count:250 arb (fun (qi, doc) ->
      let q = queries.(qi) in
      List.for_all
        (fun s ->
          String.equal (run_one s doc q) (run_one ~materialize:true s doc q))
        strategies)

(* Forcing each join algorithm against the planner's own cost-based
   choice: the physical algorithms are interchangeable implementations of
   the same logical join, so overriding the planner must never change a
   result (only the sort join is restricted — the planner falls back to
   the nested loop for predicates it cannot execute). *)
let prop_forced_joins_agree =
  QCheck.Test.make ~name:"forced join algorithms agree with the planner"
    ~count:250 arb (fun (qi, doc) ->
      let q = queries.(qi) in
      let free = run_one Xqc.Optimized doc q in
      List.for_all
        (fun alg ->
          String.equal free (run_one ~force_join:alg Xqc.Optimized doc q))
        [ Xqc.Physical.Nested_loop; Xqc.Physical.Hash; Xqc.Physical.Sort ])

(* The structural-index store against the walking axis code: forcing
   indexes on and off must never change a result, under any strategy.
   This is the index analogue of the streaming-transparency property. *)
let prop_index_is_transparent =
  QCheck.Test.make ~name:"indexed and walked axes agree" ~count:250 arb
    (fun (qi, doc) ->
      let q = queries.(qi) in
      List.for_all
        (fun s ->
          String.equal
            (with_index true (fun () -> run_one s doc q))
            (with_index false (fun () -> run_one s doc q)))
        strategies)

(* The index and materialization axes composed: indexed axes drained
   eagerly against walked axes streamed, under every strategy. *)
let prop_index_and_materialize_compose =
  QCheck.Test.make ~name:"indexed+materialized agrees with walked+streamed"
    ~count:150 arb (fun (qi, doc) ->
      let q = queries.(qi) in
      List.for_all
        (fun s ->
          String.equal
            (with_index true (fun () ->
                 run_one ~materialize:true s doc q))
            (with_index false (fun () -> run_one s doc q)))
        strategies)

(* Every forced join algorithm with indexed axes and materialized
   evaluation, against the Core interpreter walking and streaming: all
   four axes at once on the algebraic side, none on the reference side. *)
let prop_forced_joins_indexed_materialized =
  QCheck.Test.make
    ~name:"forced joins, indexed and materialized, agree with the interpreter"
    ~count:100 arb (fun (qi, doc) ->
      let q = queries.(qi) in
      let reference =
        with_index false (fun () -> run_one Xqc.No_algebra doc q)
      in
      List.for_all
        (fun alg ->
          String.equal reference
            (with_index true (fun () ->
                 run_one ~materialize:true ~force_join:alg Xqc.Optimized doc q)))
        [ Xqc.Physical.Nested_loop; Xqc.Physical.Hash; Xqc.Physical.Sort ])

(* -------- literal positional predicates -------- *)

(* E[k] for a literal k compiles to fn:subsequence(E, k, 1) on the
   algebraic strategies, while the interpreters keep the normalized
   FLWOR.  A step predicate counts positions within the step's output
   from each context node ($d//a/b[1] is every a's first b), a filter
   over a parenthesized path counts over the whole path.  Every strategy,
   streamed and materialized, gives the literal answer. *)
let test_positional_predicates () =
  let doc =
    Xqc.parse_document
      "<db><a><b>1</b><b>2</b></a><a><b>3</b></a><a/><a><b>4</b><b>5</b><b>6</b></a></db>"
  in
  List.iter
    (fun (q, want) ->
      List.iter
        (fun s ->
          List.iter
            (fun materialize ->
              Alcotest.(check string)
                (Printf.sprintf "%s (%s%s)" q (Xqc.strategy_name s)
                   (if materialize then ", materialized" else ""))
                ("OK:" ^ want) (run_one ~materialize s doc q))
            [ false; true ])
        strategies)
    [
      ("$d//a/b[1]", "<b>1</b><b>3</b><b>4</b>");
      ("($d//a/b)[1]", "<b>1</b>");
      ("$d//a/b[2]", "<b>2</b><b>5</b>");
      ("$d//a/b[3]", "<b>6</b>");
      ("($d//a/b)[3]", "<b>3</b>");
      ("$d//a/b[last()]", "<b>2</b><b>3</b><b>6</b>");
      ("($d//a/b)[last()]", "<b>6</b>");
      ("$d//a/b[position() >= 2]", "<b>2</b><b>5</b><b>6</b>");
      ("$d//b[1]", "<b>1</b><b>3</b><b>4</b>");
      ("$d/db/a[2]/b", "<b>3</b>");
      ("$d/db/a[last()]/b[1]/text()", "4");
      ("($d//a/b)[7]", "");
      ("$d//a/b[0]", "");
      ("for $a in $d//a return <n>{$a/b[1]/text()}</n>", "<n>1</n><n>3</n><n/><n>4</n>");
      ("for $a in $d//a return <n>{$a/b[3]/text()}</n>", "<n/><n/><n/><n>6</n>");
      ("(for $a in $d//a return $a/b)[4]", "<b>4</b>");
    ]

(* fn:subsequence rounds its start and length as fn:round does and
   compares positions as floats.  The builtin (literal sequences) and
   the streamed call over an ordered path share one helper, and the
   interpreters call the same builtin, so the expectations are literal:
   agreement between strategies alone would not catch a shared fault.
   A position that is not a number is an error on both paths. *)
let test_subsequence_rounding () =
  let doc = Xqc.parse_document "<db><a><b>1</b><b>2</b><b>3</b><b>4</b></a></db>" in
  List.iter
    (fun (q, want) ->
      List.iter
        (fun s ->
          List.iter
            (fun materialize ->
              Alcotest.(check string)
                (Printf.sprintf "%s (%s%s)" q (Xqc.strategy_name s)
                   (if materialize then ", materialized" else ""))
                want (run_one ~materialize s doc q))
            [ false; true ])
        strategies)
    [
      ("subsequence((1,2,3,4), 1.5, 2)", "OK:2 3");
      ("subsequence((1,2,3,4), 1.5)", "OK:2 3 4");
      ("subsequence((1,2,3,4), -2.5, 5)", "OK:1 2");
      ({|subsequence((1,2,3,4), "NaN" cast as xs:double)|}, "OK:");
      ({|subsequence((1,2,3,4), 2, "INF" cast as xs:double)|}, "OK:2 3 4");
      ("subsequence($d/db/a/b, 1.5, 2)", "OK:<b>2</b><b>3</b>");
      ("subsequence($d/db/a/b, 2.5, 1.5)", "OK:<b>3</b><b>4</b>");
      ("subsequence($d/db/a/b, -0.5, 3)", "OK:<b>1</b><b>2</b>");
      ({|subsequence($d/db/a/b, "NaN" cast as xs:double, 2)|}, "OK:");
      ({|subsequence($d/db/a/b, 3, "INF" cast as xs:double)|}, "OK:<b>3</b><b>4</b>");
      ("(1,2,3)[1.5]", "OK:");
      ("$d/db/a/b[1.5]", "OK:");
      ({|subsequence((1,2,3,4), "a")|}, "ERROR");
      ("subsequence($d/db/a/b, true(), 2)", "ERROR");
    ]

(* Casts read the XML Schema lexical forms only: OCaml's own numeric
   syntaxes are errors under every strategy, also when an untyped value
   meets a number in a comparison. *)
let test_numeric_lexical_forms () =
  let doc = Xqc.parse_document "<db/>" in
  List.iter
    (fun (q, want) ->
      List.iter
        (fun s -> Alcotest.(check string) (q ^ " (" ^ Xqc.strategy_name s ^ ")") want (run_one s doc q))
        strategies)
    [
      ({|"1_000" cast as xs:double|}, "ERROR");
      ({|"0x1A" cast as xs:double|}, "ERROR");
      ({|"inf" cast as xs:double|}, "ERROR");
      ({|"1_0" cast as xs:integer|}, "ERROR");
      ("<a>0x10</a> = 16", "ERROR");
      ({|"INF" cast as xs:double|}, "OK:INF");
      ({|" 12 " cast as xs:integer|}, "OK:12");
      ("<a> 2.5 </a> = 2.5", "OK:true");
    ]

(* -------- bounded pulls: the early-termination property itself -------- *)

(* Existential and positional queries over an XMark document must stop
   after a constant-size prefix: the run's profile counts every tuple
   and item actually pulled through an operator, so streaming shows up
   as pull totals that do not grow with the document. *)
let pulled ~materialize doc q =
  with_materialize materialize @@ fun () ->
  let p = Xqc.prepare q and profile = Xqc.Obs.profile ~timed:false in
  let ctx = Xqc.context () in
  Xqc.bind_variable ctx "auction" [ Xqc.Item.Node doc ];
  let result = Xqc.run ~profile p ctx in
  let tuples, items = Xqc.Obs.pulled_totals profile in
  (result, tuples + items)

let check_bounded_pulls ~target_bytes queries =
  let doc = Xqc_workload.Xmark.generate ~target_bytes () in
  List.iter
    (fun (q, bound) ->
      let streamed_result, streamed = pulled ~materialize:false doc q in
      let materialized_result, materialized = pulled ~materialize:true doc q in
      Alcotest.(check string)
        (q ^ ": streamed and materialized results agree")
        (Xqc.serialize materialized_result)
        (Xqc.serialize streamed_result);
      if streamed > bound then
        Alcotest.failf "%s: pulled %d, expected at most %d" q streamed bound;
      if materialized < 10 * streamed then
        Alcotest.failf "%s: materialized pulls %d not >= 10x streamed %d" q
          materialized streamed)
    queries

let test_bounded_pulls () =
  check_bounded_pulls ~target_bytes:200_000
    [
      ("fn:exists($auction//item)", 50);
      ("fn:empty($auction//item)", 50);
      ("fn:exists($auction/site/people/person)", 50);
      ("($auction//item)[1]", 60);
      ("($auction//person)[1]", 100);
      ("fn:subsequence($auction//item, 1, 3)", 60);
      ("some $i in $auction//item satisfies fn:exists($i/name)", 60);
    ];
  (* the same bounds at 1MB: streamed pulls must not grow with the
     document *)
  check_bounded_pulls ~target_bytes:1_000_000
    [
      ("fn:exists($auction/site/people/person)", 50);
      ("fn:exists($auction//item)", 50);
      ("($auction//person)[1]", 100);
    ]

let test_pull_counts_match_materialized_cardinality () =
  (* a fully consumed pipeline pulls exactly what the materialized run
     produces: laziness changes when work happens, not how much *)
  let doc = Xqc_workload.Xmark.generate ~target_bytes:50_000 () in
  let q = "for $i in $auction/site/regions/africa/item return $i/name/text()" in
  let streamed_result, streamed = pulled ~materialize:false doc q in
  let materialized_result, materialized = pulled ~materialize:true doc q in
  Alcotest.(check string)
    "results agree"
    (Xqc.serialize materialized_result)
    (Xqc.serialize streamed_result);
  Alcotest.(check int) "same pull totals when fully consumed" materialized streamed

(* Every node a workload query returns — constructed or selected from
   the source document — must be a finished tree: parent links match the
   child lists, ids are consecutive in preorder, extents are exact and
   nothing is left unnumbered.  Checked for every strategy, streamed and
   materialized. *)
let check_result_trees ~var doc queries =
  List.iter
    (fun (name, q) ->
      List.iter
        (fun s ->
          List.iter
            (fun materialize ->
              let items =
                with_materialize materialize (fun () ->
                    match
                      Xqc.eval_string ~strategy:s ~variables:[ (var, [ Xqc.Item.Node doc ]) ] q
                    with
                    | items -> items
                    | exception Xqc.Error _ -> [])
              in
              List.iter
                (function
                  | Xqc.Item.Node n -> (
                      match Xqc.Node.check_tree n with
                      | Ok () -> ()
                      | Error m ->
                          Alcotest.failf "%s / %s%s: %s" name (Xqc.strategy_name s)
                            (if materialize then " materialized" else "")
                            m)
                  | Xqc.Item.Atom _ -> ())
                items)
            [ false; true ])
        strategies)
    queries

let () =
  let xmark_doc () = Xqc_workload.Xmark.generate ~target_bytes:40_000 () in
  let clio_doc () = Xqc_workload.Clio.generate ~target_bytes:15_000 () in
  let xmark_queries = Xqc_workload.Xmark_queries.all in
  Alcotest.run "equivalence"
    [
      ( "random",
        [
          QCheck_alcotest.to_alcotest prop_all_strategies_agree;
          QCheck_alcotest.to_alcotest prop_streaming_is_transparent;
          QCheck_alcotest.to_alcotest prop_forced_joins_agree;
          QCheck_alcotest.to_alcotest prop_index_is_transparent;
          QCheck_alcotest.to_alcotest prop_index_and_materialize_compose;
          QCheck_alcotest.to_alcotest prop_forced_joins_indexed_materialized;
        ] );
      ( "fixed",
        [
          Alcotest.test_case "literal positional predicates" `Quick
            test_positional_predicates;
          Alcotest.test_case "numeric lexical forms" `Quick test_numeric_lexical_forms;
          Alcotest.test_case "subsequence rounding" `Quick test_subsequence_rounding;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "bounded pulls under early exit" `Quick
            test_bounded_pulls;
          Alcotest.test_case "full consumption pulls everything" `Quick
            test_pull_counts_match_materialized_cardinality;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "xmark all queries" `Slow (fun () ->
              let doc = xmark_doc () in
              List.iter
                (fun (name, q) ->
                  let results =
                    List.map
                      (fun s ->
                        match
                          Xqc.eval_string ~strategy:s
                            ~variables:[ ("auction", [ Xqc.Item.Node doc ]) ] q
                        with
                        | items -> "OK:" ^ Xqc.serialize items
                        | exception Xqc.Error m -> "ERROR:" ^ m
                      )
                      strategies
                  in
                  if not (List.for_all (String.equal (List.hd results)) results)
                  then Alcotest.failf "XMark %s: strategies disagree" name)
                xmark_queries);
          Alcotest.test_case "xmark streamed vs materialized" `Slow (fun () ->
              let doc = xmark_doc () in
              List.iter
                (fun (name, q) ->
                  List.iter
                    (fun s ->
                      let go materialize =
                        with_materialize materialize (fun () ->
                            match
                              Xqc.eval_string ~strategy:s
                                ~variables:[ ("auction", [ Xqc.Item.Node doc ]) ]
                                q
                            with
                            | items -> "OK:" ^ Xqc.serialize items
                            | exception Xqc.Error m -> "ERROR:" ^ m)
                      in
                      if not (String.equal (go false) (go true)) then
                        Alcotest.failf
                          "XMark %s / %s: streamed and materialized disagree"
                          name (Xqc.strategy_name s))
                    strategies)
                xmark_queries);
          Alcotest.test_case "xmark indexed vs walk" `Slow (fun () ->
              let doc = xmark_doc () in
              List.iter
                (fun (name, q) ->
                  List.iter
                    (fun s ->
                      let go mode =
                        with_index mode (fun () ->
                            match
                              Xqc.eval_string ~strategy:s
                                ~variables:[ ("auction", [ Xqc.Item.Node doc ]) ]
                                q
                            with
                            | items -> "OK:" ^ Xqc.serialize items
                            | exception Xqc.Error m -> "ERROR:" ^ m)
                      in
                      if
                        not
                          (String.equal (go true) (go false))
                      then
                        Alcotest.failf
                          "XMark %s / %s: indexed and walked results disagree"
                          name (Xqc.strategy_name s))
                    strategies)
                xmark_queries);
          Alcotest.test_case "xmark forced joins" `Slow (fun () ->
              let doc = xmark_doc () in
              List.iter
                (fun (name, q) ->
                  let go force_join =
                    match
                      Xqc.eval_string ~strategy:Xqc.Optimized ?force_join
                        ~variables:[ ("auction", [ Xqc.Item.Node doc ]) ]
                        q
                    with
                    | items -> "OK:" ^ Xqc.serialize items
                    | exception Xqc.Error m -> "ERROR:" ^ m
                  in
                  let planned = go None in
                  List.iter
                    (fun alg ->
                      if not (String.equal planned (go (Some alg))) then
                        Alcotest.failf
                          "XMark %s: forcing %s changes the result" name
                          (match alg with
                          | Xqc.Physical.Nested_loop -> "nested loop"
                          | Xqc.Physical.Hash -> "hash"
                          | Xqc.Physical.Sort -> "sort"))
                    [ Xqc.Physical.Nested_loop; Xqc.Physical.Hash; Xqc.Physical.Sort ])
                xmark_queries);
          Alcotest.test_case "clio all queries" `Slow (fun () ->
              let doc = clio_doc () in
              List.iter
                (fun (name, q) ->
                  let results =
                    List.map
                      (fun s ->
                        match
                          Xqc.eval_string ~strategy:s
                            ~variables:[ ("doc", [ Xqc.Item.Node doc ]) ] q
                        with
                        | items -> "OK:" ^ Xqc.serialize items
                        | exception Xqc.Error m -> "ERROR:" ^ m)
                      strategies
                  in
                  if not (List.for_all (String.equal (List.hd results)) results)
                  then Alcotest.failf "Clio %s: strategies disagree" name)
                Xqc_workload.Clio.all);
          Alcotest.test_case "result trees are well formed" `Slow (fun () ->
              check_result_trees ~var:"auction" (xmark_doc ()) xmark_queries;
              check_result_trees ~var:"doc" (clio_doc ()) Xqc_workload.Clio.all);
        ] );
    ]
