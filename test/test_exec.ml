(* The sequential executor end to end: both hash-join build sides and
   their EXPLAIN ANALYZE counters, strict step chains and name tests, a
   sort over a filtered scan, fn:collection over several documents, the planner's join override, the EXPLAIN report,
   GroupBy's run grouping over the workloads,
   and reuse of one prepared plan across runs, contexts and domains.
   Every answer is checked against the Core interpreter or a literal. *)

open Xqc

let check = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* A people/orders document: person [i] has id "p<i mod ids>", so ids
   repeat when [ids < persons]; order [j] is bought by "p<j mod buyers>". *)
let people_orders ?(ids = max_int) ?(buyers = max_int) ~persons ~orders () =
  let person i =
    Printf.sprintf {|<person id="p%d"><name>n%d</name></person>|} (i mod ids) i
  in
  let order j =
    Printf.sprintf {|<order buyer="p%d"><amount>%d</amount></order>|}
      (j mod buyers) j
  in
  parse_document
    (Printf.sprintf "<db><people>%s</people><orders>%s</orders></db>"
       (String.concat "" (List.init persons person))
       (String.concat "" (List.init orders order)))

let join_q =
  {|for $p in $d//person, $o in $d//order where $o/@buyer = $p/@id
    return concat($p/name, ":", $o/amount)|}

let outer_q =
  {|for $p in $d//person
    return <p n="{$p/name}">{count(for $o in $d//order where $o/@buyer = $p/@id return $o)}</p>|}

let ctx_with doc =
  let ctx = context () in
  bind_variable ctx "d" [ Item.Node doc ];
  ctx

let run_on ?strategy ?force_join doc q =
  serialize (run (prepare ?strategy ?force_join q) (ctx_with doc))

(* Index [doc] alone, so the planner's estimates are this document's
   exact name counts. *)
let indexed doc =
  Store.clear ();
  ignore (Store.index_nodes doc);
  doc

let labels (p : prepared) =
  match physical_plan p with
  | None -> Alcotest.fail "no physical plan"
  | Some q -> Physical.fold (fun acc n -> Pretty.physical_label n :: acc) [] q.Physical.pmain

let hash_joins p =
  List.filter (String.starts_with ~prefix:"PHashJoin") (labels p)

(* ------------------------------------------------------------------ *)
(* Hash joins                                                          *)
(* ------------------------------------------------------------------ *)

(* The planner builds on the estimated smaller side; either way the
   pairs and their order are those of the nested loop and of the Core
   interpreter.  Keys repeat on both sides, so a probe matches several
   build tuples and a build tuple is matched by several probes. *)
let check_build_side ~side doc =
  let doc = indexed doc in
  let p = prepare join_q in
  Alcotest.(check (list string))
    "planned join" [ "PHashJoin<eq>[build=" ^ side ^ "]" ] (hash_joins p);
  let got = serialize (run p (ctx_with doc)) in
  check "= nested loop" (run_on ~force_join:Physical.Nested_loop doc join_q) got;
  check "= interpreter" (run_on ~strategy:No_algebra doc join_q) got;
  check_bool "some pairs" true (got <> "")

let test_build_left () =
  check_build_side ~side:"left"
    (people_orders ~ids:3 ~buyers:4 ~persons:5 ~orders:40 ())

let test_build_right () =
  check_build_side ~side:"right"
    (people_orders ~ids:4 ~buyers:3 ~persons:40 ~orders:5 ())

(* The grouped (outer) form: a person nobody bought for keeps its row
   with an empty group. *)
let test_outer_join () =
  let doc = indexed (people_orders ~buyers:2 ~persons:4 ~orders:5 ()) in
  let p = prepare outer_q in
  check_bool "outer hash join planned" true
    (List.exists (fun l -> contains l "outer") (hash_joins p));
  let expected = {|<p n="n0">3</p><p n="n1">2</p><p n="n2">0</p><p n="n3">0</p>|} in
  check "unmatched persons count 0" expected (serialize (run p (ctx_with doc)));
  check "= interpreter" expected (run_on ~strategy:No_algebra doc outer_q)

(* The rows of [p]'s main plan, annotated from [profile]. *)
let main_rows p profile =
  match physical_plan p with
  | Some q -> Pretty.rows ~profile q.Physical.pmain
  | None -> Alcotest.fail "no physical plan"

(* The one hash join of [q]'s main plan after a run over [doc], with
   its output row count and join counters. *)
let analyzed_join q doc =
  let doc = indexed doc in
  let p = prepare q in
  let profile = Obs.profile ~timed:false in
  ignore (run ~profile p (ctx_with doc));
  let joins =
    List.filter
      (fun r -> String.starts_with ~prefix:"PHashJoin" r.Pretty.label)
      (main_rows p profile)
  in
  match joins with
  | [ r ] -> (
      match r.Pretty.stats with
      | Some st when r.Pretty.join -> (r.Pretty.label, st.Obs.op_tuples, st)
      | _ -> Alcotest.fail "no join counters")
  | _ -> Alcotest.failf "expected one hash join, got %d" (List.length joins)

(* EXPLAIN ANALYZE accounting of one inner hash join: one build over
   the build side, one probe per tuple of the other side, and one match
   per output pair. *)
let check_counters ~side ~build_rows ~probe_rows doc =
  let pairs = List.length (run (prepare join_q) (ctx_with doc)) in
  let label, rows, js = analyzed_join join_q doc in
  check "build side" ("PHashJoin<eq>[build=" ^ side ^ "]") label;
  check_int "output rows" pairs rows;
  check_int "one build" 1 js.Obs.op_builds;
  check_int "build tuples" build_rows js.Obs.op_build_tuples;
  check_int "one probe per tuple" probe_rows js.Obs.op_probes;
  check_int "one match per pair" pairs js.Obs.op_matches

let test_counters_left () =
  check_counters ~side:"left" ~build_rows:5 ~probe_rows:40
    (people_orders ~ids:3 ~buyers:4 ~persons:5 ~orders:40 ())

let test_counters_right () =
  check_counters ~side:"right" ~build_rows:5 ~probe_rows:40
    (people_orders ~ids:4 ~buyers:3 ~persons:40 ~orders:5 ())

(* The outer join emits one row per matched pair plus one per unmatched
   person; only the pairs count as matches. *)
let test_counters_outer () =
  let label, rows, js =
    analyzed_join outer_q (people_orders ~buyers:2 ~persons:4 ~orders:5 ())
  in
  check_bool "outer join" true (contains label "outer");
  check_int "one build" 1 js.Obs.op_builds;
  check_int "five pairs" 5 js.Obs.op_matches;
  check_int "pairs + two unmatched persons" 7 rows;
  check_bool "probed" true (js.Obs.op_probes > 0)

(* ------------------------------------------------------------------ *)
(* Join override                                                       *)
(* ------------------------------------------------------------------ *)

let test_default_config () =
  check_bool "planner default is cost-based" true
    (Planner.default_config.Planner.force_join = None);
  check_bool "optimized strategy is cost-based" true
    ((planner_config Optimized None).Planner.force_join = None);
  check_bool "nested-loop strategy pins the loop" true
    ((planner_config Optimized_nl None).Planner.force_join
    = Some Physical.Nested_loop);
  check_bool "an explicit force wins" true
    ((planner_config Optimized_nl (Some Physical.Hash)).Planner.force_join
    = Some Physical.Hash)

let test_forced_nested_loop () =
  let doc = indexed (people_orders ~buyers:3 ~persons:6 ~orders:9 ()) in
  let p = prepare ~force_join:Physical.Nested_loop join_q in
  check_bool "no hash join" true (hash_joins p = []);
  check_bool "nested loop planned" true
    (List.exists (String.starts_with ~prefix:"PNestedLoop") (labels p));
  check "= cost-based plan" (run_on doc join_q) (serialize (run p (ctx_with doc)))

(* A sort join cannot run an equality: the force falls back to the
   always-sound nested loop. *)
let test_incompatible_force () =
  let doc = indexed (people_orders ~buyers:3 ~persons:6 ~orders:9 ()) in
  let p = prepare ~force_join:Physical.Sort join_q in
  let ls = labels p in
  check_bool "no sort join" false
    (List.exists (String.starts_with ~prefix:"PSortJoin") ls);
  check_bool "nested loop planned" true
    (List.exists (String.starts_with ~prefix:"PNestedLoop") ls);
  check "= cost-based plan" (run_on doc join_q) (serialize (run p (ctx_with doc)))

(* ------------------------------------------------------------------ *)
(* Strict step chains                                                  *)
(* ------------------------------------------------------------------ *)

let with_materialize f =
  let saved = !Eval.force_materialize in
  Eval.force_materialize := true;
  Fun.protect ~finally:(fun () -> Eval.force_materialize := saved) f

(* Materialized, a step chain runs step by step over the accumulated
   node set and reports each step's output count. *)
let test_strict_step_counts () =
  let doc = indexed (people_orders ~persons:7 ~orders:3 ()) in
  let p = prepare "$d/db/people/person/name" in
  let profile = Obs.profile ~timed:false in
  let out = with_materialize (fun () -> run ~profile p (ctx_with doc)) in
  check_int "seven names" 7 (List.length out);
  let rows = main_rows p profile in
  let step name =
    match List.filter (fun r -> contains r.Pretty.label ("::" ^ name ^ "]")) rows with
    | [ { Pretty.stats = Some st; _ } ] -> st.Obs.op_items
    | ns -> Alcotest.failf "step %s: %d nodes" name (List.length ns)
  in
  check_int "db" 1 (step "db");
  check_int "people" 1 (step "people");
  check_int "person" 7 (step "person");
  check_int "name" 7 (step "name")

(* The structural index on ([true]) or every step walked.  The test
   documents are parsed, so the loader has indexed them. *)
let with_index on f =
  let saved = !Store.walk_only in
  Store.walk_only := not on;
  Fun.protect ~finally:(fun () -> Store.walk_only := saved) f

(* Index scans and tree walks give the same node sets, streamed or
   materialized. *)
let test_strict_steps_index_agree () =
  let doc = people_orders ~ids:3 ~persons:12 ~orders:8 () in
  let q = "$d//person[@id = \"p1\"]/name/text()" in
  let run_mode on materialize =
    with_index on (fun () ->
        if materialize then with_materialize (fun () -> run_on doc q)
        else run_on doc q)
  in
  let reference = run_on ~strategy:No_algebra doc q in
  check "expected names" "n1n4n7n10" reference;
  List.iter
    (fun (on, m, what) -> check what reference (run_mode on m))
    [
      (true, true, "indexed, materialized");
      (false, true, "walked, materialized");
      (true, false, "indexed, streamed");
      (false, false, "walked, streamed");
    ]

(* A path over nodes of two documents: each document's nodes come out
   in its own document order, documents in load order. *)
let test_steps_over_documents () =
  let a = people_orders ~persons:2 ~orders:0 () in
  let b = people_orders ~persons:3 ~orders:0 () in
  let ctx = context () in
  bind_variable ctx "d" [ Item.Node b; Item.Node a ];
  let q = "string-join(for $n in $d//person/name return string($n), \" \")" in
  let expected = "n0 n1 n0 n1 n2" in
  check "document order" expected (serialize (run (prepare q) ctx));
  check "= interpreter" expected
    (serialize (run (prepare ~strategy:No_algebra q) ctx))

(* Every combination of index use and materialization. *)
let exec_modes =
  [
    (true, true, "indexed, materialized");
    (false, true, "walked, materialized");
    (true, false, "indexed, streamed");
    (false, false, "walked, streamed");
  ]

let in_mode (on, materialize, _) f =
  with_index on (fun () -> if materialize then with_materialize f else f ())

(* Name tests and wildcards on the child, descendant and attribute
   axes: an element name never matches an attribute and the other way
   round. *)
let test_name_tests () =
  let doc = people_orders ~persons:3 ~orders:2 () in
  List.iter
    (fun (q, expected) ->
      check (q ^ " = interpreter") expected (run_on ~strategy:No_algebra doc q);
      List.iter
        (fun ((_, _, what) as m) ->
          check (q ^ ", " ^ what) expected (in_mode m (fun () -> run_on doc q)))
        exec_modes)
    [
      ("count($d//@*)", "5");
      ("count($d//*)", "13");
      ("count($d/db/*/person)", "3");
      ("count($d//person/attribute::name)", "0");
      ("count($d//person/child::id)", "0");
      ("for $a in $d//order/@* return name($a)", "buyer buyer");
    ]

(* Child steps from a variable bound to two document roots: each root's
   match, in document order. *)
let test_child_steps_from_roots () =
  let d1 = parse_document "<r><item>a</item></r>" in
  let d2 = parse_document "<r><item>b</item></r>" in
  let ctx = context () in
  bind_variable ctx "docs" [ Item.Node d1; Item.Node d2 ];
  let q = "$docs/r/item" in
  List.iter
    (fun strategy ->
      List.iter
        (fun ((_, _, what) as m) ->
          check
            (strategy_name strategy ^ ", " ^ what)
            "<item>a</item><item>b</item>"
            (in_mode m (fun () -> serialize (run (prepare ~strategy q) ctx))))
        exec_modes)
    all_strategies

(* A step chain read by a pulling consumer evaluates its source once,
   whether it streams or falls back to the strict fold: over two
   constructed source nodes the source's Sequence runs once and its 5
   nodes are numbered once.  The answers are the interpreter's under
   every strategy, streamed and materialized. *)
let test_chain_source_once () =
  let numbered () = Obs.counter_value (Obs.global_counter "construct_nodes_numbered") in
  let src = "(<a><b/></a>, <a><b/><b/></a>)" in
  List.iter
    (fun (q, expected) ->
      let reference = serialize (eval_string ~strategy:No_algebra q) in
      check (q ^ " = interpreter") expected reference;
      List.iter
        (fun materialize ->
          let mode = if materialize then "materialized" else "streamed" in
          let with_mode f = if materialize then with_materialize f else f () in
          let p = prepare q and profile = Obs.profile ~timed:false in
          let before = numbered () in
          check (q ^ ", " ^ mode) reference
            (with_mode (fun () -> serialize (run ~profile p (context ()))));
          check_int (q ^ ", " ^ mode ^ ": nodes numbered") 5 (numbered () - before);
          (match List.find_opt (fun r -> r.Pretty.label = "Sequence") (main_rows p profile) with
          | Some { Pretty.stats = Some st; _ } ->
              check_int (q ^ ", " ^ mode ^ ": source calls") 1 st.Obs.op_calls
          | _ -> Alcotest.failf "%s: no profiled Sequence row" q);
          List.iter
            (fun strategy ->
              check
                (q ^ ", " ^ mode ^ ", " ^ strategy_name strategy)
                reference
                (with_mode (fun () -> serialize (eval_string ~strategy q))))
            all_strategies)
        [ false; true ])
    [
      ("for $x in " ^ src ^ "/b return $x", "<b/><b/><b/>");
      ("fn:subsequence(" ^ src ^ "/b, 1, 2)", "<b/><b/>");
      ("fn:count(" ^ src ^ "//b)", "3");
    ]

(* EXPLAIN ANALYZE times are inclusive for a chain a pulling consumer
   reads, as for the strict [PSteps] arm: the Steps row's time covers
   its source row's, streamed and materialized, and neither row counts
   an extra call. *)
let test_pulled_chain_time_inclusive () =
  let q = "for $x in (<a><b/></a>, <a><b/><b/></a>)/b return $x" in
  List.iter
    (fun materialize ->
      let mode = if materialize then "materialized" else "streamed" in
      let p = prepare q and profile = Obs.profile ~timed:true in
      let out =
        serialize
          ((if materialize then with_materialize else fun f -> f ())
             (fun () -> run ~profile p (context ())))
      in
      check (mode ^ ": answer") "<b/><b/><b/>" out;
      let row prefix =
        match
          List.find_opt
            (fun r -> String.length r.Pretty.label >= String.length prefix
                      && String.sub r.Pretty.label 0 (String.length prefix) = prefix)
            (main_rows p profile)
        with
        | Some { Pretty.stats = Some st; _ } -> st
        | _ -> Alcotest.failf "%s: no profiled %s row" mode prefix
      in
      let steps = row "Steps" and source = row "Sequence" in
      check_bool
        (Printf.sprintf "%s: Steps time %.6f >= source time %.6f" mode steps.Obs.op_secs
           source.Obs.op_secs)
        true
        (steps.Obs.op_secs >= source.Obs.op_secs);
      check_int (mode ^ ": Steps calls") 1 steps.Obs.op_calls;
      check_int (mode ^ ": source calls") 1 source.Obs.op_calls;
      check_int (mode ^ ": Steps items") 3 steps.Obs.op_items)
    [ false; true ]

(* A filtered scan feeding a blocking sort: streamed or materialized,
   the sorted answer is the interpreter's. *)
let test_orderby_filtered_scan () =
  let doc = Xqc_workload.Xmark.generate ~target_bytes:100_000 () in
  let q =
    {|for $i in $d/site/regions//item
      where $i/location = "United States"
      order by $i/name
      return $i/name|}
  in
  let expected = run_on ~strategy:No_algebra doc q in
  check_bool "some items" true (expected <> "");
  check "streamed" expected (run_on doc q);
  check "materialized" expected (with_materialize (fun () -> run_on doc q))

(* ------------------------------------------------------------------ *)
(* fn:collection                                                       *)
(* ------------------------------------------------------------------ *)

let mk_db i =
  parse_document
    (Printf.sprintf "<db><people>%s</people></db>"
       (String.concat ""
          (List.init (i + 2) (fun p ->
               Printf.sprintf {|<person id="d%dp%d"><name>n%d</name></person>|}
                 i p p))))

let ids_q =
  {|string-join(for $c in collection("c"), $p in $c/db/people/person
                return string($p/@id), " ")|}

let path_q =
  {|string-join(for $p in collection("c")/db/people/person
                return string($p/@id), " ")|}

let with_collection docs q =
  let ctx = context () in
  Dynamic_ctx.bind_collection ctx "c" docs;
  serialize (run (prepare q) ctx)

(* fn:collection returns its members in binding order; a path over them
   sorts its result into document order, which across documents is the
   order they were loaded in. *)
let test_collection_order () =
  let d2 = mk_db 2 in
  let d0 = mk_db 0 in
  let d1 = mk_db 1 in
  check "binding order"
    "d0p0 d0p1 d1p0 d1p1 d1p2 d2p0 d2p1 d2p2 d2p3"
    (with_collection [ d0; d1; d2 ] ids_q);
  check "reversed binding" "d2p0 d2p1 d2p2 d2p3 d0p0 d0p1"
    (with_collection [ d2; d0 ] ids_q);
  check "path: load order" "d2p0 d2p1 d2p2 d2p3 d0p0 d0p1 d1p0 d1p1 d1p2"
    (with_collection [ d0; d1; d2 ] path_q);
  let ctx = context () in
  Dynamic_ctx.bind_collection ctx "c" [ d0; d1; d2 ];
  check "= interpreter" "d0p0 d0p1 d1p0 d1p1 d1p2 d2p0 d2p1 d2p2 d2p3"
    (serialize (run (prepare ~strategy:No_algebra ids_q) ctx))

let test_collection_empty () =
  check "no members" "0" (with_collection [] {|count(collection("c"))|});
  check "no persons" "0" (with_collection [] {|count(collection("c")//person)|})

let test_collection_rebind () =
  let ctx = context () in
  let p = prepare {|count(collection("c")//person)|} in
  Dynamic_ctx.bind_collection ctx "c" [ mk_db 0; mk_db 1 ];
  check "first binding" "5" (serialize (run p ctx));
  Dynamic_ctx.bind_collection ctx "c" [ mk_db 3 ];
  check "rebinding replaces" "5" (serialize (run p ctx));
  Dynamic_ctx.bind_collection ctx "c" [ mk_db 4; mk_db 0 ];
  check "second rebinding" "8" (serialize (run p ctx))

(* A value join between members of one collection. *)
let test_collection_join () =
  let q =
    {|for $a in collection("c")[1]//person, $b in collection("c")[2]//person
      where $a/name = $b/name return concat($a/@id, "=", $b/@id)|}
  in
  let docs = [ mk_db 1; mk_db 2 ] in
  let expected = "d1p0=d2p0 d1p1=d2p1 d1p2=d2p2" in
  check "pairs" expected (with_collection docs q);
  let ctx = context () in
  Dynamic_ctx.bind_collection ctx "c" docs;
  check "= interpreter" expected
    (serialize (run (prepare ~strategy:No_algebra q) ctx))

(* A filtered path over every member: index scans and tree walks,
   streamed or materialized, give the interpreter's answer. *)
let test_collection_index_agree () =
  let docs = List.init 4 mk_db in
  let q = {|for $p in collection("c")//person where $p/name != "n0" return $p/@id|} in
  let ctx = context () in
  Dynamic_ctx.bind_collection ctx "c" docs;
  let expected = serialize (run (prepare ~strategy:No_algebra q) ctx) in
  check_bool "some ids" true (expected <> "");
  List.iter
    (fun ((_, _, what) as m) -> check what expected (in_mode m (fun () -> with_collection docs q)))
    exec_modes

(* ------------------------------------------------------------------ *)
(* EXPLAIN                                                             *)
(* ------------------------------------------------------------------ *)

let sections report =
  List.filter_map
    (fun line ->
      if String.starts_with ~prefix:"=== " line then Some line else None)
    (String.split_on_char '\n' report)

let test_explain_sections () =
  Store.clear ();
  let report = explain join_q in
  let got = sections report in
  List.iter
    (fun s -> check_bool s true (List.mem s got))
    [
      "=== XQuery Core ===";
      "=== Logical plan (naive compilation) ===";
      "=== Optimized plan ===";
      "=== Physical plan ===";
    ];
  List.iter
    (fun s ->
      check_bool ("known section " ^ s) true
        (List.mem s
           [
             "=== XQuery Core ===";
             "=== Logical plan (naive compilation) ===";
             "=== Optimized plan ===";
             "=== Physical plan ===";
             "=== Rewrite trace ===";
           ]))
    got;
  check_bool "no fused segments section" false (contains report "=== Fused segments ===")

(* Operator labels carry the planner's choices and nothing else. *)
let test_explain_labels () =
  ignore (indexed (people_orders ~ids:3 ~buyers:4 ~persons:5 ~orders:40 ()));
  let report = explain join_q in
  check_bool "hash join label" true (contains report "PHashJoin<eq>[build=left]");
  check_bool "no partition annotation" false (contains report "par=");
  check_bool "no partition operator" false (contains report "Partition[")

(* The operator labels of a report's sections whose heading starts with
   [prefix], in order: every line carrying a planner estimate. *)
let section_labels ~prefix report =
  let _, labels =
    List.fold_left
      (fun (inside, acc) line ->
        if String.starts_with ~prefix:"=== " line then
          (String.starts_with ~prefix line, acc)
        else
          match String.index_from_opt line 0 '(' with
          | Some i when inside && contains line "  (est_rows=" ->
              (inside, String.trim (String.sub line 0 i) :: acc)
          | _ -> (inside, acc))
      (false, []) (String.split_on_char '\n' report)
  in
  List.rev labels

(* EXPLAIN and EXPLAIN ANALYZE draw the same plans: for every XMark and
   Clio query, the profiled sections list the static physical section's
   operators and steps, in the same order. *)
let test_explain_analyze_lockstep () =
  let check_lockstep var doc queries =
    Store.clear ();
    ignore (Store.index_nodes doc);
    List.iter
      (fun (name, q) ->
        let static = section_labels ~prefix:"=== Physical plan" (explain q) in
        let p = prepare q and profile = Obs.profile ~timed:false in
        let ctx = context () in
        bind_variable ctx var [ Item.Node doc ];
        ignore (run ~profile p ctx);
        let analyzed =
          section_labels ~prefix:"=== EXPLAIN ANALYZE" (explain_analyze p profile)
        in
        check_bool (name ^ ": some operators") true (static <> []);
        Alcotest.(check (list string)) name static analyzed)
      queries
  in
  check_lockstep "auction"
    (Xqc_workload.Xmark.generate ~target_bytes:20_000 ())
    Xqc_workload.Xmark_queries.all;
  check_lockstep "doc"
    (Xqc_workload.Clio.generate ~target_bytes:20_000 ())
    (List.filter (fun (n, _) -> List.mem n [ "N2"; "N3"; "N4" ]) Xqc_workload.Clio.all)

(* Static EXPLAIN lists every plan [prepare] makes: functions, globals
   and the main plan, each under its name. *)
let test_explain_all_plans () =
  let report =
    explain
      "declare variable $g := 10; declare function local:f($x) { $x + $g }; local:f(5)"
  in
  let lines = String.split_on_char '\n' report in
  List.iter
    (fun heading -> check_bool heading true (List.mem heading lines))
    [ "function local:f:"; "global $g:"; "main:" ];
  check_bool "the function body's addition" true (contains report "Call[op:add]")

(* A flat sequence is one Sequence node over its items, evaluated in
   one pass: a profiled run of count((1, ..., 1)) counts each item once
   through the Sequence (its Scalars are leaf reads, not profiled), plus
   the count itself, and its whole EXPLAIN report stays linear in the
   query. *)
let test_flat_sequence_linear () =
  let n = 5_000 in
  let q = "count((" ^ String.concat "," (List.init n (fun _ -> "1")) ^ "))" in
  let p = prepare q and profile = Obs.profile ~timed:false in
  check "count" (string_of_int n) (serialize (run ~profile p (context ())));
  let tuples, items = Obs.pulled_totals profile in
  check_int "n + 1 items counted" (n + 1) (tuples + items);
  (match physical_plan p with
  | Some q ->
      let seqs =
        Physical.fold
          (fun acc t -> match t.Physical.pop with Physical.PSeq ps -> List.length ps :: acc | _ -> acc)
          [] q.Physical.pmain
      in
      Alcotest.(check (list int)) "one Sequence over every item" [ n ] seqs
  | None -> Alcotest.fail "no physical plan");
  let report = explain q in
  check_bool
    (Printf.sprintf "EXPLAIN is %d bytes, under 1 MB" (String.length report))
    true
    (String.length report < 1_000_000)

let nested_constructors depth =
  String.concat "" (List.init depth (fun _ -> "<a>")) ^ String.concat "" (List.init depth (fun _ -> "</a>"))

(* A plan deeper than [Pretty.max_depth] prints its first levels and one
   line for the rest, so EXPLAIN of 200 nested constructors stays small:
   the physical plan is 64 Element lines and one for the remaining 136
   Elements and the Empty content. *)
let test_deep_plan_elided () =
  let depth = 200 in
  let q = nested_constructors depth in
  let p = prepare q in
  let plan =
    match physical_plan p with Some q -> q.Physical.pmain | None -> Alcotest.fail "no physical plan"
  in
  let lines = String.split_on_char '\n' (String.trim (Pretty.plan_to_string plan)) in
  check_int "lines" (Pretty.max_depth + 1) (List.length lines);
  check "elided line"
    (String.make (2 * Pretty.max_depth) ' ' ^ Printf.sprintf "… %d more operators" (depth + 1 - Pretty.max_depth))
    (List.nth lines Pretty.max_depth);
  let report = explain q in
  check_bool "every plan section elided" true
    (List.length (List.filter (fun l -> contains l "more operators") (String.split_on_char '\n' report)) = 3);
  check_bool
    (Printf.sprintf "EXPLAIN is %d bytes, under 64 KB" (String.length report))
    true
    (String.length report < 65_536)

(* A node's children are cut as its depth is: past [Pretty.max_depth]
   of them, one line stands for the rest.  So the EXPLAIN ANALYZE of a
   20,000-item sequence and of a 5,000-step chain each stays under
   16 KB, the JSON plan keeps [Pretty.max_depth] children and one elided
   node, and both runs still answer in full. *)
let test_wide_plan_capped () =
  let items = 20_000 and steps = 5_000 in
  List.iter
    (fun (name, q, answer, elided) ->
      let p = prepare q and profile = Obs.profile ~timed:true in
      check (name ^ ": answer") answer (serialize (run ~profile p (context ())));
      let report = explain_analyze p profile in
      check_bool
        (Printf.sprintf "%s: EXPLAIN ANALYZE is %d bytes, under 16 KB" name (String.length report))
        true
        (String.length report < 16_384);
      check_bool (name ^ ": one elided line") true
        (contains report (Printf.sprintf "… %d more operators" elided));
      let field f = function Obs.Obj fs -> List.assoc_opt f fs | _ -> None in
      let rec widest n =
        match field "children" n with
        | Some (Obs.Arr ks) -> List.fold_left (fun m k -> max m (widest k)) (List.length ks) ks
        | _ -> 0
      in
      match field "plans" (Xqc_server.Json_parse.parse (stats_json p profile)) with
      | Some (Obs.Arr [ main ]) ->
          check_int (name ^ ": widest JSON node") (Pretty.max_depth + 1)
            (widest (Option.get (field "plan" main)))
      | _ -> Alcotest.failf "%s: expected one plan in the stats JSON" name)
    [
      ( "sequence",
        "count((" ^ String.concat "," (List.init items (fun _ -> "1")) ^ "))",
        string_of_int items,
        items - Pretty.max_depth );
      (* the chain's source, an element with empty content, is drawn after its steps *)
      ( "step chain",
        "<a/>" ^ String.concat "" (List.init steps (fun _ -> "/a")),
        "",
        steps - Pretty.max_depth + 2 );
    ]

(* The stats-JSON plan is cut at the same depth: the report of 2,000
   nested constructors parses with the wire parser (512 levels at most),
   its plan has [Pretty.max_depth] operator levels, and one
   [elided_operators] node stands for the other 1,937 operators. *)
let test_deep_stats_json_cut () =
  let depth = 2_000 in
  let q = nested_constructors depth in
  let p = prepare q and profile = Obs.profile ~timed:true in
  ignore (serialize (run ~profile p (context ())));
  let field name = function Obs.Obj fs -> List.assoc_opt name fs | _ -> None in
  let children n = match field "children" n with Some (Obs.Arr ks) -> ks | _ -> [] in
  let rec levels n =
    if field "elided_operators" n <> None then 0
    else 1 + List.fold_left (fun m k -> max m (levels k)) 0 (children n)
  in
  let rec elided n =
    match field "elided_operators" n with
    | Some (Obs.Int k) -> [ (field "op" n, k) ]
    | _ -> List.concat_map elided (children n)
  in
  let report = Xqc_server.Json_parse.parse (stats_json p profile) in
  match field "plans" report with
  | Some (Obs.Arr [ main ]) ->
      let plan = Option.get (field "plan" main) in
      check_int "operator levels" Pretty.max_depth (levels plan);
      check_bool "one elided node for the rest" true
        (elided plan = [ (Some (Obs.Str "…"), depth + 1 - Pretty.max_depth) ])
  | _ -> Alcotest.fail "expected one plan in the stats JSON"

(* ------------------------------------------------------------------ *)
(* GroupBy                                                             *)
(* ------------------------------------------------------------------ *)

(* The unnesting rewrites key every GroupBy on MapIndex / MapIndexStep
   fields, which arrive ascending: over the paper's workloads GroupBy
   always groups runs and never hash-partitions. *)
let test_workload_groupbys_group_runs () =
  let hash_partitions () = List.assoc "groupby_hash_partitions" (Obs.global_counters ()) in
  let check_queries var doc queries =
    let ctx = context () in
    bind_variable ctx var [ Item.Node doc ];
    List.iter
      (fun (name, q) ->
        let before = hash_partitions () in
        ignore (serialize (run (prepare ~strategy:Optimized q) ctx));
        check_int (name ^ " hash partitions") before (hash_partitions ()))
      queries
  in
  check_queries "auction"
    (Xqc_workload.Xmark.generate ~target_bytes:100_000 ())
    Xqc_workload.Xmark_queries.all;
  check_queries "doc"
    (Xqc_workload.Clio.generate ~target_bytes:20_000 ())
    (List.filter (fun (n, _) -> List.mem n [ "N2"; "N3"; "N4" ]) Xqc_workload.Clio.all)

(* ------------------------------------------------------------------ *)
(* Plan reuse                                                          *)
(* ------------------------------------------------------------------ *)

(* The same prepared plan, run repeatedly: one answer every time, equal
   to a fresh preparation's. *)
let test_determinism () =
  let doc = Xqc_workload.Xmark.generate ~target_bytes:100_000 () in
  let q =
    "for $i in $auction/site/regions//item where $i/location = \"United \
     States\" return $i/name/text()"
  in
  let ctx = context () in
  bind_variable ctx "auction" [ Item.Node doc ];
  let p = prepare q in
  let reference = serialize (run (prepare q) ctx) in
  check_bool "some items" true (reference <> "");
  for i = 1 to 10 do
    let got = serialize (run p ctx) in
    if not (String.equal got reference) then
      Alcotest.failf "run %d diverged from the first result" i
  done

(* One plan over different contexts: each run sees only its own
   bindings, so nothing is carried over from an earlier run. *)
let test_contexts () =
  let a = people_orders ~buyers:2 ~persons:3 ~orders:4 () in
  let b = people_orders ~buyers:1 ~persons:2 ~orders:3 () in
  let p = prepare outer_q in
  let ra = serialize (run p (ctx_with a)) in
  let rb = serialize (run p (ctx_with b)) in
  check "first document" (run_on ~strategy:No_algebra a outer_q) ra;
  check "second document" (run_on ~strategy:No_algebra b outer_q) rb;
  check "first again" ra (serialize (run p (ctx_with a)))

(* Server workers share cached plans: one plan run on several domains
   at once gives every domain the sequential answer. *)
let test_domains () =
  let doc = people_orders ~ids:5 ~buyers:7 ~persons:30 ~orders:60 () in
  let p = prepare join_q in
  let reference = serialize (run p (ctx_with doc)) in
  let domains =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            List.init 5 (fun _ -> serialize (run p (ctx_with doc)))))
  in
  List.iteri
    (fun i d ->
      List.iter (check (Printf.sprintf "domain %d" i) reference) (Domain.join d))
    domains

let () =
  Alcotest.run "exec"
    [
      ( "hash join",
        [
          Alcotest.test_case "build=left" `Quick test_build_left;
          Alcotest.test_case "build=right" `Quick test_build_right;
          Alcotest.test_case "outer" `Quick test_outer_join;
          Alcotest.test_case "build=left counters" `Quick test_counters_left;
          Alcotest.test_case "build=right counters" `Quick test_counters_right;
          Alcotest.test_case "outer counters" `Quick test_counters_outer;
        ] );
      ( "join override",
        [
          Alcotest.test_case "default config" `Quick test_default_config;
          Alcotest.test_case "forced nested loop" `Quick test_forced_nested_loop;
          Alcotest.test_case "incompatible force" `Quick test_incompatible_force;
        ] );
      ( "steps",
        [
          Alcotest.test_case "strict per-step counts" `Quick test_strict_step_counts;
          Alcotest.test_case "indexed = walked" `Quick test_strict_steps_index_agree;
          Alcotest.test_case "several documents" `Quick test_steps_over_documents;
          Alcotest.test_case "name tests" `Quick test_name_tests;
          Alcotest.test_case "child steps from several roots" `Quick
            test_child_steps_from_roots;
          Alcotest.test_case "order by over a filtered scan" `Quick
            test_orderby_filtered_scan;
          Alcotest.test_case "chain source evaluated once" `Quick test_chain_source_once;
          Alcotest.test_case "pulled chain time is inclusive" `Quick
            test_pulled_chain_time_inclusive;
        ] );
      ( "collection",
        [
          Alcotest.test_case "binding order" `Quick test_collection_order;
          Alcotest.test_case "empty" `Quick test_collection_empty;
          Alcotest.test_case "rebinding" `Quick test_collection_rebind;
          Alcotest.test_case "join between members" `Quick test_collection_join;
          Alcotest.test_case "indexed = walked" `Quick test_collection_index_agree;
        ] );
      ( "explain",
        [
          Alcotest.test_case "sections" `Quick test_explain_sections;
          Alcotest.test_case "labels" `Quick test_explain_labels;
          Alcotest.test_case "EXPLAIN = EXPLAIN ANALYZE" `Quick
            test_explain_analyze_lockstep;
          Alcotest.test_case "functions and globals" `Quick test_explain_all_plans;
          Alcotest.test_case "flat sequence is linear" `Quick test_flat_sequence_linear;
          Alcotest.test_case "deep plan elided" `Quick test_deep_plan_elided;
          Alcotest.test_case "deep stats JSON cut" `Quick test_deep_stats_json_cut;
          Alcotest.test_case "wide plan capped" `Quick test_wide_plan_capped;
        ] );
      ( "groupby",
        [
          Alcotest.test_case "workload GroupBys group runs" `Quick
            test_workload_groupbys_group_runs;
        ] );
      ( "plan reuse",
        [
          Alcotest.test_case "repeated runs agree" `Quick test_determinism;
          Alcotest.test_case "many contexts" `Quick test_contexts;
          Alcotest.test_case "many domains" `Quick test_domains;
        ] );
    ]
