(* Observability: the Obs primitives, pipeline phase timing, per-operator
   runtime statistics (EXPLAIN ANALYZE), join accounting, the
   rewrite-rule firing trace, and — crucially — that collecting
   statistics never changes query results. *)

open Xqc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)
(* ------------------------------------------------------------------ *)

let test_json () =
  check_string "escaping"
    {|{"a":1,"b":"x\"y\n","c":[true,null],"d":1.5}|}
    (Obs.json_to_string
       (Obs.Obj
          [
            ("a", Obs.Int 1);
            ("b", Obs.Str "x\"y\n");
            ("c", Obs.Arr [ Obs.Bool true; Obs.Null ]);
            ("d", Obs.Float 1.5);
          ]));
  check_string "non-finite floats are null" {|[null,null,null]|}
    (Obs.json_to_string
       (Obs.Arr [ Obs.Float Float.nan; Obs.Float Float.infinity; Obs.Float Float.neg_infinity ]));
  check_string "control chars escape" "\"\\u0001\""
    (Obs.json_to_string (Obs.Str "\001"));
  check_string "1.5" "1.5" (Obs.json_to_string (Obs.Float 1.5));
  check_string "0.1" "0.1" (Obs.json_to_string (Obs.Float 0.1));
  let at = 1792253456.125 in
  check_bool "a timestamp round-trips exactly" true
    (Float.equal at (float_of_string (Obs.json_to_string (Obs.Float at))))

(* String encoding, literally: the escaped bytes at the start, middle
   and end of a run, every control byte's form, and multi-byte UTF-8
   passed through; each encoding reads back through the wire parser. *)
let test_json_strings () =
  let control =
    List.init 0x20 (fun i ->
        let c = Char.chr i in
        let want =
          match c with
          | '\n' -> "\\n"
          | '\r' -> "\\r"
          | '\t' -> "\\t"
          | _ -> Printf.sprintf "\\u%04x" i
        in
        (String.make 1 c, "\"" ^ want ^ "\""))
  in
  List.iter
    (fun (s, want) ->
      let got = Obs.json_to_string (Obs.Str s) in
      check_string (Printf.sprintf "encode %S" s) want got;
      match Xqc_server.Json_parse.parse got with
      | Obs.Str back -> check_string (Printf.sprintf "round trip %S" s) s back
      | _ -> Alcotest.failf "%S did not parse back as a string" got)
    ([
       ("", {|""|});
       ("plain run", {|"plain run"|});
       ("\"", {|"\""|});
       ("\\", {|"\\"|});
       ("a\"b\\c", {|"a\"b\\c"|});
       ("\"\"\\\\", {|"\"\"\\\\"|});
       ("end\n", {|"end\n"|});
       ("\x00mid\x1fdle\x7f", "\"\\u0000mid\\u001fdle\x7f\"");
       ("caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80", "\"caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80\"");
       ("/<>&'", {|"/<>&'"|});
     ]
    @ control);
  check_string "object keys escape too" {|{"k\"1":0}|}
    (Obs.json_to_string (Obs.Obj [ ("k\"1", Obs.Int 0) ]))

let test_counter () =
  let c = Obs.counter "c" in
  Obs.incr_counter c;
  Obs.add_counter c 4;
  check_int "counter accumulates" 5 (Obs.counter_value c)

let test_rewrite_trace_primitives () =
  let t = Obs.rewrite_trace () in
  Obs.fire t "insert join";
  Obs.fire t "remove map";
  Obs.fire t "insert join";
  check_int "per-rule count" 2 (Obs.rule_count t "insert join");
  check_int "unknown rule is zero" 0 (Obs.rule_count t "no such rule");
  check_int "total firings" 3 (Obs.total_firings t)

(* ------------------------------------------------------------------ *)
(* Pipeline phases                                                     *)
(* ------------------------------------------------------------------ *)

let phase_names c = List.map (fun p -> p.Obs.ph_name) c.Obs.co_phases

let test_phase_timing () =
  let p = prepare ~stats:true "for $x in (1,2,3) return $x + 1" in
  let c = match stats p with Some c -> c | None -> Alcotest.fail "no collector" in
  List.iter
    (fun name ->
      check_bool (name ^ " phase recorded") true (List.mem name (phase_names c)))
    [ "parse"; "normalize"; "compile"; "rewrite" ];
  check_bool "no eval before running" false (List.mem "eval" (phase_names c));
  let ctx = context () in
  ignore (run p ctx);
  ignore (run p ctx);
  let find name = List.find (fun ph -> ph.Obs.ph_name = name) c.Obs.co_phases in
  check_int "eval counted per run" 2 (find "eval").Obs.ph_count;
  check_int "parse ran once" 1 (find "parse").Obs.ph_count;
  check_bool "eval time accumulates" true ((find "eval").Obs.ph_secs >= 0.0)

let test_stats_off_by_default () =
  let p = prepare "1 + 1" in
  check_bool "no collector unless requested" true (stats p = None)

(* ------------------------------------------------------------------ *)
(* Per-operator statistics                                             *)
(* ------------------------------------------------------------------ *)

let run_with_stats ?(strategy = Optimized) q =
  let p = prepare ~strategy ~stats:true q in
  let result = run p (context ()) in
  let c = match stats p with Some c -> c | None -> Alcotest.fail "no collector" in
  (result, c)

(* The profiled rows of every plan of [p] (functions, globals, main). *)
let plan_rows ?(only_main = false) p =
  let c = match stats p with Some c -> c | None -> Alcotest.fail "no collector" in
  match physical_plan p with
  | None -> Alcotest.fail "no physical plan"
  | Some q ->
      List.concat_map
        (fun (name, plan) ->
          if only_main && name <> "main" then [] else Pretty.rows ~profile:c plan)
        (Pretty.query_plans q)

let st (r : Pretty.row) =
  match r.Pretty.stats with Some st -> st | None -> Alcotest.fail "unprofiled row"

let find_rows pred rows = List.filter pred rows

let test_operator_cardinalities () =
  let p = prepare ~stats:true "for $x in (1,2,3) return $x + 1" in
  ignore (run p (context ()));
  let rows = plan_rows ~only_main:true p in
  let root = List.hd rows in
  check_string "root operator" "MapToItem" root.Pretty.label;
  check_int "root called once" 1 (st root).Obs.op_calls;
  check_int "root emits 3 items" 3 (st root).Obs.op_items;
  (* the MapFromItem under the map-to-item produces the 3-tuple table *)
  (match find_rows (fun r -> r.Pretty.label = "MapFromItem") rows with
  | [ mfi ] -> check_int "table has 3 tuples" 3 (st mfi).Obs.op_tuples
  | l -> Alcotest.failf "expected 1 MapFromItem, got %d" (List.length l));
  (* the body runs once per tuple *)
  match find_rows (fun r -> r.Pretty.label = "Call[op:add]") rows with
  | [ add ] ->
      check_int "body called per tuple" 3 (st add).Obs.op_calls;
      check_int "body emits one item per call" 3 (st add).Obs.op_items
  | l -> Alcotest.failf "expected 1 op:add, got %d" (List.length l)

let hash_join_query = "for $x in (1,2,3), $y in (2,3,4) where $x = $y return $x"

let test_join_statistics () =
  let p = prepare ~stats:true hash_join_query in
  let result = run p (context ()) in
  check_string "result" "2 3" (serialize result);
  (match find_rows (fun r -> r.Pretty.join) (plan_rows ~only_main:true p) with
  | [ j ] ->
      check_int "one build" 1 (st j).Obs.op_builds;
      check_int "inner side has 3 tuples" 3 (st j).Obs.op_build_tuples;
      check_int "3 probes" 3 (st j).Obs.op_probes;
      check_int "2 matches" 2 (st j).Obs.op_matches
  | l -> Alcotest.failf "expected 1 join node, got %d" (List.length l));
  let totals = Obs.join_totals (Option.get (stats p)) in
  check_int "totals aggregate probes" 3 totals.Obs.op_probes

(* The nested loop materializes its inner side once per call, as the
   hash join builds its table once: the same four counters for both. *)
let test_join_counters_per_algorithm () =
  List.iter
    (fun (alg, prefix) ->
      let p = prepare ~stats:true ~force_join:alg hash_join_query in
      check_string "result" "2 3" (serialize (run p (context ())));
      match find_rows (fun r -> r.Pretty.join) (plan_rows p) with
      | [ j ] ->
          check_bool ("planned " ^ prefix) true
            (String.starts_with ~prefix j.Pretty.label);
          check_int (prefix ^ ": one build") 1 (st j).Obs.op_builds;
          check_int (prefix ^ ": 3 build tuples") 3 (st j).Obs.op_build_tuples;
          check_int (prefix ^ ": 3 probes") 3 (st j).Obs.op_probes;
          check_int (prefix ^ ": 2 matches") 2 (st j).Obs.op_matches
      | l -> Alcotest.failf "expected 1 join node, got %d" (List.length l))
    [ (Physical.Nested_loop, "PNestedLoop"); (Physical.Hash, "PHashJoin") ]

let test_sort_join_statistics () =
  let result, c =
    run_with_stats "for $x in (1,2,3), $y in (2,3,4) where $x < $y return $x + $y"
  in
  check_string "result" "3 4 5 5 6 7" (serialize result);
  let totals = Obs.join_totals c in
  check_int "one sorted build" 1 totals.Obs.op_builds;
  check_bool "numeric sort keys materialized" true (totals.Obs.op_sort_numeric > 0);
  check_int "6 matches" 6 totals.Obs.op_matches

(* Every hash join of Clio N4 on a 50 KB document reports its probe
   side: a join that emits tuples has probed, and its matches are
   non-zero and bounded by its output rows (an outer join may emit
   unmatched rows too). *)
let test_hash_join_counters_n4 () =
  let doc = Xqc_workload.Clio.generate ~target_bytes:50_000 () in
  let ctx = context () in
  bind_variable ctx "doc" [ Item.Node doc ];
  let p = prepare ~stats:true Xqc_workload.Clio.n4 in
  ignore (run p ctx);
  let joins =
    find_rows
      (fun r ->
        String.starts_with ~prefix:"PHashJoin" r.Pretty.label && (st r).Obs.op_tuples > 0)
      (plan_rows p)
  in
  check_bool "N4 has hash joins that output tuples" true (joins <> []);
  List.iter
    (fun (r : Pretty.row) ->
      let rows = (st r).Obs.op_tuples in
      if not r.Pretty.join then Alcotest.failf "%s has no join counters" r.Pretty.label;
      let what = Printf.sprintf "%s (%d rows)" r.Pretty.label rows in
      check_bool (what ^ ": probes > 0") true ((st r).Obs.op_probes > 0);
      check_bool (what ^ ": matches > 0") true ((st r).Obs.op_matches > 0);
      check_bool (what ^ ": matches <= rows") true ((st r).Obs.op_matches <= rows))
    joins

(* Item cursors over step chains (Q8's [$t/buyer/@person] and the like)
   count one call per chain invocation on the Steps node and each of its
   steps: no row reports output without having been called. *)
let test_cursor_calls_q8 () =
  let doc = Xqc_workload.Xmark.generate ~target_bytes:50_000 () in
  let ctx = context () in
  bind_variable ctx "auction" [ Item.Node doc ];
  let p = prepare ~stats:true Xqc_workload.Xmark_queries.q8 in
  ignore (run p ctx);
  let rows = plan_rows p in
  check_bool "some steps ran" true
    (List.exists
       (fun r -> String.starts_with ~prefix:"Steps" r.Pretty.label && (st r).Obs.op_items > 0)
       rows);
  List.iter
    (fun r ->
      if (st r).Obs.op_items > 0 || (st r).Obs.op_tuples > 0 then
        check_bool (r.Pretty.label ^ ": calls > 0") true ((st r).Obs.op_calls > 0))
    rows

(* ------------------------------------------------------------------ *)
(* Rewrite-rule trace                                                  *)
(* ------------------------------------------------------------------ *)

(* The MapConcat-to-Join unnesting chain of Figure 5 on a two-generator
   FLWOR: product insertion, join insertion, map removal, then the
   physical pass picking the hash algorithm for [=]. *)
let test_rewrite_trace_unnesting () =
  let _, c = run_with_stats hash_join_query in
  let t = c.Obs.co_rewrite in
  List.iter
    (fun rule -> check_int ("fired once: " ^ rule) 1 (Obs.rule_count t rule))
    [ "insert product"; "insert join"; "remove map"; "choose hash join" ];
  check_bool "reaches fixpoint in >1 pass" true (t.Obs.rw_passes > 1)

let test_rewrite_trace_strategies () =
  (* no-optim performs no rewriting at all; nl-join never picks physical
     algorithms *)
  let _, c_none = run_with_stats ~strategy:Algebra_unoptimized hash_join_query in
  check_int "no-optim fires nothing" 0 (Obs.total_firings c_none.Obs.co_rewrite);
  let _, c_nl = run_with_stats ~strategy:Optimized_nl hash_join_query in
  check_int "nl-join inserts the join" 1 (Obs.rule_count c_nl.Obs.co_rewrite "insert join");
  check_int "nl-join picks no algorithm" 0
    (Obs.rule_count c_nl.Obs.co_rewrite "choose hash join")

let test_groupby_rule_trace () =
  let q =
    "for $x in (1,1,3) let $a := avg(for $y in (1,2) where $x <= $y return $y * 10) \
     return ($x, $a)"
  in
  let result, c = run_with_stats q in
  check_string "figure 4 result" "1 15 1 15 3" (serialize result);
  let t = c.Obs.co_rewrite in
  check_bool "insert group-by fired" true (Obs.rule_count t "insert group-by" > 0);
  check_bool "insert outer-join fired" true (Obs.rule_count t "insert outer-join" > 0);
  check_bool "choose sort join fired" true (Obs.rule_count t "choose sort join" > 0)

(* ------------------------------------------------------------------ *)
(* Statistics collection is observation only                           *)
(* ------------------------------------------------------------------ *)

let test_stats_do_not_change_results () =
  let queries =
    [
      "for $x in (1,2,3) return $x + 1";
      hash_join_query;
      "for $x in (1,2,3), $y in (2,3,4) where $x < $y return <r>{$x + $y}</r>";
      "for $x in (1,1,3) let $a := avg(for $y in (1,2) where $x <= $y return $y * 10) \
       return ($x, $a)";
      "let $s := (for $i in 1 to 10 return <a><b>{$i}</b></a>) \
       for $x in $s where $x/b mod 2 = 0 return $x/b/text()";
    ]
  in
  List.iter
    (fun q ->
      List.iter
        (fun strategy ->
          let plain = serialize (run (prepare ~strategy q) (context ())) in
          let with_stats = serialize (run (prepare ~strategy ~stats:true q) (context ())) in
          check_string
            (Printf.sprintf "%s / %s" (strategy_name strategy) q)
            plain with_stats)
        all_strategies)
    queries

(* Generated field names (and therefore plans and reports) must not
   depend on how many queries were prepared before. *)
let test_deterministic_field_names () =
  let report () = explain ~strategy:Optimized hash_join_query in
  let first = report () in
  ignore (prepare "for $a in (1,2) for $b in (3,4) where $a = $b return $a");
  check_string "explain is reproducible" first (report ())

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let test_explain_analyze_report () =
  let p = prepare ~stats:true hash_join_query in
  ignore (run p (context ()));
  let report = explain_analyze p in
  let contains needle =
    let nl = String.length needle and hl = String.length report in
    let rec go i = i + nl <= hl && (String.sub report i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> check_bool ("report contains " ^ needle) true (contains needle))
    [
      "=== Pipeline phases ===";
      "rewrite";
      "=== Rewrite trace ===";
      "insert join";
      "=== EXPLAIN ANALYZE (main) ===";
      "PHashJoin<eq>";
      "est_rows=";
      "builds=1";
      "calls=";
      "=== Join totals ===";
    ]

let test_explain_analyze_requires_stats () =
  let p = prepare "1 + 1" in
  match explain_analyze p with
  | exception Error _ -> ()
  | _ -> Alcotest.fail "expected Error for a stats-less prepared query"

let test_stats_json () =
  let p = prepare ~stats:true hash_join_query in
  check_bool "json absent without stats" true (stats_json (prepare "1") = None);
  ignore (run p (context ()));
  match stats_json p with
  | None -> Alcotest.fail "expected JSON"
  | Some s ->
      check_bool "is an object" true (String.length s > 0 && s.[0] = '{');
      let contains needle =
        let nl = String.length needle and hl = String.length s in
        let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun needle -> check_bool ("json contains " ^ needle) true (contains needle))
        [ {|"phases":[|}; {|"rewrite":{|}; {|"insert join":1|}; {|"joins":{|};
          {|"plans":[|}; {|"op":"MapToItem"|} ]

let () =
  Alcotest.run "obs"
    [
      ( "primitives",
        [
          Alcotest.test_case "json" `Quick test_json;
          Alcotest.test_case "json strings" `Quick test_json_strings;
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "rewrite trace" `Quick test_rewrite_trace_primitives;
        ] );
      ( "phases",
        [
          Alcotest.test_case "phase timing" `Quick test_phase_timing;
          Alcotest.test_case "off by default" `Quick test_stats_off_by_default;
        ] );
      ( "operators",
        [
          Alcotest.test_case "cardinalities" `Quick test_operator_cardinalities;
          Alcotest.test_case "hash join stats" `Quick test_join_statistics;
          Alcotest.test_case "sort join stats" `Quick test_sort_join_statistics;
          Alcotest.test_case "hash join counters (N4)" `Quick test_hash_join_counters_n4;
          Alcotest.test_case "nested loop = hash counters" `Quick
            test_join_counters_per_algorithm;
          Alcotest.test_case "cursor calls (Q8)" `Quick test_cursor_calls_q8;
        ] );
      ( "rewrite-trace",
        [
          Alcotest.test_case "unnesting chain" `Quick test_rewrite_trace_unnesting;
          Alcotest.test_case "per-strategy" `Quick test_rewrite_trace_strategies;
          Alcotest.test_case "group-by rules" `Quick test_groupby_rule_trace;
        ] );
      ( "non-interference",
        [
          Alcotest.test_case "results unchanged" `Quick test_stats_do_not_change_results;
          Alcotest.test_case "deterministic fields" `Quick test_deterministic_field_names;
        ] );
      ( "reports",
        [
          Alcotest.test_case "explain analyze" `Quick test_explain_analyze_report;
          Alcotest.test_case "requires stats" `Quick test_explain_analyze_requires_stats;
          Alcotest.test_case "stats json" `Quick test_stats_json;
        ] );
    ]
