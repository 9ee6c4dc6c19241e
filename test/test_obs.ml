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

let phase_names phases = List.map (fun p -> p.Obs.ph_name) phases

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Preparing records each pipeline phase once; a timed run adds its own
   two phases to its profile, an untimed run none. *)
let test_phase_timing () =
  let p = prepare "for $x in (1,2,3) return $x + 1" in
  Alcotest.(check (list string))
    "prepare phases"
    [ "parse"; "normalize"; "compile"; "rewrite"; "plan" ]
    (phase_names p.pipeline.Obs.co_phases);
  let timed = Obs.profile ~timed:true and untimed = Obs.profile ~timed:false in
  ignore (run ~profile:timed p (context ()));
  ignore (run ~profile:untimed p (context ()));
  Alcotest.(check (list string))
    "a timed run's phases" [ "compile closures"; "eval" ] (phase_names timed.Obs.pf_phases);
  Alcotest.(check (list string)) "an untimed run's phases" [] (phase_names untimed.Obs.pf_phases);
  check_bool "eval time recorded" true
    (List.for_all (fun ph -> ph.Obs.ph_secs >= 0.0) timed.Obs.pf_phases);
  let report = Obs.phases_to_string p.pipeline timed in
  check_bool "the report lists both" true (contains report "plan" && contains report "eval")

(* ------------------------------------------------------------------ *)
(* Per-operator statistics                                             *)
(* ------------------------------------------------------------------ *)

(* Prepare [q] and run it once, counting into a fresh profile. *)
let run_profiled ?(strategy = Optimized) ?force_join ?(timed = false) ?(ctx = context ()) q =
  let p = prepare ~strategy ?force_join q and profile = Obs.profile ~timed in
  let result = run ~profile p ctx in
  (result, p, profile)

(* The rows of every plan of [p] (functions, globals, main); with
   [~leaves:false] (the default) only the profiled ones, leaf reads left
   out. *)
let plan_rows ?(only_main = false) ?(leaves = false) p profile =
  match physical_plan p with
  | None -> Alcotest.fail "no physical plan"
  | Some q ->
      List.concat_map
        (fun (name, plan) ->
          if only_main && name <> "main" then []
          else List.filter (fun r -> leaves || r.Pretty.stats <> None) (Pretty.rows ~profile plan))
        (Pretty.query_plans q)

let st (r : Pretty.row) =
  match r.Pretty.stats with Some st -> st | None -> Alcotest.fail "unprofiled row"

let find_rows pred rows = List.filter pred rows

let hash_join_query = "for $x in (1,2,3), $y in (2,3,4) where $x = $y return $x"

(* A run counts without reading the clock unless its profile is timed:
   every row has calls and output rows but no time, and the report
   prints no [time=]. *)
let test_untimed_by_default () =
  let _, p, profile = run_profiled hash_join_query in
  let rows = plan_rows p profile in
  check_bool "rows counted" true (List.exists (fun r -> (st r).Obs.op_calls > 0) rows);
  List.iter (fun r -> check_bool (r.Pretty.label ^ ": no time") true ((st r).Obs.op_secs = 0.0)) rows;
  let report = explain_analyze p profile in
  check_bool "calls printed" true (contains report "calls=");
  check_bool "output rows printed" true (contains report "out=");
  check_bool "no time printed" false (contains report "time=")

(* Leaf reads (constants, variables, field reads, IN) are neither
   counted nor timed: their rows carry no statistics and their report
   lines no counters, while every other row is profiled. *)
let test_leaf_reads_unprofiled () =
  let _, p, profile = run_profiled ~timed:true "for $x in (1,2,3) return $x + 1" in
  let is_leaf r =
    List.exists (fun prefix -> String.starts_with ~prefix r.Pretty.label) [ "Scalar["; "Var["; "IN" ]
  in
  let rows = plan_rows ~leaves:true p profile in
  check_bool "some leaf reads" true (List.exists is_leaf rows);
  List.iter
    (fun r -> check_bool (r.Pretty.label ^ ": profiled iff not a leaf") (not (is_leaf r)) (r.Pretty.stats <> None))
    rows;
  List.iter
    (fun line ->
      if contains line "Scalar[" || contains line "IN#" then
        check_bool (line ^ ": no counters") false (contains line "calls="))
    (String.split_on_char '\n' (explain_analyze p profile))

let test_operator_cardinalities () =
  let _, p, profile = run_profiled "for $x in (1,2,3) return $x + 1" in
  let rows = plan_rows ~only_main:true p profile in
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

let test_join_statistics () =
  let result, p, profile = run_profiled hash_join_query in
  check_string "result" "2 3" (serialize result);
  (match find_rows (fun r -> r.Pretty.join) (plan_rows ~only_main:true p profile) with
  | [ j ] ->
      check_int "one build" 1 (st j).Obs.op_builds;
      check_int "inner side has 3 tuples" 3 (st j).Obs.op_build_tuples;
      check_int "3 probes" 3 (st j).Obs.op_probes;
      check_int "2 matches" 2 (st j).Obs.op_matches
  | l -> Alcotest.failf "expected 1 join node, got %d" (List.length l));
  let totals = Obs.join_totals profile in
  check_int "totals aggregate probes" 3 totals.Obs.op_probes

(* The nested loop materializes its inner side once per call, as the
   hash join builds its table once: the same four counters for both. *)
let test_join_counters_per_algorithm () =
  List.iter
    (fun (alg, prefix) ->
      let result, p, profile = run_profiled ~force_join:alg hash_join_query in
      check_string "result" "2 3" (serialize result);
      match find_rows (fun r -> r.Pretty.join) (plan_rows p profile) with
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
  let result, _, profile =
    run_profiled "for $x in (1,2,3), $y in (2,3,4) where $x < $y return $x + $y"
  in
  check_string "result" "3 4 5 5 6 7" (serialize result);
  let totals = Obs.join_totals profile in
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
  let _, p, profile = run_profiled ~ctx Xqc_workload.Clio.n4 in
  let joins =
    find_rows
      (fun r ->
        String.starts_with ~prefix:"PHashJoin" r.Pretty.label && (st r).Obs.op_tuples > 0)
      (plan_rows p profile)
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
  let _, p, profile = run_profiled ~ctx Xqc_workload.Xmark_queries.q8 in
  let rows = plan_rows p profile in
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
let rewrite_trace ?strategy q = (prepare ?strategy q).pipeline.Obs.co_rewrite

let test_rewrite_trace_unnesting () =
  let t = rewrite_trace hash_join_query in
  List.iter
    (fun rule -> check_int ("fired once: " ^ rule) 1 (Obs.rule_count t rule))
    [ "insert product"; "insert join"; "remove map"; "choose hash join" ];
  check_bool "reaches fixpoint in >1 pass" true (t.Obs.rw_passes > 1)

let test_rewrite_trace_strategies () =
  (* no-optim performs no rewriting at all; nl-join never picks physical
     algorithms *)
  check_int "no-optim fires nothing" 0
    (Obs.total_firings (rewrite_trace ~strategy:Algebra_unoptimized hash_join_query));
  let nl = rewrite_trace ~strategy:Optimized_nl hash_join_query in
  check_int "nl-join inserts the join" 1 (Obs.rule_count nl "insert join");
  check_int "nl-join picks no algorithm" 0 (Obs.rule_count nl "choose hash join")

let test_groupby_rule_trace () =
  let q =
    "for $x in (1,1,3) let $a := avg(for $y in (1,2) where $x <= $y return $y * 10) \
     return ($x, $a)"
  in
  let result, p, _ = run_profiled q in
  check_string "figure 4 result" "1 15 1 15 3" (serialize result);
  let t = p.pipeline.Obs.co_rewrite in
  check_bool "insert group-by fired" true (Obs.rule_count t "insert group-by" > 0);
  check_bool "insert outer-join fired" true (Obs.rule_count t "insert outer-join" > 0);
  check_bool "choose sort join fired" true (Obs.rule_count t "choose sort join" > 0)

(* ------------------------------------------------------------------ *)
(* Statistics collection is observation only                           *)
(* ------------------------------------------------------------------ *)

(* Timed and untimed runs give the same output under every strategy,
   streamed and materialized. *)
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
  let saved = !Eval.force_materialize in
  Fun.protect ~finally:(fun () -> Eval.force_materialize := saved) @@ fun () ->
  List.iter
    (fun materialize ->
      Eval.force_materialize := materialize;
      List.iter
        (fun q ->
          List.iter
            (fun strategy ->
              let output timed =
                let result, _, _ = run_profiled ~strategy ~timed q in
                serialize result
              in
              check_string
                (Printf.sprintf "%s / %s / materialize %b" (strategy_name strategy) q materialize)
                (output false) (output true))
            all_strategies)
        queries)
    [ false; true ]

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
  let _, p, profile = run_profiled ~timed:true hash_join_query in
  let report = explain_analyze p profile in
  List.iter
    (fun needle -> check_bool ("report contains " ^ needle) true (contains report needle))
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
      "time=";
      "out=";
      "=== Join totals ===";
    ]

let test_stats_json () =
  let _, p, profile = run_profiled ~timed:true hash_join_query in
  let s = stats_json p profile in
  check_bool "is an object" true (String.length s > 0 && s.[0] = '{');
  List.iter
    (fun needle -> check_bool ("json contains " ^ needle) true (contains s needle))
    [ {|"phases":[|}; {|"rewrite":{|}; {|"insert join":1|}; {|"timed":true|}; {|"joins":{|};
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
          Alcotest.test_case "untimed by default" `Quick test_untimed_by_default;
          Alcotest.test_case "leaf reads unprofiled" `Quick test_leaf_reads_unprofiled;
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
          Alcotest.test_case "stats json" `Quick test_stats_json;
        ] );
    ]
