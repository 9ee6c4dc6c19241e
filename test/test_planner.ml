(* The cost-based physical planner (Section 6): plan-shape snapshots for
   the queries the paper optimizes — equi-joins become hash joins,
   positional predicates become streamed prefixes, count over a name
   chain becomes an index range probe — plus the hash build-side choice
   and the typed order-by comparison the planner's plans execute. *)

open Xqc
open Algebra

let physical_main q =
  match Xqc.physical_plan (Xqc.prepare q) with
  | Some pq -> pq.Physical.pmain
  | None -> Alcotest.fail "no physical plan for an algebraic strategy"

let count_ops pred (p : Physical.t) =
  Physical.fold (fun n t -> if pred t.Physical.pop then n + 1 else n) 0 p

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -------- join algorithm snapshots -------- *)

let test_xmark_joins_are_hash () =
  List.iter
    (fun name ->
      let q = List.assoc name Xqc_workload.Xmark_queries.all in
      let p = physical_main q in
      let hash =
        count_ops (function Physical.PHashJoin _ -> true | _ -> false) p
      in
      let nl =
        count_ops (function Physical.PNestedLoop _ -> true | _ -> false) p
      in
      check_bool (name ^ " plans a hash join") true (hash >= 1);
      check_int (name ^ " plans no nested loop") 0 nl)
    [ "Q8"; "Q9" ]

let test_inequality_join_is_sort () =
  let p =
    physical_main
      "for $x in (1,1,3) let $a := avg(for $y in (1,2) where $x <= $y return \
       $y * 10) return ($x, $a)"
  in
  check_bool "figure 4 plans a sort join" true
    (count_ops
       (function
         | Physical.PSortJoin { op = Promotion.Le; _ } -> true | _ -> false)
       p
    >= 1)

let test_forced_algorithm_overrides_cost () =
  let q =
    List.assoc "Q8" Xqc_workload.Xmark_queries.all
  in
  match Xqc.physical_plan (Xqc.prepare ~force_join:Physical.Nested_loop q) with
  | Some pq ->
      check_int "forcing NL leaves no hash join" 0
        (count_ops
           (function Physical.PHashJoin _ -> true | _ -> false)
           pq.Physical.pmain);
      check_bool "forcing NL plans a nested loop" true
        (count_ops
           (function Physical.PNestedLoop _ -> true | _ -> false)
           pq.Physical.pmain
        >= 1)
  | None -> Alcotest.fail "no physical plan"

(* -------- streaming choices -------- *)

let streamed_subsequences =
  count_ops (function
    | Physical.PCallStream (Physical.SSubseq, "fn:subsequence", _) -> true
    | _ -> false)

(* A literal positional predicate compiles to fn:subsequence(E, k, 1),
   streamed over an ordered path; no nested FLWOR is left for the
   rewriter to unnest, so Clio N4's $j/author[1] streams too. *)
let test_positional_literal_streams_subsequence () =
  let p = physical_main "($auction//item)[1]" in
  check_int "[1] plans a streamed fn:subsequence" 1 (streamed_subsequences p);
  let n4 = physical_main (Xqc_workload.Clio.n4) in
  check_bool "N4 streams $j/author[1]" true (streamed_subsequences n4 >= 1)

let test_count_becomes_index_probe () =
  let p = physical_main "count($auction//item)" in
  check_bool "count over a name chain plans the index probe" true
    (count_ops
       (function
         | Physical.PCallStream (Physical.SCount, "fn:count", _) -> true
         | _ -> false)
       p
    >= 1)

let test_exists_streams () =
  let p = physical_main "exists($auction//item)" in
  check_bool "exists streams with early exit" true
    (count_ops
       (function
         | Physical.PCallStream (Physical.SExists false, _, _) -> true
         | _ -> false)
       p
    >= 1)

(* -------- hash build side: smaller estimated input builds -------- *)

(* a literal table of [n] rows with a single field [f] *)
let tbl f n =
  let scalars =
    match List.init n (fun k -> Scalar (Atomic.Integer (k + 1))) with
    | [ s ] -> s
    | ss -> Seq ss
  in
  MapFromItem (TupleConstruct [ (f, Input) ], scalars)

let eq_join left right =
  Join
    ( Split_pred
        { op = Promotion.Eq;
          left_key = FieldAccess "a";
          right_key = FieldAccess "b" },
      left, right )

let build_side_of (p : Physical.t) =
  let found =
    Physical.fold
      (fun acc t ->
        match t.Physical.pop with
        | Physical.PHashJoin { build; _ } -> Some build
        | _ -> acc)
      None p
  in
  match found with
  | Some b -> b
  | None -> Alcotest.fail "expected a hash join in the plan"

let test_build_side_follows_cardinality () =
  (* 2 rows vs 5 rows: the smaller left side is the build side *)
  let small_left = Planner.plan (eq_join (tbl "a" 2) (tbl "b" 5)) in
  (match build_side_of small_left with
  | Physical.Build_left -> ()
  | Physical.Build_right -> Alcotest.fail "smaller left side must build");
  (* flipping the cardinalities flips the orientation *)
  let small_right = Planner.plan (eq_join (tbl "a" 5) (tbl "b" 2)) in
  (match build_side_of small_right with
  | Physical.Build_right -> ()
  | Physical.Build_left -> Alcotest.fail "smaller right side must build");
  (* a tie keeps the classic probe-left/build-right orientation *)
  match build_side_of (Planner.plan (eq_join (tbl "a" 3) (tbl "b" 3))) with
  | Physical.Build_right -> ()
  | Physical.Build_left -> Alcotest.fail "ties keep build-right"

let test_build_sides_agree () =
  (* both orientations produce the same pairs in the same order *)
  let q =
    "for $p in $d//person, $o in $d//order where $o/@buyer = $p/@id return \
     <hit b=\"{$o/@buyer}\">{$p/name/text()}</hit>"
  in
  let doc =
    Xqc.parse_document
      {|<db><people><person id="p1"><name>a</name></person><person id="p2"><name>b</name></person></people><orders><order buyer="p2"/><order buyer="p1"/><order buyer="p2"/><order buyer="p9"/><order buyer="p1"/></orders></db>|}
  in
  let go q' =
    Xqc.serialize
      (Xqc.eval_string ~variables:[ ("d", [ Xqc.Item.Node doc ]) ] q')
  in
  (* swapping the for-clause order swaps which side is smaller, so the
     two runs exercise both build orientations on the same data *)
  let swapped =
    "for $o in $d//order, $p in $d//person where $o/@buyer = $p/@id return \
     <hit b=\"{$o/@buyer}\">{$p/name/text()}</hit>"
  in
  Alcotest.(check bool)
    "both orientations find all matches" true
    (String.length (go q) > 0 && String.length (go swapped) > 0);
  Alcotest.(check string)
    "orientation does not change the match set (sorted)"
    (String.concat "|" (List.sort compare (String.split_on_char '<' (go q))))
    (String.concat "|" (List.sort compare (String.split_on_char '<' (go swapped))))

(* -------- typed order-by comparison (all strategies) -------- *)

let sort_all q =
  List.map
    (fun s ->
      match Xqc.eval_string ~strategy:s q with
      | items -> "OK:" ^ Xqc.serialize items
      | exception Xqc.Error m -> "ERROR:" ^ m)
    Xqc.all_strategies

let test_mixed_numeric_sort_keys () =
  (* integers and doubles compare numerically, not lexically or by
     constructor tag *)
  let results = sort_all "for $x in (3, 1.5, 2, 10) order by $x return $x" in
  List.iter
    (fun r -> Alcotest.(check string) "numeric order" "OK:1.5 2 3 10" r)
    results

let test_incomparable_sort_keys_error () =
  let results = sort_all {|for $x in (1, "a") order by $x return $x|} in
  List.iter
    (fun r ->
      check_bool "mixed int/string keys raise a dynamic error" true
        (String.length r >= 6 && String.sub r 0 6 = "ERROR:"))
    results

let test_string_and_boolean_sorts () =
  List.iter
    (fun r -> Alcotest.(check string) "string order" {|OK:a b c|} r)
    (sort_all {|for $x in ("b", "c", "a") order by $x return $x|});
  List.iter
    (fun r -> Alcotest.(check string) "boolean order" "OK:false true" r)
    (sort_all "for $x in (true(), false()) order by $x return $x")

(* -------- planning cost -------- *)

(* The words the planner allocates over the logical plan of [<a/>]
   followed by [n] child steps: deterministic, unlike its time. *)
let plan_words n =
  let q = "<a/>" ^ String.concat "" (List.init n (fun _ -> "/a")) in
  let logical = Option.get (Xqc.prepare q).plan in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Planner.plan logical));
  Gc.minor_words () -. w0

(* Planning a step chain is linear in its length: doubling it from 5,000
   to 10,000 steps at most doubles what the planner allocates (a
   quadratic walk, appending each step to the chain so far, quadruples
   it). *)
let test_chain_planning_linear () =
  let w5 = plan_words 5_000 and w10 = plan_words 10_000 in
  if w10 > 2.1 *. w5 then
    Alcotest.failf "planning allocated %.0f words at 5,000 steps, %.0f at 10,000" w5 w10

let () =
  Alcotest.run "planner"
    [
      ( "join choice",
        [
          Alcotest.test_case "xmark equi-joins -> hash" `Quick
            test_xmark_joins_are_hash;
          Alcotest.test_case "inequality -> sort" `Quick
            test_inequality_join_is_sort;
          Alcotest.test_case "force overrides cost" `Quick
            test_forced_algorithm_overrides_cost;
        ] );
      ( "streaming choice",
        [
          Alcotest.test_case "[k] -> streamed subsequence" `Quick
            test_positional_literal_streams_subsequence;
          Alcotest.test_case "count -> index probe" `Quick
            test_count_becomes_index_probe;
          Alcotest.test_case "exists -> early exit" `Quick test_exists_streams;
        ] );
      ( "build side",
        [
          Alcotest.test_case "smaller side builds" `Quick
            test_build_side_follows_cardinality;
          Alcotest.test_case "orientations agree" `Quick test_build_sides_agree;
        ] );
      ( "order by",
        [
          Alcotest.test_case "mixed numeric keys" `Quick
            test_mixed_numeric_sort_keys;
          Alcotest.test_case "incomparable keys" `Quick
            test_incomparable_sort_keys_error;
          Alcotest.test_case "string/boolean keys" `Quick
            test_string_and_boolean_sorts;
        ] );
      ( "planning cost",
        [ Alcotest.test_case "step chains plan linearly" `Quick test_chain_planning_linear ] );
    ]
