(* Runtime plumbing: tuple layouts and slot resolution, the map-family
   operators, element construction rules, and error paths. *)

open Xqc
open Algebra

let ctx = Dynamic_ctx.create ()

(* logical plans built by hand go through the (statistics-free) default
   planner before compilation, like the real pipeline *)
let run (p : plan) : Eval.dval =
  let pp = Planner.plan p in
  let comp, _ = Eval.compile (Eval.top_env pp) pp in
  comp ctx Eval.INone

let run_items p = match run p with Eval.Xml s -> s | Eval.Tab _ -> Alcotest.fail "expected items"

let run_table p =
  match run p with
  | Eval.Tab t -> List.of_seq t
  | Eval.Xml _ -> Alcotest.fail "expected table"

let ser p = Serializer.sequence_to_string (run_items p)
let int_scalar i = Scalar (Atomic.Integer i)

let check = Alcotest.(check string)
let check_int = Alcotest.(check int)

let test_concat_spec () =
  let out, width, moves = Eval.concat_spec [ "a"; "b" ] [ "c" ] in
  Alcotest.(check (list string)) "layout" [ "a"; "b"; "c" ] out;
  check_int "width" 3 width;
  Alcotest.(check (list (pair int int))) "moves" [ (0, 2) ] (Array.to_list moves);
  (* overlapping fields are overwritten in place *)
  let out2, width2, moves2 = Eval.concat_spec [ "a"; "b" ] [ "b"; "c" ] in
  Alcotest.(check (list string)) "merged layout" [ "a"; "b"; "c" ] out2;
  check_int "merged width" 3 width2;
  Alcotest.(check (list (pair int int))) "merge moves" [ (0, 1); (1, 2) ] (Array.to_list moves2)

let test_slot_resolution_error () =
  let pp = Planner.plan (FieldAccess "nosuch") in
  match Eval.compile { (Eval.top_env pp) with Eval.layout = [ "a" ] } pp with
  | exception Eval.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected a compile error for an unknown field"

let test_tuple_construct_and_access () =
  let p =
    MapToItem
      ( Call ("op:add", [ FieldAccess "a"; FieldAccess "b" ]),
        TupleConstruct [ ("a", int_scalar 1); ("b", int_scalar 2) ] )
  in
  check "slot access adds" "3" (ser p)

let test_map_concat () =
  (* MapConcat{[y: x+1]}([x:1]) has both fields *)
  let p =
    MapToItem
      ( Call ("op:multiply", [ FieldAccess "x"; FieldAccess "y" ]),
        MapConcat
          ( TupleConstruct [ ("y", Call ("op:add", [ FieldAccess "x"; int_scalar 1 ])) ],
            TupleConstruct [ ("x", int_scalar 3) ] ) )
  in
  check "dependent sees input fields" "12" (ser p)

let test_map_from_item_and_index () =
  let src = Seq [ int_scalar 10; int_scalar 20; int_scalar 30 ] in
  let p = MapIndex ("i", MapFromItem (TupleConstruct [ ("v", Input) ], src)) in
  let table = run_table p in
  check_int "three tuples" 3 (List.length table);
  Alcotest.(check (list (pair string string)))
    "index prepended, 1-based"
    [ ("1", "10"); ("2", "20"); ("3", "30") ]
    (List.map
       (fun t ->
         ( Serializer.sequence_to_string t.(0),
           Serializer.sequence_to_string t.(1) ))
       table)

let test_omap () =
  (* non-empty input: flag false on each row *)
  let t1 = run_table (OMap ("n", TupleConstruct [ ("x", int_scalar 1) ])) in
  check_int "one row" 1 (List.length t1);
  check "flag false" "false" (Serializer.sequence_to_string (List.hd t1).(0));
  (* empty input: one null row *)
  let empty_table = Select (Scalar (Atomic.Boolean false), TupleConstruct [ ("x", int_scalar 1) ]) in
  let t2 = run_table (OMap ("n", empty_table)) in
  check_int "one null row" 1 (List.length t2);
  check "flag true" "true" (Serializer.sequence_to_string (List.hd t2).(0));
  check "missing field empty" "" (Serializer.sequence_to_string (List.hd t2).(1))

let test_omapconcat () =
  let dep_empty = Select (Scalar (Atomic.Boolean false), TupleConstruct [ ("y", int_scalar 9) ]) in
  let t = run_table (OMapConcat ("n", dep_empty, TupleConstruct [ ("x", int_scalar 7) ])) in
  check_int "unmatched row kept" 1 (List.length t);
  (* layout: n, x, y *)
  check "flag true" "true" (Serializer.sequence_to_string (List.hd t).(0));
  check "left preserved" "7" (Serializer.sequence_to_string (List.hd t).(1));
  check "right empty" "" (Serializer.sequence_to_string (List.hd t).(2))

let test_product_order () =
  let tbl name vals =
    MapFromItem
      (TupleConstruct [ (name, Input) ],
       Seq (List.map int_scalar vals))
  in
  let p =
    MapToItem
      ( Seq [ FieldAccess "a"; FieldAccess "b" ],
        Product (tbl "a" [ 1; 2 ], tbl "b" [ 10; 20 ]) )
  in
  check "left-major order" "1 10 1 20 2 10 2 20" (ser p)

let test_element_construction () =
  (* attributes collected, atoms space-joined into text, nodes copied *)
  let attr = Attribute ("k", Scalar (Atomic.String "v")) in
  let p = Element ("e", Seq [ attr; int_scalar 1; int_scalar 2 ]) in
  check "element" {|<e k="v">1 2</e>|} (ser p);
  (* constructed content gets fresh node ids in document order *)
  match run_items p with
  | [ Item.Node e ] ->
      let ids = List.map (fun n -> n.Node.nid) (Node.descendant_or_self e) in
      Alcotest.(check bool) "preorder ids" true
        (List.sort compare ids = ids)
  | _ -> Alcotest.fail "one element"

let test_text_and_comment () =
  check "text joins atoms" "a b" (ser (Text (Seq [ Scalar (Atomic.String "a"); Scalar (Atomic.String "b") ])));
  check "empty text vanishes" "" (ser (Text Empty));
  check "comment" "<!--c-->" (ser (Comment (Scalar (Atomic.String "c"))));
  check "pi" "<?t d?>" (ser (Pi ("t", Scalar (Atomic.String "d"))))

let test_cond_and_typeassert () =
  check "cond true" "1"
    (ser (Cond (Scalar (Atomic.Boolean true), int_scalar 1, int_scalar 2)));
  check "cond on empty is false" "2" (ser (Cond (Empty, int_scalar 1, int_scalar 2)));
  (match run_items (TypeAssert (Seqtype.star (Seqtype.It_atomic Atomic.T_integer), Seq [ int_scalar 1; int_scalar 2 ])) with
  | [ _; _ ] -> ()
  | _ -> Alcotest.fail "assert passes through");
  match
    run_items (TypeAssert (Seqtype.item (Seqtype.It_atomic Atomic.T_string), int_scalar 1))
  with
  | exception Seqtype.Type_assertion_failure _ -> ()
  | _ -> Alcotest.fail "assert failure expected"

let test_item_quantifier () =
  (* the retained item-level Quantified operator binds its variable in
     the parameter frame *)
  let src = Seq [ int_scalar 1; int_scalar 5; int_scalar 9 ] in
  let body = Call ("op:general-gt", [ Var "v"; int_scalar 4 ]) in
  check "some item > 4" "true"
    (ser (Quantified (Ast.Some_quant, "v", src, body)));
  check "every item > 4" "false"
    (ser (Quantified (Ast.Every_quant, "v", src, body)))

let test_map_some_every () =
  let table =
    MapFromItem (TupleConstruct [ ("v", Input) ], Seq [ int_scalar 1; int_scalar 5 ])
  in
  let gt3 = Call ("op:general-gt", [ FieldAccess "v"; int_scalar 3 ]) in
  check "some" "true" (ser (MapSome (gt3, table)));
  check "every" "false" (ser (MapEvery (gt3, table)))

let test_var_and_params () =
  Dynamic_ctx.bind_global ctx "g" [ Item.of_int 99 ];
  check "global lookup" "99" (ser (Var "g"));
  match run_items (Var "unbound~") with
  | exception Dynamic_ctx.Dynamic_error _ -> ()
  | _ -> Alcotest.fail "unbound variable must fail"

let test_input_outside_context () =
  match run_items Input with
  | exception Dynamic_ctx.Dynamic_error _ -> ()
  | _ -> Alcotest.fail "IN outside dependent context must fail"

let test_serialize_operator () =
  let path = Filename.temp_file "xqc_test" ".xml" in
  let p = Serialize (path, Element ("out", int_scalar 5)) in
  (match run_items p with [] -> () | _ -> Alcotest.fail "serialize yields empty");
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  check "file contents" "<out>5</out>" line

(* ------------------------------------------------------------------ *)
(* Plan-cache keying                                                   *)
(* ------------------------------------------------------------------ *)

let counter name =
  match List.assoc_opt name (Obs.global_counters ()) with
  | Some v -> v
  | None -> 0

let mk_db i =
  parse_document
    (Printf.sprintf "<db><people>%s</people></db>"
       (String.concat ""
          (List.init (i + 2) (fun p ->
               Printf.sprintf {|<person id="d%dp%d"><name>n%d</name></person>|}
                 i p p))))

(* Flipping any plan-shaping execution mode replans. *)
let test_plan_cache_modes () =
  let q = "for $x in (1,2,3) return $x + 1" in
  let misses () = counter "plan_cache_misses" in
  let base () = ignore (prepare_cached q) in
  let check_flip name flip restore =
    clear_plan_cache ();
    base ();
    let warm = misses () in
    base ();
    check_int (name ^ ": warm hit") warm (misses ());
    flip ();
    Fun.protect ~finally:restore (fun () ->
        base ();
        check_int (name ^ ": flip replans") (warm + 1) (misses ()))
  in
  check_flip "strategy"
    (fun () -> ignore (prepare_cached ~strategy:Optimized_nl q))
    (fun () -> ())

(* The strategy is a cache-key field: each strategy gets its own cached
   plan, a second round is served from the cache, and every cached plan
   gives the interpreter's answer. *)
let test_plan_cache_strategies () =
  let q = {|count(for $p in $d//person where $p/name = "n1" return $p)|} in
  let ctx = context () in
  bind_variable ctx "d" [ Item.Node (mk_db 4) ];
  let run strategy = serialize (Xqc.run (prepare_cached ~strategy q) ctx) in
  clear_plan_cache ();
  List.iter (fun s -> check (strategy_name s) "1" (run s)) all_strategies;
  check_int "one plan per strategy" (List.length all_strategies) (plan_cache_size ());
  let warm = counter "plan_cache_misses" in
  List.iter (fun s -> check (strategy_name s ^ ", cached") "1" (run s)) all_strategies;
  check_int "second round hits" warm (counter "plan_cache_misses")

(* Every name a strategy prints parses back to that strategy, and so
   does every alias the command line accepts. *)
let test_strategy_names_round_trip () =
  List.iter
    (fun s ->
      if strategy_of_name (strategy_name s) <> Some s then
        Alcotest.failf "%s does not parse back" (strategy_name s);
      List.iter
        (fun name -> if strategy_of_name name <> Some s then Alcotest.failf "alias %s" name)
        (List.assoc s strategy_names))
    all_strategies;
  if strategy_of_name "bogus" <> None then Alcotest.fail "an unknown name parsed"

(* An applied update publishes a new document generation: a plan costed
   against the old statistics must not be served for the new state. *)
let test_plan_cache_docs_gen () =
  let q = "for $x in (1,2,3) return $x + 1" in
  let misses () = counter "plan_cache_misses" in
  Version.clear ();
  Fun.protect ~finally:Version.clear @@ fun () ->
  Version.register "g" (parse_document ~uri:"g" "<r/>");
  clear_plan_cache ();
  ignore (prepare_cached q);
  let warm = misses () in
  ignore (prepare_cached q);
  check_int "same generation: hit" warm (misses ());
  ignore (Update.execute ~uri:"g" "insert node <a/> into doc(\"g\")/r");
  ignore (prepare_cached q);
  check_int "new generation: replan" (warm + 1) (misses ())

(* [Eval.force_materialize] is read when a prepared plan runs, not when
   it is compiled, so it is not part of the cache key: flipping it must
   hit the cached plan, and that plan must give the streamed answer. *)
let test_plan_cache_materialize () =
  let q = {|for $p in $d//person where $p/name != "n0" return $p/@id|} in
  let ctx = context () in
  bind_variable ctx "d" [ Item.Node (mk_db 3) ];
  let run () = serialize (Xqc.run (prepare_cached q) ctx) in
  clear_plan_cache ();
  let streamed = run () in
  let warm = counter "plan_cache_misses" in
  let saved = !Eval.force_materialize in
  Eval.force_materialize := true;
  let materialized =
    Fun.protect ~finally:(fun () -> Eval.force_materialize := saved) run
  in
  check_int "flip hits the cache" warm (counter "plan_cache_misses");
  check "materialized = streamed" streamed materialized

(* ------------------------------------------------------------------ *)
(* fn:collection                                                       *)
(* ------------------------------------------------------------------ *)

let test_collection_builtin () =
  let docs = [ mk_db 0; mk_db 1; mk_db 2 ] in
  let ctx = context () in
  Dynamic_ctx.bind_collection ctx "c" docs;
  let run q = serialize (Xqc.run (prepare q) ctx) in
  check "count across documents" "9" (run {|count(collection("c")//person)|});
  (* the sequence fn:collection returns is in binding order *)
  check "first member is first bound doc" "d0p0"
    (run {|string((collection("c"))[1]//person[1]/@id)|});
  match Xqc.run (prepare {|collection("missing")|}) ctx with
  | _ -> Alcotest.fail "unbound collection must raise"
  | exception Error _ -> ()

let () =
  Alcotest.run "runtime"
    [
      ( "layouts",
        [
          Alcotest.test_case "concat spec" `Quick test_concat_spec;
          Alcotest.test_case "slot errors" `Quick test_slot_resolution_error;
          Alcotest.test_case "construct/access" `Quick test_tuple_construct_and_access;
        ] );
      ( "operators",
        [
          Alcotest.test_case "map concat" `Quick test_map_concat;
          Alcotest.test_case "map from item / index" `Quick test_map_from_item_and_index;
          Alcotest.test_case "omap" `Quick test_omap;
          Alcotest.test_case "omapconcat" `Quick test_omapconcat;
          Alcotest.test_case "product order" `Quick test_product_order;
          Alcotest.test_case "element construction" `Quick test_element_construction;
          Alcotest.test_case "text/comment/pi" `Quick test_text_and_comment;
          Alcotest.test_case "cond and assert" `Quick test_cond_and_typeassert;
          Alcotest.test_case "map some/every" `Quick test_map_some_every;
          Alcotest.test_case "item quantifier" `Quick test_item_quantifier;
          Alcotest.test_case "vars" `Quick test_var_and_params;
          Alcotest.test_case "input errors" `Quick test_input_outside_context;
          Alcotest.test_case "serialize" `Quick test_serialize_operator;
        ] );
      ( "plan-cache",
        [
          Alcotest.test_case "mode knobs replan" `Quick test_plan_cache_modes;
          Alcotest.test_case "update replans" `Quick test_plan_cache_docs_gen;
          Alcotest.test_case "one plan per strategy" `Quick test_plan_cache_strategies;
          Alcotest.test_case "strategy names round-trip" `Quick test_strategy_names_round_trip;
          Alcotest.test_case "materialize is run-time" `Quick
            test_plan_cache_materialize;
        ] );
      ("collection", [ Alcotest.test_case "builtin" `Quick test_collection_builtin ]);
    ]
