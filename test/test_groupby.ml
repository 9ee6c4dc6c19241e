(* The XQuery GroupBy operator (Section 5): the Figure 4 example, the
   single-partition convention for empty grouping criteria, null-flag
   handling, partition ordering, and grouping by runs of ascending
   integer keys. *)

open Xqc
open Algebra

(* Literal input tables are encoded as XML rows and unpacked by a
   MapFromItem whose tuple constructor reads the row attributes. *)
let rows_doc =
  Xqc.parse_document
    {|<t><r x="1" y="1" index="1" null="false"/><r x="1" y="2" index="1" null="false"/><r x="1" y="1" index="2" null="false"/><r x="1" y="2" index="2" null="false"/><r x="3" index="3" null="true"/></t>|}

let rows_items =
  List.filter_map
    (fun n -> if Node.name n = Some "r" then Some (Item.Node n) else None)
    (Node.descendants rows_doc)

let attr name = Call ("fn:data", [ TreeJoin (Ast.Attribute_axis, Ast.Name_test name, Input) ])

let input_table : plan =
  MapFromItem
    ( TupleConstruct
        [
          ("x", attr "x");
          ("y", attr "y");
          ("index", attr "index");
          ("null", Cast (Atomic.T_boolean, true, attr "null"));
        ],
      Var "rows" )

let ctx =
  let c = Dynamic_ctx.create () in
  Dynamic_ctx.bind_global c "rows" rows_items;
  c

let run_table (p : plan) : Eval.tuple list =
  let pp = Planner.plan p in
  let comp, _ = Eval.compile (Eval.top_env pp) pp in
  match comp ctx Eval.INone with
  | Eval.Tab t -> List.of_seq t
  | Eval.Xml _ -> Alcotest.fail "expected a table"

let cell_str (v : Item.sequence) = String.concat "," (List.map Item.string_value v)

let test_figure4 () =
  (* GroupBy[a, index, null]{avg(IN)}{IN#y * 10}(input) *)
  let g =
    {
      g_agg = "a";
      g_indices = [ "index" ];
      g_nulls = [ "null" ];
      g_post = Call ("fn:avg", [ Input ]);
      g_pre = Call ("op:multiply", [ FieldAccess "y"; Scalar (Atomic.Integer 10) ]);
    }
  in
  let out = run_table (GroupBy (g, input_table)) in
  Alcotest.(check int) "three partitions" 3 (List.length out);
  (* output layout: x, y, index, null, a *)
  Alcotest.(check (list (pair string string)))
    "x and a per partition (Figure 4 output)"
    [ ("1", "15"); ("1", "15"); ("3", "") ]
    (List.map (fun t -> (cell_str t.(0), cell_str t.(4))) out)

let test_empty_criteria_single_partition () =
  (* no grouping criteria: the whole input forms one partition *)
  let g =
    {
      g_agg = "a";
      g_indices = [];
      g_nulls = [ "null" ];
      g_post = Call ("fn:count", [ Input ]);
      g_pre = FieldAccess "y";
    }
  in
  let out = run_table (GroupBy (g, input_table)) in
  Alcotest.(check int) "one output tuple" 1 (List.length out);
  (* four non-null rows contribute one y item each *)
  Alcotest.(check string) "partition items counted" "4" (cell_str (List.hd out).(4))

let test_null_rows_skip_pre () =
  (* pre would fail on the null row (y * 10 with y absent gives empty,
     so use a pre that errors on empty to prove it is never called) *)
  let g =
    {
      g_agg = "a";
      g_indices = [ "index" ];
      g_nulls = [ "null" ];
      g_post = Call ("fn:count", [ Input ]);
      g_pre = Call ("fn:exactly-one", [ FieldAccess "y" ]);
    }
  in
  let out = run_table (GroupBy (g, input_table)) in
  Alcotest.(check (list string)) "null partition has an empty item list"
    [ "2"; "2"; "0" ]
    (List.map (fun t -> cell_str t.(4)) out)

let test_partition_order_is_first_occurrence () =
  (* rows with indexes 2,1,2 -> partitions reported in 2,1 order of first
     occurrence, which for MapIndexStep-produced indexes is ascending *)
  let doc =
    Xqc.parse_document
      {|<t><r x="b" index="2" null="false"/><r x="a" index="1" null="false"/><r x="c" index="2" null="false"/></t>|}
  in
  let items =
    List.filter_map
      (fun n -> if Node.name n = Some "r" then Some (Item.Node n) else None)
      (Node.descendants doc)
  in
  Dynamic_ctx.bind_global ctx "rows2" items;
  let table =
    MapFromItem
      ( TupleConstruct
          [
            ("x", attr "x");
            ("index", attr "index");
            ("null", Cast (Atomic.T_boolean, true, attr "null"));
          ],
        Var "rows2" )
  in
  let g =
    {
      g_agg = "a";
      g_indices = [ "index" ];
      g_nulls = [ "null" ];
      g_post = Call ("fn:string-join", [ Input; Scalar (Atomic.String "+") ]);
      g_pre = FieldAccess "x";
    }
  in
  let out = run_table (GroupBy (g, table)) in
  Alcotest.(check (list string)) "partitions by first occurrence, members in order"
    [ "b+c"; "a" ]
    (List.map (fun t -> cell_str t.(2 + 1)) out)

let test_empty_input () =
  Dynamic_ctx.bind_global ctx "norows" [];
  let table = MapFromItem (TupleConstruct [ ("x", Input) ], Var "norows") in
  let g =
    { g_agg = "a"; g_indices = []; g_nulls = []; g_post = Input; g_pre = FieldAccess "x" }
  in
  Alcotest.(check int) "empty in, empty out" 0 (List.length (run_table (GroupBy (g, table))))

let test_multiple_null_flags () =
  (* any true flag suppresses the pre plan *)
  let table =
    MapFromItem
      ( TupleConstruct
          [
            ("y", attr "y");
            ("index", attr "index");
            ("null1", Cast (Atomic.T_boolean, true, attr "null"));
            ("null2", Scalar (Atomic.Boolean false));
          ],
        Var "rows" )
  in
  let g =
    {
      g_agg = "a";
      g_indices = [];
      g_nulls = [ "null1"; "null2" ];
      g_post = Call ("fn:count", [ Input ]);
      g_pre = FieldAccess "y";
    }
  in
  let out = run_table (GroupBy (g, table)) in
  Alcotest.(check string) "only non-null rows contribute" "4" (cell_str (List.hd out).(4))

(* qcheck: over random tables with 1-3 xs:integer index fields,
   duplicate keys and null flags, GroupBy equals a first-occurrence
   reference partitioning, whether its input arrives sorted on the keys
   (grouped as runs) or in random order (hash-partitioned unless it
   happens to be ascending).  Only an input whose keys decrease somewhere
   counts a hash partitioning. *)
let hash_partitions () = List.assoc "groupby_hash_partitions" (Obs.global_counters ())

type row = { keys : int list; null : bool; id : int }

let rows_gen =
  QCheck.Gen.(
    int_range 1 3 >>= fun nkeys ->
    list_size (int_range 0 12)
      (pair (list_repeat nkeys (int_range 0 2)) bool)
    >>= fun rows ->
    return (nkeys, List.mapi (fun id (keys, null) -> { keys; null; id }) rows))

let key_fields nkeys = List.init nkeys (fun i -> Printf.sprintf "k%d" i)

let group_rows nkeys (rows : row list) : string list =
  let doc =
    Xqc.parse_document
      (Printf.sprintf "<t>%s</t>"
         (String.concat ""
            (List.map
               (fun r ->
                 Printf.sprintf {|<r %s null="%b" id="%d"/>|}
                   (String.concat " " (List.mapi (Printf.sprintf {|k%d="%d"|}) r.keys))
                   r.null r.id)
               rows)))
  in
  Dynamic_ctx.bind_global ctx "qrows"
    (List.filter_map
       (fun n -> if Node.name n = Some "r" then Some (Item.Node n) else None)
       (Node.descendants doc));
  let table =
    MapFromItem
      ( TupleConstruct
          (("id", attr "id")
           :: ("null", Cast (Atomic.T_boolean, true, attr "null"))
           :: List.map (fun k -> (k, Cast (Atomic.T_integer, true, attr k))) (key_fields nkeys)),
        Var "qrows" )
  in
  let g =
    {
      g_agg = "a";
      g_indices = key_fields nkeys;
      g_nulls = [ "null" ];
      g_post = Call ("fn:string-join", [ Input; Scalar (Atomic.String "+") ]);
      g_pre = FieldAccess "id";
    }
  in
  (* output: the first tuple's id and the joined ids of the non-null members *)
  List.map
    (fun t -> cell_str t.(0) ^ ":" ^ cell_str t.(Array.length t - 1))
    (run_table (GroupBy (g, table)))

let reference_groups (rows : row list) : string list =
  let keys = List.sort_uniq compare (List.map (fun r -> r.keys) rows) in
  let first_pos k =
    let rec go i = function
      | r :: rest -> if r.keys = k then i else go (i + 1) rest
      | [] -> max_int
    in
    go 0 rows
  in
  List.map
    (fun k ->
      let members = List.filter (fun r -> r.keys = k) rows in
      Printf.sprintf "%d:%s" (List.hd members).id
        (String.concat "+"
           (List.filter_map (fun r -> if r.null then None else Some (string_of_int r.id)) members)))
    (List.sort (fun a b -> compare (first_pos a) (first_pos b)) keys)

let ascending rows =
  let rec go = function
    | a :: (b :: _ as rest) -> compare a.keys b.keys <= 0 && go rest
    | [ _ ] | [] -> true
  in
  go rows

let prop_runs_equal_partitions =
  QCheck.Test.make ~name:"sorted and shuffled inputs group like the reference" ~count:200
    (QCheck.make
       ~print:(fun (n, rows) ->
         Printf.sprintf "%d keys: %s" n
           (String.concat "; "
              (List.map
                 (fun r ->
                   Printf.sprintf "%d[%s]%s" r.id
                     (String.concat "," (List.map string_of_int r.keys))
                     (if r.null then "null" else ""))
                 rows)))
       rows_gen)
    (fun (nkeys, shuffled) ->
      let sorted = List.stable_sort (fun a b -> compare a.keys b.keys) shuffled in
      let before = hash_partitions () in
      let sorted_ok = group_rows nkeys sorted = reference_groups sorted in
      let after_sorted = hash_partitions () in
      let shuffled_ok = group_rows nkeys shuffled = reference_groups shuffled in
      let after_shuffled = hash_partitions () in
      sorted_ok && shuffled_ok && after_sorted = before
      && after_shuffled - after_sorted = if ascending shuffled then 0 else 1)

let () =
  Alcotest.run "groupby"
    [
      ( "semantics",
        [
          Alcotest.test_case "figure 4" `Quick test_figure4;
          Alcotest.test_case "empty criteria" `Quick test_empty_criteria_single_partition;
          Alcotest.test_case "null rows skip pre" `Quick test_null_rows_skip_pre;
          Alcotest.test_case "partition order" `Quick test_partition_order_is_first_occurrence;
          Alcotest.test_case "empty input" `Quick test_empty_input;
          Alcotest.test_case "multiple null flags" `Quick test_multiple_null_flags;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_runs_equal_partitions ]);
    ]
