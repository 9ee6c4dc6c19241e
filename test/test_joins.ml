(* The Section 6 join algorithms: the Figure 6 hash join (typed
   (value,type) keys, Table 2 compatibility filter, order restoration,
   existential de-duplication) and the sort join for inequalities. *)

open Xqc
module A = Atomic
module J = Joins

let check_int = Alcotest.(check int)

(* tuples are one-field arrays holding a key sequence and a payload int *)
let tup keys payload : J.tuple =
  [| List.map (fun a -> Item.Atom a) keys; [ Item.Atom (A.Integer payload) ] |]

let payload (t : J.tuple) : int =
  match t.(1) with [ Item.Atom (A.Integer i) ] -> i | _ -> -1

let key_of (t : J.tuple) = t.(0)

let probe index keys = List.map payload (J.probe_hash_index index (keys))

let test_basic_hash_match () =
  let inner = [ tup [ A.Integer 1 ] 10; tup [ A.Integer 2 ] 20; tup [ A.Integer 1 ] 30 ] in
  let ix = J.build_hash_index inner key_of in
  Alcotest.(check (list int)) "all matches in inner order" [ 10; 30 ] (probe ix [ A.Integer 1 ]);
  Alcotest.(check (list int)) "single" [ 20 ] (probe ix [ A.Integer 2 ]);
  Alcotest.(check (list int)) "no match" [] (probe ix [ A.Integer 9 ])

let test_untyped_vs_numeric () =
  (* untyped "42" must match integer 42 under the double comparison *)
  let inner = [ tup [ A.Untyped "42" ] 1; tup [ A.Untyped "42.0" ] 2 ] in
  let ix = J.build_hash_index inner key_of in
  Alcotest.(check (list int)) "both lexical forms match numerically" [ 1; 2 ]
    (probe ix [ A.Integer 42 ]);
  (* but an untyped probe compares as string against untyped entries *)
  Alcotest.(check (list int)) "string semantics for untyped pair" [ 1 ]
    (probe ix [ A.Untyped "42" ])

let test_table2_filter () =
  (* typed string "42" and integer 42 are incomparable (err:XPTY0004):
     the Table 2 check must reject the pair even though promotions of
     other keys share buckets *)
  let inner = [ tup [ A.String "42" ] 1; tup [ A.Integer 42 ] 2 ] in
  let ix = J.build_hash_index inner key_of in
  Alcotest.(check (list int)) "integer probe sees only the integer" [ 2 ]
    (probe ix [ A.Integer 42 ]);
  Alcotest.(check (list int)) "string probe sees only the string" [ 1 ]
    (probe ix [ A.String "42" ]);
  Alcotest.(check (list int)) "untyped probe sees both (string + double rows of Table 2)"
    [ 1; 2 ] (probe ix [ A.Untyped "42" ])

let test_existential_dedup () =
  (* a tuple whose key sequence matches twice is reported once *)
  let inner = [ tup [ A.Integer 1; A.Integer 2 ] 7 ] in
  let ix = J.build_hash_index inner key_of in
  Alcotest.(check (list int)) "dedup inner multi-keys" [ 7 ] (probe ix [ A.Integer 1; A.Integer 2 ]);
  Alcotest.(check (list int)) "dedup across probe keys" [ 7 ] (probe ix [ A.Integer 2; A.Integer 2 ])

let test_order_restored () =
  let inner = List.init 10 (fun i -> tup [ A.Integer (i mod 2) ] i) in
  let ix = J.build_hash_index inner key_of in
  Alcotest.(check (list int)) "even payloads ascending" [ 0; 2; 4; 6; 8 ]
    (probe ix [ A.Integer 0 ])

let test_promoted_entries_match_once () =
  (* untyped "1" meets integer 1 as double and untyped "1" as string:
     two accepted entries of one build tuple, reported once *)
  let inner = [ tup [ A.Untyped "1" ] 5 ] in
  let ix = J.build_hash_index inner key_of in
  Alcotest.(check (list int)) "one tuple, two promoted matches" [ 5 ]
    (probe ix [ A.Integer 1; A.Untyped "1" ]);
  Alcotest.(check (list int)) "one position"
    [ 1 ]
    (J.probe_hash_index_orders ix [ A.Integer 1; A.Untyped "1" ])

let test_three_matches_in_build_order () =
  let inner =
    [ tup [ A.Untyped "7" ] 1; tup [ A.Integer 3 ] 2; tup [ A.Double 7.0 ] 3;
      tup [ A.Integer 7 ] 4 ]
  in
  let ix = J.build_hash_index inner key_of in
  Alcotest.(check (list int)) "build order" [ 1; 3; 4 ] (probe ix [ A.Integer 7 ]);
  Alcotest.(check (list int)) "build positions" [ 1; 3; 4 ]
    (J.probe_hash_index_orders ix [ A.Integer 7 ])

let test_untyped_promotions () =
  let targets a = List.map snd (Promotion.promote_to_simple_types a) in
  Alcotest.(check (list string)) "\"abc\": a string entry only" [ "xs:string" ]
    (List.map A.type_name_to_string (targets (A.Untyped "abc")));
  Alcotest.(check (list string)) "\" 2.5 \": string and double entries"
    [ "xs:string"; "xs:double" ]
    (List.map A.type_name_to_string (targets (A.Untyped " 2.5 ")));
  Alcotest.(check (list string)) "entry values" [ "xs:string( 2.5 )"; "xs:double(2.5)" ]
    (List.map
       (fun (v, _) -> Format.asprintf "%a" A.pp v)
       (Promotion.promote_to_simple_types (A.Untyped " 2.5 ")));
  Alcotest.(check (list string)) "\"0x10\" is not a number" [ "xs:string" ]
    (List.map A.type_name_to_string (targets (A.Untyped "0x10")))

let test_numeric_promotion_equality () =
  let inner = [ tup [ A.Decimal 1.5 ] 1; tup [ A.Double 1.5 ] 2; tup [ A.Float 1.5 ] 3 ] in
  let ix = J.build_hash_index inner key_of in
  Alcotest.(check (list int)) "decimal probe matches all numeric types" [ 1; 2; 3 ]
    (probe ix [ A.Decimal 1.5 ])

let test_anyuri_string () =
  let inner = [ tup [ A.Any_uri "http://x" ] 1 ] in
  let ix = J.build_hash_index inner key_of in
  Alcotest.(check (list int)) "string probe matches anyURI" [ 1 ]
    (probe ix [ A.String "http://x" ])

let test_boolean_and_dates () =
  let inner = [ tup [ A.Boolean true ] 1; tup [ A.Other (A.T_date, "2006-01-01") ] 2 ] in
  let ix = J.build_hash_index inner key_of in
  Alcotest.(check (list int)) "boolean" [ 1 ] (probe ix [ A.Boolean true ]);
  Alcotest.(check (list int)) "date lexical" [ 2 ]
    (probe ix [ A.Other (A.T_date, "2006-01-01") ]);
  Alcotest.(check (list int)) "date vs time no match" []
    (probe ix [ A.Other (A.T_time, "2006-01-01") ])

let test_nan_never_matches () =
  let inner = [ tup [ A.Double Float.nan ] 1 ] in
  let ix = J.build_hash_index inner key_of in
  check_int "nan = nan is false" 0 (List.length (probe ix [ A.Double Float.nan ]))

(* ---------------- sort join ---------------- *)

let sort_probe op index keys = List.map payload (J.probe_sort_index op index keys)

let test_sort_numeric () =
  let inner = List.init 5 (fun i -> tup [ A.Integer (i + 1) ] (i + 1)) in
  let ix = J.build_sort_index inner key_of in
  Alcotest.(check (list int)) "x < y (suffix)" [ 4; 5 ]
    (sort_probe Promotion.Lt ix [ A.Integer 3 ]);
  Alcotest.(check (list int)) "x <= y" [ 3; 4; 5 ]
    (sort_probe Promotion.Le ix [ A.Integer 3 ]);
  Alcotest.(check (list int)) "x > y (prefix)" [ 1; 2 ]
    (sort_probe Promotion.Gt ix [ A.Integer 3 ]);
  Alcotest.(check (list int)) "x >= y" [ 1; 2; 3 ]
    (sort_probe Promotion.Ge ix [ A.Integer 3 ])

let test_sort_untyped_semantics () =
  (* untyped vs numeric compares as double; untyped vs untyped as string *)
  let inner = [ tup [ A.Untyped "10" ] 1; tup [ A.Integer 10 ] 2 ] in
  let ix = J.build_sort_index inner key_of in
  Alcotest.(check (list int)) "numeric probe 9 < both tens" [ 1; 2 ]
    (sort_probe Promotion.Lt ix [ A.Integer 9 ]);
  (* untyped "9" vs untyped "10": string order makes "10" < "9" *)
  Alcotest.(check (list int)) "untyped probe: string order vs untyped, double vs numeric"
    [ 2 ] (sort_probe Promotion.Lt ix [ A.Untyped "9" ])

let test_sort_existential () =
  let inner = [ tup [ A.Integer 5 ] 1; tup [ A.Integer 7 ] 2 ] in
  let ix = J.build_sort_index inner key_of in
  Alcotest.(check (list int)) "any probe key may match, dedup" [ 1; 2 ]
    (sort_probe Promotion.Lt ix [ A.Integer 4; A.Integer 6 ])

let test_sort_strings () =
  let inner = [ tup [ A.String "apple" ] 1; tup [ A.String "pear" ] 2 ] in
  let ix = J.build_sort_index inner key_of in
  Alcotest.(check (list int)) "banana < pear only" [ 2 ]
    (sort_probe Promotion.Lt ix [ A.String "banana" ]);
  Alcotest.(check (list int)) "zebra > both" [ 1; 2 ]
    (sort_probe Promotion.Gt ix [ A.String "zebra" ]);
  Alcotest.(check (list int)) "no numeric match for strings" []
    (sort_probe Promotion.Lt ix [ A.Integer 0 ])

(* The reference semantics for the join algorithms: pairwise comparison
   with per-pair error suppression.  Figure 6 deliberately turns "this
   pair of values is incomparable / does not cast" dynamic errors into
   non-matches, whereas general_compare raises on the first bad pair, so
   the NL reference must suppress errors pair by pair. *)
let pairwise op xs ys =
  List.exists
    (fun x ->
      List.exists
        (fun y ->
          try Promotion.atomic_compare op x y
          with Promotion.Type_mismatch _ | A.Cast_error _ -> false)
        ys)
    xs

(* qcheck: hash probe equals the pairwise general-compare filter. *)
let atom_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> A.Integer i) (int_range (-5) 5);
        map (fun i -> A.Untyped (string_of_int i)) (int_range (-5) 5);
        map (fun f -> A.Double (Float.of_int f /. 2.0)) (int_range (-6) 6);
        map (fun s -> A.String s) (oneofl [ "a"; "b"; "1"; "2" ]);
        map (fun s -> A.Untyped s) (oneofl [ "a"; "b"; "x" ]);
      ])

let keys_gen = QCheck.Gen.(list_size (int_range 1 3) atom_gen)

let table_gen =
  QCheck.Gen.(
    list_size (int_range 0 12) keys_gen >>= fun keyss ->
    return (List.mapi (fun i ks -> tup ks i) keyss))

let prop_hash_equals_nl =
  QCheck.Test.make ~name:"hash join = NL general-compare filter" ~count:200
    (QCheck.make QCheck.Gen.(pair table_gen keys_gen))
    (fun (inner, probe_keys) ->
      let ix = J.build_hash_index inner key_of in
      let via_hash = probe ix probe_keys in
      let via_nl =
        List.filter_map
          (fun t ->
            if pairwise Promotion.Eq probe_keys (Item.atomize (key_of t)) then
              Some (payload t)
            else None)
          inner
      in
      via_hash = via_nl)

let prop_sort_equals_nl =
  QCheck.Test.make ~name:"sort join = NL general-compare filter" ~count:200
    (QCheck.make QCheck.Gen.(pair table_gen keys_gen))
    (fun (inner, probe_keys) ->
      let ix = J.build_sort_index inner key_of in
      List.for_all
        (fun op ->
          let via_sort = sort_probe op ix probe_keys in
          let via_nl =
            List.filter_map
              (fun t ->
                if pairwise op probe_keys (Item.atomize (key_of t)) then
                  Some (payload t)
                else None)
              inner
          in
          via_sort = via_nl)
        [ Promotion.Lt; Promotion.Le; Promotion.Gt; Promotion.Ge ])

let () =
  Alcotest.run "joins"
    [
      ( "hash join",
        [
          Alcotest.test_case "basic" `Quick test_basic_hash_match;
          Alcotest.test_case "untyped vs numeric" `Quick test_untyped_vs_numeric;
          Alcotest.test_case "Table 2 filter" `Quick test_table2_filter;
          Alcotest.test_case "existential dedup" `Quick test_existential_dedup;
          Alcotest.test_case "order restored" `Quick test_order_restored;
          Alcotest.test_case "promoted entries match once" `Quick test_promoted_entries_match_once;
          Alcotest.test_case "three matches in build order" `Quick test_three_matches_in_build_order;
          Alcotest.test_case "untyped promotions" `Quick test_untyped_promotions;
          Alcotest.test_case "numeric promotion" `Quick test_numeric_promotion_equality;
          Alcotest.test_case "anyURI/string" `Quick test_anyuri_string;
          Alcotest.test_case "boolean and dates" `Quick test_boolean_and_dates;
          Alcotest.test_case "NaN" `Quick test_nan_never_matches;
        ] );
      ( "sort join",
        [
          Alcotest.test_case "numeric ranges" `Quick test_sort_numeric;
          Alcotest.test_case "untyped semantics" `Quick test_sort_untyped_semantics;
          Alcotest.test_case "existential" `Quick test_sort_existential;
          Alcotest.test_case "strings" `Quick test_sort_strings;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_hash_equals_nl; prop_sort_equals_nl ] );
    ]
