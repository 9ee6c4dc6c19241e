(* The indexed document store: interval encoding, per-name indexes,
   the invalidation protocol, and the document/plan caches.

   The contract under test: with indexes forced on, every store answer
   equals the walking answer; renumbering or copying a tree never serves
   a stale nid range; an index lives exactly as long as its root;
   fn:doc parses once per URI per context; prepare is memoized by
   (source, strategy, knobs). *)

module Node = Xqc.Node
module Store = Xqc.Store
module Obs = Xqc.Obs

let with_index_mode mode f =
  let saved_mode = !Store.mode
  and saved_min = !Store.min_index_size
  and saved_small = !Store.small_subtree in
  Store.mode := mode;
  Store.min_index_size := 0;
  Store.small_subtree := 0;
  Fun.protect
    ~finally:(fun () ->
      Store.mode := saved_mode;
      Store.min_index_size := saved_min;
      Store.small_subtree := saved_small)
    f

let counter name = List.assoc name (Obs.global_counters ())

let doc () =
  Xqc.parse_document ~uri:"t.xml"
    {|<site><a><b/><b><c/></b></a><a/><b x="1" y="2"><a><b/></a></b></site>|}

(* -------- interval encoding -------- *)

(* every node of a renumbered tree: size = extent = 1 + attrs + descendant
   sizes, and the subtree interval contains exactly the subtree *)
let test_extents () =
  let d = doc () in
  let rec walk_size n =
    1
    + List.length (Node.attributes n)
    + List.fold_left (fun acc c -> acc + walk_size c) 0 (Node.children n)
  in
  let rec check n =
    Alcotest.(check int) "size = walked size" (walk_size n) (Node.size n);
    (match Node.subtree_interval n with
    | None -> Alcotest.fail "renumbered node has no interval"
    | Some (lo, hi) ->
        Alcotest.(check int) "interval width = size" (Node.size n) (hi - lo);
        List.iter
          (fun m ->
            let inside = lo < m.Node.nid && m.Node.nid < hi in
            if not inside then
              Alcotest.failf "descendant nid %d outside (%d, %d)" m.Node.nid lo
                hi)
          (Node.descendants n));
    List.iter check (Node.children n)
  in
  check d

(* the interval test is exactly the ancestor relation *)
let test_interval_is_descendant_test () =
  let d = doc () in
  let all = Node.descendant_or_self d in
  List.iter
    (fun n ->
      match Node.subtree_interval n with
      | None -> Alcotest.fail "no interval"
      | Some (lo, hi) ->
          List.iter
            (fun m ->
              let by_interval = lo < m.Node.nid && m.Node.nid < hi in
              let by_walk = Node.is_ancestor_of ~anc:n m && m != n in
              if by_interval <> by_walk then
                Alcotest.failf "interval test disagrees with walk (%d in %d..%d)"
                  m.Node.nid lo hi)
            all)
    all

(* -------- index answers = walk answers -------- *)

let names_of nodes =
  List.map (fun n -> match Node.name n with Some q -> q | None -> "?") nodes

let walk_descendants ?(self = false) n name =
  List.filter
    (fun m ->
      Node.kind m = Node.Kelement
      && (String.equal name "*" || Node.name m = Some name))
    (if self then Node.descendant_or_self n else Node.descendants n)

let test_index_matches_walk () =
  with_index_mode Store.Force (fun () ->
      let d = doc () in
      let all = Node.descendant_or_self d in
      List.iter
        (fun n ->
          List.iter
            (fun name ->
              let indexed =
                match Store.descendants_by_name n name with
                | Some l -> l
                | None -> Alcotest.fail "Force mode returned None"
              in
              let walked = walk_descendants n name in
              Alcotest.(check (list string))
                (Printf.sprintf "descendant::%s under nid %d" name n.Node.nid)
                (names_of walked) (names_of indexed);
              if not (List.for_all2 ( == ) walked indexed) then
                Alcotest.fail "same names but different nodes";
              Alcotest.(check int)
                ("count " ^ name)
                (List.length walked)
                (Option.get (Store.count_descendants_by_name n name));
              Alcotest.(check bool)
                ("exists " ^ name) (walked <> [])
                (Option.get (Store.exists_descendant_by_name n name));
              match Store.children_by_name n name with
              | None -> ()  (* cost guard sent the caller to the walk *)
              | Some kids ->
                  let walked_kids =
                    List.filter
                      (fun m ->
                        Node.kind m = Node.Kelement
                        && (String.equal name "*" || Node.name m = Some name))
                      (Node.children n)
                  in
                  if not (List.for_all2 ( == ) walked_kids kids) then
                    Alcotest.failf "child::%s mismatch" name)
            [ "a"; "b"; "c"; "nosuch"; "*" ])
        all)

let test_attributes_by_name () =
  with_index_mode Store.Force (fun () ->
      let d = doc () in
      let b =
        List.find
          (fun n -> Node.attributes n <> [])
          (Node.descendants d)
      in
      (match Store.attributes_by_name b "x" with
      | Some [ a ] -> Alcotest.(check string) "@x" "1" (Node.string_value a)
      | _ -> Alcotest.fail "attribute index miss");
      match Store.attributes_by_name (doc ()) "x" with
      | Some [] | None -> ()
      | Some _ -> Alcotest.fail "@x found outside its tree")

(* -------- invalidation -------- *)

let count_items d q =
  let ctx = Xqc.context () in
  Xqc.bind_variable ctx "d" [ Xqc.Item.Node d ];
  Xqc.serialize (Xqc.run (Xqc.prepare q) ctx)

let test_renumber_invalidates () =
  with_index_mode Store.Force (fun () ->
      let d = doc () in
      Alcotest.(check string) "initial count" "4" (count_items d "count($d//b)");
      let builds0 = counter "index_builds" in
      (* renumbering moves every nid: a stale range would now select
         arbitrary nodes, so the count only survives via a rebuild *)
      Node.renumber d;
      Alcotest.(check string) "after renumber" "4" (count_items d "count($d//b)");
      if counter "index_builds" <= builds0 then
        Alcotest.fail "renumber did not trigger a rebuild")

let test_copy_is_independent () =
  with_index_mode Store.Force (fun () ->
      let d = doc () in
      Alcotest.(check string) "original" "4" (count_items d "count($d//b)");
      let c = Node.copy d in
      Node.renumber c;
      Alcotest.(check string) "copy" "4" (count_items c "count($d//b)");
      (* the copy got its own index; the original still answers *)
      Alcotest.(check string) "original again" "4" (count_items d "count($d//b)"))

let test_constructed_trees () =
  with_index_mode Store.Force (fun () ->
      let d = doc () in
      (* constructors copy + renumber their content: the fresh tree must
         be indexed on its own, not through the source document's index.
         $d//b selects 4 nodes of which one pair nests, so the copies in
         <r> contain the inner b twice: 5 *)
      Alcotest.(check string) "count inside constructor" "5"
        (count_items d "count(<r>{$d//b}</r>//b)");
      Alcotest.(check string) "nested constructors" "2"
        (count_items d "count(<r><s><t/></s><t/></r>//t)"))

(* an assembled tree that was never renumbered as a whole violates the
   preorder invariant and must be refused, not mis-indexed *)
let test_unindexable_tree () =
  with_index_mode Store.Force (fun () ->
      let kid = Xqc.parse_document "<a><b/></a>" in
      let d2 = Xqc.parse_document "<x/>" in
      ignore d2;
      (* two roots numbered in separate renumber calls, glued without a
         fresh renumber: descending nids at the splice point *)
      let glued =
        Node.element "r" ~attrs:[]
          ~children:[ List.hd (Node.children kid) ]
      in
      match Store.descendants_by_name glued "b" with
      | None -> ()  (* refused: correct *)
      | Some l ->
          (* accepted is fine only if the answer is right *)
          Alcotest.(check int) "glued count" 1 (List.length l))

(* -------- lifetime: an index lives as long as its root -------- *)

(* Distinct per [i], and above the Auto indexing threshold. *)
let big_doc i =
  let items =
    List.init 40 (fun k -> Printf.sprintf {|<item n="%d"><name>i%d</name></item>|} k (i + k))
  in
  Xqc.parse_document ~uri:(Printf.sprintf "d%d.xml" i)
    ("<site>" ^ String.concat "" items ^ "</site>")

(* The paper's unit of work: load, index, plan and run one document,
   then drop it. *)
let load_and_query i =
  let d = big_doc i in
  ignore (Store.index_nodes d);
  Alcotest.(check string) "count" "40" (count_items d "count($d//item)")

(* The planner's statistics read path, run while a major cycle is
   marking; the cycle then finishes.  A read that fetched a dead root
   (Weak.get) would mark it and so keep it alive for that cycle. *)
let stats_mid_marking () =
  ignore (Gc.major_slice 1);
  ignore (Store.stats ());
  ignore (Store.element_count "item");
  Gc.major ()

let test_dropped_roots_free_indexes () =
  with_index_mode Store.Auto (fun () ->
      Store.clear ();
      let check_roots what =
        let roots = (Store.stats ()).Store.st_roots in
        if roots > 1 then Alcotest.failf "%s: %d indexed roots survive their documents" what roots
      in
      for i = 1 to 50 do
        stats_mid_marking ();
        load_and_query i
      done;
      stats_mid_marking ();
      check_roots "statistics read mid-marking";
      Gc.full_major ();
      check_roots "after a full major GC")

let test_live_root_keeps_index () =
  with_index_mode Store.Auto (fun () ->
      let d = big_doc 0 in
      Alcotest.(check string) "first run" "40" (count_items d "count($d//item)");
      Gc.full_major ();
      let builds0 = counter "index_builds" in
      Alcotest.(check string) "after a full major GC" "40" (count_items d "count($d//item)");
      Alcotest.(check int) "index not rebuilt" builds0 (counter "index_builds");
      Alcotest.(check (option int)) "still counted" (Some 40) (Store.element_count "item"))

(* -------- QCheck: random trees, indexed = walked -------- *)

let tree_gen : Node.t QCheck.Gen.t =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c"; "d" ] in
  let rec elem depth =
    name >>= fun nm ->
    (if depth = 0 then return []
     else list_size (int_bound 3) (elem (depth - 1)))
    >>= fun children ->
    list_size (int_bound 2) (name >>= fun an -> return (Node.attribute an "v"))
    >>= fun attrs ->
    return (Node.element nm ~attrs ~children)
  in
  elem 3 >>= fun root ->
  let d = Node.document [ root ] in
  Node.renumber d;
  return d

let prop_random_trees =
  QCheck.Test.make ~name:"indexed axes equal walked axes on random trees"
    ~count:200
    (QCheck.make tree_gen)
    (fun d ->
      with_index_mode Store.Force (fun () ->
          List.for_all
            (fun n ->
              List.for_all
                (fun name ->
                  let walked = walk_descendants n name in
                  match
                    ( Store.descendants_by_name n name,
                      Store.count_descendants_by_name n name )
                  with
                  | Some l, Some k ->
                      k = List.length walked && List.for_all2 ( == ) walked l
                  | _ -> false)
                [ "a"; "b"; "c"; "d"; "nosuch"; "*" ])
            (Node.descendant_or_self d)))

(* -------- document cache -------- *)

let test_doc_cache () =
  let parses = ref 0 in
  let resolver uri =
    incr parses;
    Xqc.parse_document ~uri {|<r><a/><a/></r>|}
  in
  let ctx = Xqc.context ~resolver () in
  let p = Xqc.prepare {|count(doc("u.xml")//a)|} in
  let hits0 = counter "doc_cache_hits" and parses0 = counter "doc_parses" in
  for _ = 1 to 5 do
    Alcotest.(check string) "cached doc result" "2"
      (Xqc.serialize (Xqc.run p ctx))
  done;
  Alcotest.(check int) "resolver ran once" 1 !parses;
  Alcotest.(check int) "one recorded parse" 1 (counter "doc_parses" - parses0);
  if counter "doc_cache_hits" - hits0 < 4 then
    Alcotest.fail "doc cache hits not recorded";
  (* the escape hatch really drops the cache *)
  Xqc.Dynamic_ctx.clear_doc_cache ctx;
  Alcotest.(check string) "after clear" "2" (Xqc.serialize (Xqc.run p ctx));
  Alcotest.(check int) "resolver ran again" 2 !parses

(* -------- prepared-plan cache -------- *)

let test_plan_cache () =
  Xqc.clear_plan_cache ();
  let q = "1 + 2" in
  let p1 = Xqc.prepare_cached q in
  let p2 = Xqc.prepare_cached q in
  if p1 != p2 then Alcotest.fail "same key not memoized";
  let p3 = Xqc.prepare_cached ~strategy:Xqc.No_algebra q in
  if p1 == p3 then Alcotest.fail "strategy not part of the key";
  let ctx = Xqc.context () in
  Alcotest.(check string) "cached plan runs" "3"
    (Xqc.serialize (Xqc.run p2 ctx));
  (* capacity bounds the cache and eviction is LRU *)
  Xqc.clear_plan_cache ();
  Xqc.set_plan_cache_capacity 2;
  let pa = Xqc.prepare_cached "1" in
  let _pb = Xqc.prepare_cached "2" in
  let _ = Xqc.prepare_cached "1" in  (* touch: "2" is now LRU *)
  let _pc = Xqc.prepare_cached "3" in  (* evicts "2" *)
  Alcotest.(check int) "capacity respected" 2 (Xqc.plan_cache_size ());
  if Xqc.prepare_cached "1" != pa then Alcotest.fail "recently used entry evicted";
  Xqc.set_plan_cache_capacity 128;
  Xqc.clear_plan_cache ()

let () =
  Alcotest.run "store"
    [
      ( "intervals",
        [
          Alcotest.test_case "extents and sizes" `Quick test_extents;
          Alcotest.test_case "interval = descendant test" `Quick
            test_interval_is_descendant_test;
        ] );
      ( "index",
        [
          Alcotest.test_case "index matches walk" `Quick test_index_matches_walk;
          Alcotest.test_case "attributes by name" `Quick test_attributes_by_name;
          QCheck_alcotest.to_alcotest prop_random_trees;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "renumber invalidates" `Quick
            test_renumber_invalidates;
          Alcotest.test_case "copy is independent" `Quick test_copy_is_independent;
          Alcotest.test_case "constructed trees" `Quick test_constructed_trees;
          Alcotest.test_case "unindexable tree refused" `Quick
            test_unindexable_tree;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "dropped roots free their indexes" `Quick
            test_dropped_roots_free_indexes;
          Alcotest.test_case "live root keeps its index" `Quick
            test_live_root_keeps_index;
        ] );
      ( "caches",
        [
          Alcotest.test_case "doc cache" `Quick test_doc_cache;
          Alcotest.test_case "plan cache" `Quick test_plan_cache;
        ] );
    ]
