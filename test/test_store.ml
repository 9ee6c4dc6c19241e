(* The indexed document store: interval encoding, per-name indexes,
   the invalidation protocol, and the document/plan caches.

   The contract under test: every store answer equals the walking
   answer, and only descendant name steps read the index; renumbering
   or copying a tree never serves a stale nid range; an index lives
   exactly as long as its root; fn:doc parses once per URI per context;
   prepare is memoized by (source, strategy, knobs). *)

module Node = Xqc.Node
module Store = Xqc.Store
module Obs = Xqc.Obs

(* Run [f] with the index on ([true]) or every step walked. *)
let with_index ?(on = true) f =
  let saved = !Store.walk_only in
  Store.walk_only := not on;
  Fun.protect ~finally:(fun () -> Store.walk_only := saved) f

let counter name = List.assoc name (Obs.global_counters ())

let doc () =
  Xqc.parse_document ~uri:"t.xml"
    {|<site><a><b/><b><c/></b></a><a/><b x="1" y="2"><a><b/></a></b></site>|}

(* Distinct per [i], and above the size below which a run-time tree is
   walked rather than indexed. *)
let big_doc i =
  let items =
    List.init 40 (fun k -> Printf.sprintf {|<item n="%d"><name>i%d</name></item>|} k (i + k))
  in
  Xqc.parse_document ~uri:(Printf.sprintf "d%d.xml" i)
    ("<site>" ^ String.concat "" items ^ "</site>")

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
  with_index (fun () ->
      let d = doc () in
      let all = Node.descendant_or_self d in
      List.iter
        (fun n ->
          List.iter
            (fun name ->
              let indexed =
                match Store.descendants (Store.resolver name) n with
                | Some l -> l
                | None -> Alcotest.fail "a parsed document's index returned None"
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
                (Option.get (Store.count_descendants (Store.resolver name) n));
              Alcotest.(check bool)
                ("exists " ^ name) (walked <> [])
                (Option.get (Store.exists_descendant (Store.resolver name) n));
              let walked_self = walk_descendants ~self:true n name in
              match Store.descendants ~self:true (Store.resolver name) n with
              | Some l when List.length l = List.length walked_self && List.for_all2 ( == ) walked_self l -> ()
              | _ -> Alcotest.failf "descendant-or-self::%s under nid %d" name n.Node.nid)
            [ "a"; "b"; "c"; "nosuch"; "*" ])
        all)

(* -------- invalidation -------- *)

let count_items d q =
  let ctx = Xqc.context () in
  Xqc.bind_variable ctx "d" [ Xqc.Item.Node d ];
  Xqc.serialize (Xqc.run (Xqc.prepare q) ctx)

(* A document big enough to be indexed again lazily once renumbering
   has dropped its index. *)
let test_renumber_invalidates () =
  with_index (fun () ->
      let d = big_doc 5 in
      Alcotest.(check string) "initial count" "40" (count_items d "count($d//item)");
      let builds0 = counter "index_builds" in
      (* renumbering moves every nid: a stale range would now select
         arbitrary nodes, so the count only survives via a rebuild *)
      Node.renumber d;
      Alcotest.(check string) "after renumber" "40" (count_items d "count($d//item)");
      if counter "index_builds" <= builds0 then
        Alcotest.fail "renumber did not trigger a rebuild")

(* Patching a fresh subtree into an index whose "*" array is
   major-heap-sized runs no minor collection: the new arrays are built
   from the existing ones, not filled with the young inserted node. *)
let test_patch_insert_no_minor_gc () =
  let root =
    Xqc.parse_document ~uri:"patch.xml"
      ("<site>" ^ String.concat "" (List.init 300 (fun _ -> "<e/>")) ^ "</site>")
  in
  let count = Store.element_count "e" in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let sub = Node.fresh (Node.Element { ename = "e"; attrs = []; children = []; eannot = None }) in
  sub.Node.nid <- Node.interval_end root;
  Alcotest.(check bool) "patched" true (Store.patch_insert root sub);
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  Alcotest.(check int) "no minor collection" before after;
  Alcotest.(check (option int)) "counted" (Option.map succ count) (Store.element_count "e")

let test_copy_is_independent () =
  with_index (fun () ->
      let d = doc () in
      Alcotest.(check string) "original" "4" (count_items d "count($d//b)");
      let c = Node.copy d in
      Node.renumber c;
      Alcotest.(check string) "copy" "4" (count_items c "count($d//b)");
      (* the copy got its own index; the original still answers *)
      Alcotest.(check string) "original again" "4" (count_items d "count($d//b)"))

let test_constructed_trees () =
  with_index (fun () ->
      let d = doc () in
      (* constructors copy their content into a newly numbered tree: it must
         be served on its own, not through the source document's index.
         $d//b selects 4 nodes of which one pair nests, so the copies in
         <r> contain the inner b twice: 5 *)
      Alcotest.(check string) "count inside constructor" "5"
        (count_items d "count(<r>{$d//b}</r>//b)");
      Alcotest.(check string) "nested constructors" "2"
        (count_items d "count(<r><s><t/></s><t/></r>//t)");
      (* a constructed tree of 161 nodes is indexed lazily on its own:
         one build, and the answers of its own index *)
      let d = big_doc 9 in
      let builds0 = counter "index_builds" in
      Alcotest.(check string) "count inside a large constructor" "40"
        (count_items d "count(<r>{$d//item}</r>//item)");
      if counter "index_builds" <= builds0 then
        Alcotest.fail "the constructed tree was not indexed";
      let builds1 = counter "index_builds" in
      Alcotest.(check string) "names inside a large constructor" "i9 i10 i48"
        (count_items d
           {|let $r := <r>{$d//item}</r> for $n in ($r//name)[position() = (1, 2, last())] return string($n)|});
      if counter "index_builds" <= builds1 then
        Alcotest.fail "the second constructed tree was not indexed")

(* an assembled tree that was never renumbered as a whole violates the
   preorder invariant and must be refused, not mis-indexed *)
let test_unindexable_tree () =
  with_index (fun () ->
      let kid = Xqc.parse_document "<a><b/></a>" in
      let d2 = Xqc.parse_document "<x/>" in
      ignore d2;
      (* two roots numbered in separate renumber calls, glued without a
         fresh renumber: descending nids at the splice point *)
      let glued =
        Node.element "r" ~attrs:[]
          ~children:[ List.hd (Node.children kid) ]
      in
      match Store.descendants (Store.resolver "b") glued with
      | None -> ()  (* refused: correct *)
      | Some l ->
          (* accepted is fine only if the answer is right *)
          Alcotest.(check int) "glued count" 1 (List.length l))

(* -------- lifetime: an index lives as long as its root -------- *)

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
  with_index (fun () ->
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
  with_index (fun () ->
      let d = big_doc 0 in
      Alcotest.(check string) "first run" "40" (count_items d "count($d//item)");
      Gc.full_major ();
      let builds0 = counter "index_builds" in
      Alcotest.(check string) "after a full major GC" "40" (count_items d "count($d//item)");
      Alcotest.(check int) "index not rebuilt" builds0 (counter "index_builds");
      Alcotest.(check (option int)) "still counted" (Some 40) (Store.element_count "item"))

(* -------- the loader's index = the lazy build -------- *)

(* What an index holds, with each node as its offset from the root's
   nid: the parser and [Node.renumber] both number consecutively in
   preorder, so the two sides agree offset for offset. *)
let offsets root (c : Store.contents) =
  let arrays l =
    List.map (fun (q, a) -> (q, Array.to_list (Array.map (fun m -> m.Node.nid - root.Node.nid) a))) l
  in
  (arrays c.Store.c_elements, c.Store.c_element_counts, c.Store.c_attribute_counts, c.Store.c_nodes)

(* Parse [xml] (the loader publishes its index), then index a renumbered
   copy of the same tree by the lazy walk; [Some msg] on a mismatch. *)
let loader_vs_build xml =
  with_index (fun () ->
      let d = Xqc.parse_document xml in
      let builds = counter "index_builds" in
      let loaded = Option.get (Store.contents d) in
      if counter "index_builds" <> builds then Some "the parsed document was indexed again"
      else
        let c = Node.copy d in
        Node.renumber c;
        let built = Option.get (Store.contents c) in
        if counter "index_builds" <> builds + 1 then Some "the copy was not built lazily"
        else if offsets d loaded <> offsets c built then Some "loader and build disagree"
        else None)

let test_loader_matches_build () =
  List.iter
    (fun (what, gen) ->
      List.iter
        (fun bytes ->
          List.iter
            (fun seed ->
              match loader_vs_build (gen seed bytes) with
              | None -> ()
              | Some msg -> Alcotest.failf "%s, %d bytes, seed %d: %s" what bytes seed msg)
            [ 1; 2; 3 ])
        [ 5_000; 60_000 ])
    [
      ("xmark", fun seed bytes -> Xqc_workload.Xmark.generate_string ~seed ~target_bytes:bytes ());
      ("clio", fun seed bytes -> Xqc_workload.Clio.generate_string ~seed ~target_bytes:bytes ());
    ]

(* Random trees with text, comments and distinct attribute names, so
   that they serialize to well-formed XML. *)
let xml_tree_gen : Node.t QCheck.Gen.t =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c"; "d" ] in
  let rec node depth =
    frequency
      [
        (1, map Node.text (oneofl [ "t"; "u v" ]));
        (1, return (Node.comment "c"));
        (4, elem depth);
      ]
  and elem depth =
    name >>= fun nm ->
    (if depth = 0 then return [] else list_size (int_bound 3) (node (depth - 1)))
    >>= fun children ->
    list_size (int_bound 3) name >>= fun anames ->
    let attrs = List.map (fun an -> Node.attribute an "v") (List.sort_uniq compare anames) in
    return (Node.element nm ~attrs ~children)
  in
  elem 4 >>= fun root ->
  let d = Node.document [ root ] in
  Node.renumber d;
  return d

let prop_loader_matches_build =
  QCheck.Test.make ~name:"the loader's index equals the lazy build on random trees" ~count:200
    (QCheck.make ~print:(fun d -> Xqc.Serializer.node_to_string d) xml_tree_gen)
    (fun d ->
      match loader_vs_build (Xqc.Serializer.node_to_string d) with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* One resolver serving context nodes of two trees in turn re-resolves
   on every switch and answers each from its own tree. *)
let test_resolver_switches_roots () =
  with_index (fun () ->
      let d1 = doc () and d2 = big_doc 7 in
      let r = Store.resolver "b" and items = Store.resolver "item" in
      let nodes = Node.descendant_or_self d1 @ Node.descendant_or_self d2 in
      let mixed = List.concat_map (fun n -> [ n; d2; n; d1 ]) nodes in
      List.iter
        (fun n ->
          List.iter
            (fun (r, name) ->
              let walked = walk_descendants n name in
              match Store.descendants r n with
              | Some l when List.length l = List.length walked && List.for_all2 ( == ) walked l -> ()
              | _ -> Alcotest.failf "descendant::%s under nid %d" name n.Node.nid)
            [ (r, "b"); (items, "item") ])
        mixed)

(* -------- renumbering an indexed root -------- *)

(* Server preload: parse, register (a gap renumber), index.  The
   loader's index follows the root to its new nid: nothing is rebuilt
   and the store holds one root. *)
let test_register_keeps_loader_index () =
  with_index (fun () ->
      Store.clear ();
      Xqc.Version.clear ();
      let d = big_doc 3 in
      let builds = counter "index_builds" in
      let nid = d.Node.nid in
      Xqc.Version.register "d" d;
      if d.Node.nid = nid then Alcotest.fail "register did not renumber";
      Alcotest.(check (option int)) "index size" (Some (Node.count_nodes d)) (Store.index_nodes d);
      Alcotest.(check int) "no rebuild" builds (counter "index_builds");
      Alcotest.(check int) "one root" 1 (Store.stats ()).Store.st_roots;
      Alcotest.(check string) "answer" "40" (count_items d "count($d//item)");
      Alcotest.(check int) "still no rebuild" builds (counter "index_builds");
      Xqc.Version.clear ())

(* A plain renumber drops the loader's index: the next query rebuilds,
   answers right, and the store holds one root, not the stale one too. *)
let test_renumber_leaves_one_root () =
  with_index (fun () ->
      Store.clear ();
      let d = big_doc 4 in
      Alcotest.(check int) "loader index" 1 (Store.stats ()).Store.st_roots;
      Node.renumber d;
      Alcotest.(check string) "answer" "40" (count_items d "count($d//item)");
      Alcotest.(check string) "names" "i4 i43"
        (count_items d "string-join(($d//item/name)[position() = (1, last())], ' ')");
      Alcotest.(check int) "one root" 1 (Store.stats ()).Store.st_roots;
      Alcotest.(check (option int)) "counted once" (Some 40) (Store.element_count "item"))

(* -------- which steps read the index -------- *)

(* On a registered (gap-numbered) document a 27-node person spans an
   interval hundreds of ids wide.  Its child and attribute steps scan
   the node's own lists however wide the interval; only the descendant
   step reads the index, once for its one context node. *)
let test_child_and_attribute_steps_scan () =
  with_index (fun () ->
      Xqc.Version.clear ();
      let d =
        Xqc.parse_document ~uri:"auction.xml"
          (Xqc_workload.Xmark.generate_string ~seed:1 ~target_bytes:20_000 ())
      in
      Xqc.Version.register "d" d;
      let check_query q ~hits:expected =
        let walked = with_index ~on:false (fun () -> count_items d q) in
        let h0 = counter "index_hits" in
        let indexed = count_items d q in
        Alcotest.(check int) (q ^ ": index hits") expected (counter "index_hits" - h0);
        Alcotest.(check string) (q ^ ": walked answer") walked indexed;
        if indexed = "" then Alcotest.failf "%s: empty answer" q
      in
      check_query {|$d/site/people/person[@id = "person0"]/name|} ~hits:0;
      check_query "$d//person/@id" ~hits:1;
      Xqc.Version.clear ())

(* A small tree built at run time is walked, with nothing published;
   [index_nodes] indexes it all the same. *)
let test_small_runtime_tree_walks () =
  with_index (fun () ->
      let d = Node.document [ Node.element "r" ~attrs:[] ~children:[ Node.element "b" ~attrs:[] ~children:[] ] ] in
      Node.renumber d;
      let roots = (Store.stats ()).Store.st_roots in
      if Store.descendants (Store.resolver "b") d <> None then Alcotest.fail "small tree indexed lazily";
      if (Store.stats ()).Store.st_roots > roots then Alcotest.fail "small tree published";
      Alcotest.(check (option int)) "explicit index" (Some 3) (Store.index_nodes d);
      match Store.descendants (Store.resolver "b") d with
      | Some [ b ] when Node.name b = Some "b" -> ()
      | _ -> Alcotest.fail "explicitly indexed tree not served")

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
      with_index (fun () ->
          (* a tree this small is walked unless indexed explicitly *)
          ignore (Store.index_nodes d);
          List.for_all
            (fun n ->
              List.for_all
                (fun name ->
                  let walked = walk_descendants n name in
                  match
                    ( Store.descendants (Store.resolver name) n,
                      Store.count_descendants (Store.resolver name) n )
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
          QCheck_alcotest.to_alcotest prop_random_trees;
          Alcotest.test_case "resolver switches roots" `Quick test_resolver_switches_roots;
          Alcotest.test_case "child and attribute steps scan" `Quick
            test_child_and_attribute_steps_scan;
          Alcotest.test_case "small run-time tree walks" `Quick test_small_runtime_tree_walks;
        ] );
      ( "loader",
        [
          Alcotest.test_case "loader index = lazy build" `Quick test_loader_matches_build;
          QCheck_alcotest.to_alcotest prop_loader_matches_build;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "renumber invalidates" `Quick
            test_renumber_invalidates;
          Alcotest.test_case "copy is independent" `Quick test_copy_is_independent;
          Alcotest.test_case "patch insert runs no minor GC" `Quick
            test_patch_insert_no_minor_gc;
          Alcotest.test_case "constructed trees" `Quick test_constructed_trees;
          Alcotest.test_case "unindexable tree refused" `Quick
            test_unindexable_tree;
          Alcotest.test_case "register keeps the loader index" `Quick
            test_register_keeps_loader_index;
          Alcotest.test_case "renumber leaves one root" `Quick
            test_renumber_leaves_one_root;
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
