(* The update subsystem: XQUF parsing/application, incremental index
   maintenance, and MVCC snapshot isolation.

   The load-bearing property: applying a random update script to a
   live gap-numbered tree — patching its structural indexes in place —
   must be observationally identical to reparsing the updated bytes and
   rebuilding everything from scratch, for every execution strategy,
   with and without the name index.  Separate units pin XQUF apply
   order, conflict detection, and that readers pinned to a snapshot
   never observe a concurrent writer. *)

let counter name =
  match List.assoc_opt name (Xqc.Obs.global_counters ()) with
  | Some v -> v
  | None -> 0

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let serialize_tree (n : Xqc.Node.t) = Xqc.serialize [ Xqc.Item.Node n ]

(* Bind the document the way the server binds preloads: fn:doc under a
   name and the tree as a variable. *)
let make_ctx ~var root =
  let ctx = Xqc.context () in
  Xqc.bind_document ctx (var ^ ".xml") root;
  Xqc.bind_variable ctx var [ Xqc.Item.Node root ];
  ctx

let run_probe ~strategy root q =
  Xqc.serialize (Xqc.run (Xqc.prepare ~strategy q) (make_ctx ~var:"db" root))

(* -------- random documents and scripts -------- *)

(* Every generated document has >= 3 persons and >= 2 log entries, so
   scripts indexing person [1..3] and entry [1..2] always resolve. *)
let doc_gen : string QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 3 6 >>= fun np ->
  int_range 2 5 >>= fun ne ->
  oneofl [ "ada"; "bob"; "cleo" ] >>= fun name ->
  let persons =
    List.init np (fun i ->
        Printf.sprintf
          {|<person id="p%d"><name>%s%d</name><age>%d</age></person>|} (i + 1)
          name (i + 1)
          (20 + i))
  in
  let entries =
    List.init ne (fun i -> Printf.sprintf {|<entry n="%d"/>|} (i + 1))
  in
  return
    (Printf.sprintf "<db><people>%s</people><log>%s</log></db>"
       (String.concat "" persons)
       (String.concat "" entries))

let stmt_gen : string QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 1 3 >>= fun k ->
  int_range 1 2 >>= fun j ->
  int_range 0 999 >>= fun i ->
  oneofl
    [
      Printf.sprintf "insert node <note>t%d</note> into ($db//person)[%d]" i k;
      Printf.sprintf
        "insert node <person id=\"pn%d\"><name>first</name></person> as first \
         into $db/db/people"
        i;
      Printf.sprintf
        "insert node <person id=\"pl%d\"><name>last</name></person> as last \
         into $db/db/people"
        i;
      Printf.sprintf "insert node <entry n=\"b%d\"/> before ($db//entry)[%d]" i j;
      Printf.sprintf "insert node <entry n=\"a%d\"/> after ($db//entry)[%d]" i j;
      Printf.sprintf "delete node ($db//entry)[%d]" j;
      Printf.sprintf "delete nodes ($db//age)[%d]" k;
      Printf.sprintf
        "replace node ($db//person)[%d] with <person \
         id=\"pr%d\"><name>rep</name></person>"
        k i;
      Printf.sprintf "replace value of node ($db//name)[%d] with \"v%d\"" k i;
      Printf.sprintf "rename node ($db//person)[%d] as \"member\"" k;
      Printf.sprintf "rename node ($db//entry)[%d] as \"row\"" j;
    ]

let script_gen : string QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 1 4 >>= fun n ->
  list_repeat n stmt_gen >>= fun stmts -> return (String.concat ",\n" stmts)

(* Probes chosen to exercise the name index but
   stay insensitive to text-node merging (the one place the in-place
   tree may differ structurally from its reparse: XQUF-adjacent text
   nodes are kept separate, which serializes identically). *)
let probes =
  [
    "count($db//*)";
    "count($db//@*)";
    "string($db)";
    "count($db//person) + count($db//member)";
    "for $p in $db//person return string($p/name)";
  ]

(* Apply [script] to a live gap-numbered (and optionally indexed) tree,
   then probe it; reference answers come from a from-scratch reparse of
   the updated bytes. *)
let apply_and_probe ~strategy ~index xml script =
  let prep root =
    Xqc.Node.renumber_gapped root;
    if index then ignore (Xqc.Store.index_nodes root)
  in
  let root = Xqc.parse_document ~uri:"db.xml" xml in
  prep root;
  match
    let compiled = Xqc.Update.compile ~strategy script in
    Xqc.Update.apply_to_root compiled ~make_ctx:(make_ctx ~var:"db") root
  with
  | exception Xqc.Error m -> Error m
  | _applied ->
      let bytes = serialize_tree root in
      let incr = List.map (run_probe ~strategy root) probes in
      let fresh = Xqc.parse_document ~uri:"db.xml" bytes in
      prep fresh;
      let reference = List.map (run_probe ~strategy fresh) probes in
      Ok (bytes, incr, reference)

let combos =
  List.concat_map (fun s -> [ (s, false); (s, true) ]) Xqc.all_strategies

let combo_name (s, index) =
  Printf.sprintf "%s/%s" (Xqc.strategy_name s)
    (if index then "indexed" else "plain")

let prop_incremental_equals_reparse (xml, script) =
  let results =
    List.map
      (fun (s, index) -> ((s, index), apply_and_probe ~strategy:s ~index xml script))
      combos
  in
  (* each combo agrees with its own from-scratch reparse *)
  List.iter
    (fun (c, r) ->
      match r with
      | Error _ -> ()
      | Ok (_, incr, reference) ->
          if incr <> reference then
            QCheck.Test.fail_reportf
              "[%s] incremental probes diverge from reparse\nscript:\n%s\n\
               incremental: %s\nreparse:     %s"
              (combo_name c) script
              (String.concat " | " incr)
              (String.concat " | " reference))
    results;
  (* and all combos agree with each other: same bytes, same answers,
     same error-ness (messages may differ across evaluators) *)
  (match results with
  | ((c0, r0) : _ * _) :: rest ->
      List.iter
        (fun (c, r) ->
          match (r0, r) with
          | Ok (b0, i0, _), Ok (b, i, _) ->
              if b0 <> b then
                QCheck.Test.fail_reportf
                  "[%s] vs [%s]: updated bytes diverge\nscript:\n%s\n%s\nvs\n%s"
                  (combo_name c0) (combo_name c) script b0 b;
              if i0 <> i then
                QCheck.Test.fail_reportf
                  "[%s] vs [%s]: probe answers diverge\nscript:\n%s"
                  (combo_name c0) (combo_name c) script
          | Error _, Error _ -> ()
          | Ok _, Error m ->
              QCheck.Test.fail_reportf
                "[%s] succeeded but [%s] failed (%s)\nscript:\n%s"
                (combo_name c0) (combo_name c) m script
          | Error m, Ok _ ->
              QCheck.Test.fail_reportf
                "[%s] failed (%s) but [%s] succeeded\nscript:\n%s"
                (combo_name c0) m (combo_name c) script)
        rest
  | [] -> ());
  true

let test_incremental_equals_reparse =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:
         "random scripts: incremental maintenance = from-scratch reparse, all \
          strategies x index"
       ~count:40
       (QCheck.make QCheck.Gen.(pair doc_gen script_gen))
       prop_incremental_equals_reparse)

(* -------- units: parsing, ordering, conflicts -------- *)

let apply_script ?(strategy = Xqc.Optimized) xml script =
  let root = Xqc.parse_document ~uri:"d.xml" xml in
  Xqc.Node.renumber_gapped root;
  ignore (Xqc.Store.index_nodes root);
  let c = Xqc.Update.compile ~strategy script in
  let n = Xqc.Update.apply_to_root c ~make_ctx:(make_ctx ~var:"d") root in
  (n, serialize_tree root)

let check_script msg xml script expected =
  let _, out = apply_script xml script in
  Alcotest.(check string) msg expected out

let test_basic_forms () =
  check_script "insert into" "<r><a/></r>" "insert node <b/> into $d/r"
    "<r><a/><b/></r>";
  check_script "insert as first" "<r><a/></r>"
    "insert node <b/> as first into $d/r" "<r><b/><a/></r>";
  check_script "insert before" "<r><a/><c/></r>"
    "insert node <b/> before ($d/r/c)[1]" "<r><a/><b/><c/></r>";
  check_script "insert after" "<r><a/><c/></r>"
    "insert node <b/> after ($d/r/a)[1]" "<r><a/><b/><c/></r>";
  check_script "delete" "<r><a/><b/></r>" "delete node ($d/r/a)[1]" "<r><b/></r>";
  check_script "replace node" "<r><a/></r>"
    "replace node ($d/r/a)[1] with <b>x</b>" "<r><b>x</b></r>";
  check_script "replace value (text)" "<r><a>old</a></r>"
    "replace value of node ($d/r/a/text())[1] with \"new\"" "<r><a>new</a></r>";
  check_script "replace element content" "<r><a><x/><y/></a></r>"
    "replace value of node ($d/r/a)[1] with \"flat\"" "<r><a>flat</a></r>";
  check_script "rename element" "<r><a>v</a></r>"
    "rename node ($d/r/a)[1] as \"b\"" "<r><b>v</b></r>";
  check_script "rename attribute" {|<r><a k="1"/></r>|}
    "rename node ($d/r/a/@k)[1] as \"m\"" {|<r><a m="1"/></r>|};
  check_script "replace attribute value" {|<r><a k="1"/></r>|}
    "replace value of node ($d/r/a/@k)[1] with \"9\"" {|<r><a k="9"/></r>|}

let test_xquf_order () =
  (* every target resolves against the admission snapshot, and inserts
     apply before deletes: the insert lands inside the subtree the
     delete then removes *)
  check_script "insert applies before delete of its target" "<r><x><a/></x></r>"
    "delete node ($d/r/x)[1], insert node <y/> into ($d/r/x)[1]" "<r/>";
  (* before/after anchors may themselves be deleted in the same script *)
  check_script "insert after a deleted anchor" "<r><a/></r>"
    "insert node <n/> after ($d/r/a)[1], delete node ($d/r/a)[1]" "<r><n/></r>";
  (* rename sees the snapshot name, not the replaced content *)
  check_script "replace + sibling rename" "<r><a/><b/></r>"
    "replace node ($d/r/a)[1] with <c/>, rename node ($d/r/b)[1] as \"z\""
    "<r><c/><z/></r>"

let test_detached_subtree_primitives () =
  (* Regression: primitives may legally target nodes inside a subtree an
     earlier primitive of the same list detached (targets are snapshot
     nodes).  Their nids are stale — replace node reuses the freed
     interval for its new content — so letting them patch the live
     per-name arrays strips whichever live nodes now own that interval
     (the all-elements count undercounts while the bytes stay right). *)
  let xml =
    "<db><p id=\"1\"><name>a</name><age>1</age></p>\
     <p id=\"2\"><name>b</name><age>2</age></p>\
     <p id=\"3\"><name>c</name><age>3</age></p></db>"
  in
  let root = Xqc.parse_document ~uri:"d.xml" xml in
  Xqc.Node.renumber_gapped root;
  ignore (Xqc.Store.index_nodes root);
  let script =
    "replace node ($d//p)[3] with <p id=\"r\"><name>rep</name></p>,\n\
     delete nodes ($d//age)[3],\n\
     replace value of node ($d//name)[3] with \"dead\",\n\
     rename node ($d//p)[3] as \"q\""
  in
  let c = Xqc.Update.compile script in
  ignore (Xqc.Update.apply_to_root c ~make_ctx:(make_ctx ~var:"d") root);
  let bytes = serialize_tree root in
  Alcotest.(check string)
    "only the replace is visible"
    "<db><p id=\"1\"><name>a</name><age>1</age></p><p id=\"2\"><name>b</name>\
     <age>2</age></p><p id=\"r\"><name>rep</name></p></db>"
    bytes;
  let fresh = Xqc.parse_document ~uri:"d.xml" bytes in
  Xqc.Node.renumber_gapped fresh;
  ignore (Xqc.Store.index_nodes fresh);
  List.iter
    (fun q ->
      List.iter
        (fun strategy ->
          let probe r =
            Xqc.serialize (Xqc.run (Xqc.prepare ~strategy q) (make_ctx ~var:"d" r))
          in
          Alcotest.(check string)
            (Printf.sprintf "%s under %s matches reparse" q
               (Xqc.strategy_name strategy))
            (probe fresh) (probe root))
        [ Xqc.No_algebra; Xqc.Saxon_like; Xqc.Optimized ])
    [ "count($d//*)"; "count($d/db/p[3]//*)"; "count($d//name)"; "count($d//q)" ]

let test_conflicts () =
  let conflicts = counter "update_conflicts" in
  (match
     apply_script "<r><a>v</a></r>"
       "rename node ($d/r/a)[1] as \"b\", rename node ($d/r/a)[1] as \"c\""
   with
  | exception Xqc.Error m ->
      Alcotest.(check bool)
        "conflict error mentions the class" true (contains ~sub:"rename" m)
  | _ -> Alcotest.fail "duplicate rename must be rejected");
  (match
     apply_script "<r><a>v</a></r>"
       "replace value of node ($d/r/a)[1] with \"x\", replace value of node \
        ($d/r/a)[1] with \"y\""
   with
  | exception Xqc.Error _ -> ()
  | _ -> Alcotest.fail "duplicate replace value must be rejected");
  Alcotest.(check bool)
    "update_conflicts counted" true
    (counter "update_conflicts" >= conflicts + 2);
  (* deleting the same node twice is allowed by XQUF *)
  let _, out =
    apply_script "<r><a/><b/></r>"
      "delete node ($d/r/a)[1], delete node ($d/r/a)[1]"
  in
  Alcotest.(check string) "double delete is idempotent" "<r><b/></r>" out

let test_target_validation () =
  let expect_error msg xml script =
    match apply_script xml script with
    | exception Xqc.Error _ -> ()
    | _ -> Alcotest.fail msg
  in
  expect_error "insert into a text node" "<r>t</r>"
    "insert node <x/> into ($d/r/text())[1]";
  expect_error "replace the root element (no parent)" "<r/>"
    "replace node $d/r/.. with <x/>";
  expect_error "insert before a parentless node" "<r/>"
    "insert node <x/> before $d";
  expect_error "rename to an empty name" "<r><a/></r>"
    "rename node ($d/r/a)[1] as \"\"";
  expect_error "multi-node target for replace" "<r><a/><a/></r>"
    "replace node $d/r/a with <b/>"

(* -------- incremental maintenance under pressure -------- *)

let test_gap_exhaustion_renumbers () =
  let root = Xqc.parse_document ~uri:"g.xml" "<r><seed/></r>" in
  Xqc.Node.renumber_gapped root;
  ignore (Xqc.Store.index_nodes root);
  let renumbers = counter "full_renumbers" in
  let patches = counter "incremental_index_patches" in
  let c = Xqc.Update.compile "insert node <x/> as first into $d/r" in
  for _ = 1 to 60 do
    ignore (Xqc.Update.apply_to_root c ~make_ctx:(make_ctx ~var:"d") root)
  done;
  (* prepends drain the head gap; the fallback renumber must have fired
     at least once, and the cheap path must have carried most inserts *)
  Alcotest.(check bool)
    "full renumber fell back" true
    (counter "full_renumbers" > renumbers);
  Alcotest.(check bool)
    "incremental patches dominated" true
    (counter "incremental_index_patches" - patches > 30);
  Alcotest.(check string)
    "indexed count survives renumbering" "60"
    (run_probe ~strategy:Xqc.Saxon_like root "count($db//x)");
  Alcotest.(check string)
    "first child is the newest insert" "true"
    (run_probe ~strategy:Xqc.Optimized root "name(($db/r/*)[1]) = \"x\"")

(* The planner's per-name counts must stay exact under in-place
   patches: after an insert, a delete and a rename they equal what a
   fresh index of the reparsed bytes reports. *)
let test_patched_counts_exact () =
  let persons =
    List.init 20 (fun i ->
        Printf.sprintf {|<person id="p%d"><name>n%d</name><age>%d</age></person>|} i i i)
  in
  let xml = "<db><people>" ^ String.concat "" persons ^ "</people></db>" in
  let counts () =
    let st = Xqc.Store.stats () in
    List.map (fun n -> ("element " ^ n, Xqc.Store.element_count n))
      [ "db"; "people"; "person"; "member"; "name"; "age"; "*" ]
    @ List.map (fun n -> ("attribute " ^ n, Xqc.Store.attribute_count n)) [ "id"; "key" ]
    @ [ ("roots", Some st.Xqc.Store.st_roots); ("nodes", Some st.Xqc.Store.st_nodes) ]
  in
  let indexed bytes =
    Xqc.Store.clear ();
    let root = Xqc.parse_document ~uri:"d.xml" bytes in
    Xqc.Node.renumber_gapped root;
    ignore (Xqc.Store.index_nodes root);
    root
  in
  let root = indexed xml in
  let patches = counter "incremental_index_patches" in
  let renumbers = counter "full_renumbers" in
  let c =
    Xqc.Update.compile
      "insert node <person id=\"new\"><name>x</name></person> into $d/db/people,\n\
       delete node ($d//age)[1],\n\
       rename node ($d//person)[2] as \"member\",\n\
       rename node ($d//person)[3]/@id as \"key\""
  in
  ignore (Xqc.Update.apply_to_root c ~make_ctx:(make_ctx ~var:"d") root);
  Alcotest.(check int) "no full renumber" renumbers (counter "full_renumbers");
  Alcotest.(check bool) "all four patched in place" true
    (counter "incremental_index_patches" - patches >= 4);
  let patched = counts () in
  let fresh = indexed (serialize_tree root) in
  Alcotest.(check (list (pair string (option int))))
    "patched counts = reparse counts" (counts ()) patched;
  ignore (Sys.opaque_identity fresh)

(* -------- MVCC snapshot isolation -------- *)

let test_mvcc_snapshot () =
  Xqc.Version.clear ();
  let root = Xqc.parse_document ~uri:"v" "<r><a/></r>" in
  Xqc.Version.register "v" root;
  ignore (Xqc.Store.index_nodes root);
  Alcotest.(check int) "one live version" 1 (Xqc.Version.live_versions ());
  (* no admitted readers: the writer patches the head in place *)
  let r1 = Xqc.Update.execute ~uri:"v" "insert node <b/> into doc(\"v\")/r" in
  Alcotest.(check bool) "in place without readers" true r1.Xqc.Update.u_in_place;
  (* a pinned reader forces the next writer onto the copy path *)
  let v1 = Option.get (Xqc.Version.pin "v") in
  let before = serialize_tree v1.Xqc.Version.v_root in
  let r2 = Xqc.Update.execute ~uri:"v" "insert node <c/> into doc(\"v\")/r" in
  Alcotest.(check bool) "copy path under a reader" false r2.Xqc.Update.u_in_place;
  Alcotest.(check string)
    "pinned snapshot unchanged" before
    (serialize_tree v1.Xqc.Version.v_root);
  Alcotest.(check int) "old + new live" 2 (Xqc.Version.live_versions ());
  (* the new head has the write the snapshot does not *)
  let v2 = Option.get (Xqc.Version.pin "v") in
  Alcotest.(check string)
    "new head sees the write" "<r><a/><b/><c/></r>"
    (serialize_tree v2.Xqc.Version.v_root);
  Alcotest.(check bool) "distinct versions" true (v1 != v2);
  Xqc.Version.unpin "v" v2;
  Xqc.Version.unpin "v" v1;
  Alcotest.(check int)
    "retired snapshot purged at last unpin" 1
    (Xqc.Version.live_versions ());
  Xqc.Version.clear ()

let test_generation_bumps () =
  Xqc.Version.clear ();
  let root = Xqc.parse_document ~uri:"g" "<r/>" in
  Xqc.Version.register "g" root;
  let g0 = Xqc.Version.generation () in
  ignore (Xqc.Update.execute ~uri:"g" "insert node <a/> into doc(\"g\")/r");
  Alcotest.(check bool)
    "generation advances on publish" true
    (Xqc.Version.generation () > g0);
  Xqc.Version.clear ()

(* Three readers race a writer: within one pin, the tree's bytes must
   never change, and every observed state must be one the writer
   actually published (a prefix of the insert sequence). *)
let test_racing_readers () =
  Xqc.Version.clear ();
  let root = Xqc.parse_document ~uri:"w" "<log/>" in
  Xqc.Version.register "w" root;
  let stop = Atomic.make false in
  let torn = Atomic.make 0 in
  let observed_bad = Atomic.make 0 in
  let reader () =
    while not (Atomic.get stop) do
      (match Xqc.Version.pin "w" with
      | None -> Atomic.incr torn
      | Some v ->
          let a = serialize_tree v.Xqc.Version.v_root in
          Thread.yield ();
          let b = serialize_tree v.Xqc.Version.v_root in
          if not (String.equal a b) then Atomic.incr torn;
          (* entries are only ever appended in order 1..n, so every
             legally-observable snapshot is exactly a prefix *)
          let entries = ref 0 in
          String.iter (fun ch -> if ch = 'e' then incr entries) a;
          (* each <e n="i"/> contributes exactly one 'e' *)
          let expected =
            if !entries = 0 then "<log/>"
            else
              "<log>"
              ^ String.concat ""
                  (List.init !entries (fun i ->
                       Printf.sprintf {|<e n="%d"/>|} (i + 1)))
              ^ "</log>"
          in
          if not (String.equal a expected) then Atomic.incr observed_bad;
          Xqc.Version.unpin "w" v);
      Thread.yield ()
    done
  in
  let readers = List.init 3 (fun _ -> Thread.create reader ()) in
  for i = 1 to 40 do
    ignore
      (Xqc.Update.execute ~uri:"w"
         (Printf.sprintf "insert node <e n=\"%d\"/> as last into doc(\"w\")/log"
            i))
  done;
  Atomic.set stop true;
  List.iter Thread.join readers;
  Alcotest.(check int) "no torn reads" 0 (Atomic.get torn);
  Alcotest.(check int) "only published prefixes seen" 0 (Atomic.get observed_bad);
  let v = Option.get (Xqc.Version.pin "w") in
  Alcotest.(check string)
    "all writes present at the final head" "40"
    (run_probe ~strategy:Xqc.Optimized v.Xqc.Version.v_root "count($db//e)");
  Xqc.Version.unpin "w" v;
  Alcotest.(check int) "single live version" 1 (Xqc.Version.live_versions ());
  Xqc.Version.clear ()

let test_unknown_document () =
  Xqc.Version.clear ();
  match Xqc.Update.execute ~uri:"nope" "delete node doc(\"nope\")/r" with
  | exception Xqc.Error m ->
      Alcotest.(check bool) "names the missing uri" true (contains ~sub:"nope" m)
  | _ -> Alcotest.fail "update against an unregistered uri must fail"

let () =
  Alcotest.run "update"
    [
      ( "equivalence",
        [ test_incremental_equals_reparse ] );
      ( "xquf",
        [
          Alcotest.test_case "basic forms" `Quick test_basic_forms;
          Alcotest.test_case "apply order" `Quick test_xquf_order;
          Alcotest.test_case "detached-subtree primitives" `Quick
            test_detached_subtree_primitives;
          Alcotest.test_case "conflicts" `Quick test_conflicts;
          Alcotest.test_case "target validation" `Quick test_target_validation;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "gap exhaustion renumbers" `Quick
            test_gap_exhaustion_renumbers;
          Alcotest.test_case "patched counts exact" `Quick
            test_patched_counts_exact;
        ] );
      ( "mvcc",
        [
          Alcotest.test_case "snapshot isolation" `Quick test_mvcc_snapshot;
          Alcotest.test_case "generation bumps" `Quick test_generation_bumps;
          Alcotest.test_case "racing readers" `Quick test_racing_readers;
          Alcotest.test_case "unknown document" `Quick test_unknown_document;
        ] );
    ]
