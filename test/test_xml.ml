(* XML data model, parser and serializer. *)

module N = Xqc.Node
module P = Xqc.Xml_parser
module S = Xqc.Serializer
module I = Xqc.Item

let parse s = P.parse_string s
let roundtrip s = S.node_to_string (parse s)

let check = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_parse_simple () =
  check "element with text" "<a>hi</a>" (roundtrip "<a>hi</a>");
  check "nested" "<a><b/><c>x</c></a>" (roundtrip "<a><b/><c>x</c></a>");
  check "attributes" {|<a x="1" y="two"/>|} (roundtrip {|<a x="1" y="two"/>|});
  check "single-quoted attrs normalize" {|<a x="1"/>|} (roundtrip "<a x='1'/>")

let test_entities () =
  check "predefined entities" "<a>a&lt;b&amp;c&gt;d</a>"
    (roundtrip "<a>a&lt;b&amp;c&gt;d</a>");
  check "quote entities decode" {|<a q="say &quot;hi&quot;"/>|}
    (roundtrip "<a q='say &quot;hi&quot;'/>");
  check "numeric char ref" "<a>A</a>" (roundtrip "<a>&#65;</a>");
  check "hex char ref" "<a>A</a>" (roundtrip "<a>&#x41;</a>")

let test_misc_nodes () =
  check "comment kept" "<a><!--note--></a>" (roundtrip "<a><!--note--></a>");
  check "pi kept" "<a><?target data?></a>" (roundtrip "<a><?target data?></a>");
  check "cdata becomes text" "<a>1 &lt; 2</a>" (roundtrip "<a><![CDATA[1 < 2]]></a>");
  check "xml decl skipped" "<a/>" (roundtrip "<?xml version=\"1.0\"?><a/>");
  check "doctype skipped" "<a/>" (roundtrip "<!DOCTYPE a><a/>")

let parse_error s =
  match P.parse_string s with
  | exception P.Parse_error _ -> true
  | _ -> false

let test_parse_errors () =
  check_bool "mismatched tags" true (parse_error "<a></b>");
  check_bool "unterminated" true (parse_error "<a>");
  check_bool "no root" true (parse_error "just text");
  check_bool "bad entity" true (parse_error "<a>&nosuch;</a>");
  check_bool "trailing garbage" true (parse_error "<a/><b/>...")

(* Character references follow XML's CharRef grammar, denote only XML
   Chars, and encode as UTF-8 (4 bytes above U+FFFF); anything else is a
   Parse_error, never another exception. *)
let test_char_refs () =
  let text s = N.string_value (parse ("<a>" ^ s ^ "</a>")) in
  check "decimal" "A" (text "&#65;");
  check "hex" "A" (text "&#x41;");
  check "two bytes" "\xC3\xA9" (text "&#233;");
  check "astral plane" "\xF0\x9F\x98\x80" (text "&#x1F600;");
  check "last code point" "\xF4\x8F\xBF\xBF" (text "&#x10FFFF;");
  check "tab is a Char" "\t" (text "&#9;");
  check "in attribute" "x\xF0\x9F\x98\x80y"
    (match N.attributes (List.hd (N.children (parse "<a v='x&#128512;y'/>"))) with
    | [ a ] -> N.string_value a
    | _ -> Alcotest.fail "one attribute");
  List.iter
    (fun r -> check_bool r true (parse_error ("<a>" ^ r ^ "</a>")))
    [ "&#-5;"; "&#x110000;"; "&#99999999999;"; "&#99999999999999999999999;";
      "&#+65;"; "&#0x41;"; "&#1_0_0;"; "&#0;"; "&#X41;"; "&#;"; "&#x;";
      "&#xD800;"; "&#xFFFE;"; "&#8;"; "&#65"; "&#65 ;"; "&;"; "& b" ]

let test_document_level () =
  check_bool "text after root" true (parse_error "<a/>junk");
  check_bool "text before root" true (parse_error "junk<a/>");
  check_bool "CDATA after root" true (parse_error "<a/><![CDATA[x]]>");
  check_bool "reference after root" true (parse_error "<a/>&amp;");
  check_bool "second root" true (parse_error "<a/><b/>");
  check_bool "end tag outside root" true (parse_error "<a/></a>");
  check_bool "late XML declaration" true (parse_error "<a><?xml version='1.0'?></a>");
  check_bool "duplicate attribute" true (parse_error "<a x='1' x='2'/>");
  check_bool "duplicate attribute, not adjacent" true (parse_error "<a x='1' y='2' x='3'/>");
  check_bool "attributes need whitespace between" true (parse_error "<a x='1'y='2'/>");
  check_bool "'<' in attribute value" true (parse_error "<a x='<'/>");
  check_bool "unterminated" true (parse_error "<a><b></b>");
  check_bool "empty" true (parse_error "");
  check_bool "whitespace only" true (parse_error " \n ");
  let kinds s =
    String.concat "," (List.map (fun n -> N.kind_name (N.kind n)) (N.children (parse s)))
  in
  check "prolog and epilog whitespace dropped" "element"
    (kinds "<?xml version=\"1.0\"?>\n<a> </a>\n\n");
  check "prolog comment and PI kept" "comment,processing-instruction,element,comment"
    (kinds "<!--c-->\n<?xml-stylesheet href='s'?>\n<a/>\n<!--d-->");
  check "DOCTYPE with internal subset skipped" "<a/>"
    (roundtrip "<!DOCTYPE a [ <!ELEMENT a EMPTY> <!ATTLIST a x CDATA '>'> ]>\n<a/>");
  check "whitespace inside the root kept" "<a> <b/> </a>" (roundtrip "<a> <b/> </a>");
  check "same attribute name on two elements" {|<a x="1"><b x="2"/></a>|}
    (roundtrip "<a x='1'><b x='2'/></a>")

(* The parser keeps no recursion per nesting level. *)
let test_deep_nesting () =
  let depth = 200_000 in
  let b = Buffer.create (depth * 7) in
  for _ = 1 to depth do Buffer.add_string b "<a>" done;
  for _ = 1 to depth do Buffer.add_string b "</a>" done;
  let doc = parse (Buffer.contents b) in
  check_int "document extent" (depth + 1) doc.N.extent;
  check_bool "unclosed deep nesting is an error" true
    (parse_error (String.concat "" (List.init depth (fun _ -> "<a>"))))

(* ------------------------------------------------------------------ *)
(* Loader invariants                                                   *)
(* ------------------------------------------------------------------ *)

(* Walk [doc] in preorder (attributes before children) checking what
   [N.renumber] would establish: ids consecutive from [doc.nid], each
   subtree occupying [nid, nid + extent), and parent links matching the
   walk.  Returns the node count. *)
let check_numbering doc =
  let next = ref doc.N.nid in
  let rec walk parent n =
    if n.N.nid <> !next then Alcotest.failf "id %d where %d was due" n.N.nid !next;
    (match (parent, n.N.parent) with
    | None, None -> ()
    | Some p, Some q when p == q -> ()
    | _ -> Alcotest.failf "wrong parent link at id %d" n.N.nid);
    incr next;
    List.iter (walk (Some n)) (N.attributes n);
    List.iter (walk (Some n)) (N.children n);
    if n.N.nid + n.N.extent <> !next then
      Alcotest.failf "extent %d of id %d does not cover its subtree" n.N.extent n.N.nid
  in
  walk None doc;
  !next - doc.N.nid

(* The parsed tree and a renumbered copy of it, walked in lockstep:
   relative ids, extents and parent links agree. *)
let check_like_renumber doc =
  let copy = N.copy doc in
  N.renumber copy;
  let rel root n = n.N.nid - root.N.nid in
  let rec walk a b =
    check_int "relative id" (rel copy b) (rel doc a);
    check_int "extent" b.N.extent a.N.extent;
    (match (a.N.parent, b.N.parent) with
    | None, None -> ()
    | Some p, Some q -> check_int "parent's relative id" (rel copy q) (rel doc p)
    | _ -> Alcotest.fail "parent link present on one side only");
    List.iter2 walk (N.attributes a) (N.attributes b);
    List.iter2 walk (N.children a) (N.children b)
  in
  walk doc copy

let generated =
  List.concat_map
    (fun seed ->
      List.map
        (fun bytes ->
          [ (Printf.sprintf "xmark seed %d, %d B" seed bytes,
             Xqc_workload.Xmark.generate_string ~seed ~target_bytes:bytes ());
            (Printf.sprintf "clio seed %d, %d B" seed bytes,
             Xqc_workload.Clio.generate_string ~seed ~target_bytes:bytes ()) ])
        [ 2_000; 30_000; 120_000 ]
      |> List.concat)
    [ 1; 7; 42 ]

let test_numbering_matches_renumber () =
  List.iter
    (fun (what, s) ->
      let doc = parse s in
      check_int (what ^ ": node count") (N.count_nodes doc) (check_numbering doc);
      check_like_renumber doc)
    generated

let test_generated_roundtrip () =
  List.iter (fun (what, s) -> check what s (S.node_to_string (parse s))) generated

(* Documents parsed at once on two domains draw disjoint blocks, each
   internally consecutive. *)
let test_parallel_loads () =
  let s = Xqc_workload.Xmark.generate_string ~seed:3 ~target_bytes:200_000 () in
  for _ = 1 to 3 do
    let other = Domain.spawn (fun () -> List.init 4 (fun _ -> parse s)) in
    let mine = List.init 4 (fun _ -> parse s) in
    let docs = mine @ Domain.join other in
    List.iter (fun d -> ignore (check_numbering d)) docs;
    let intervals =
      List.sort compare (List.map (fun d -> (d.N.nid, d.N.nid + d.N.extent)) docs)
    in
    let rec disjoint = function
      | (_, hi) :: ((lo, _) :: _ as rest) -> hi <= lo && disjoint rest
      | _ -> true
    in
    check_bool "disjoint intervals" true (disjoint intervals)
  done

(* Mutants of a small XMark document parse to a well-numbered tree or
   fail with Parse_error — never another exception. *)
let fuzz_base = Xqc_workload.Xmark.generate_string ~seed:5 ~target_bytes:3_000 ()

let gen_mutant : string QCheck.arbitrary =
  let open QCheck.Gen in
  let n = String.length fuzz_base in
  let insert s =
    int_bound n >|= fun i -> String.sub fuzz_base 0 i ^ s ^ String.sub fuzz_base i (n - i)
  in
  let mutation =
    oneof
      [ (int_bound (n - 1) >>= fun i ->
         char >|= fun c -> String.mapi (fun j x -> if i = j then c else x) fuzz_base);
        (int_bound n >|= fun i -> String.sub fuzz_base 0 i);
        (oneofl [ "<"; "&"; "]]>"; "&#"; "&#x1F600;"; "&#-5;"; "&#x110000;"; "&#65;";
                  "&amp"; "</"; "<!--"; "<![CDATA["; "<?"; " x='1'"; "\"" ]
         >>= insert) ]
  in
  QCheck.make ~print:(fun s -> s) mutation

let prop_fuzz_loader =
  QCheck.Test.make ~name:"mutated XMark: numbered tree or Parse_error" ~count:300
    gen_mutant (fun s ->
      match P.parse_string s with
      | exception P.Parse_error _ -> true
      | doc -> check_numbering doc = N.count_nodes doc)

let test_string_value () =
  let doc = parse "<a>one<b>two<c>three</c></b><!--x-->four</a>" in
  check "concatenated descendant text" "onetwothreefour" (N.string_value doc)

let test_document_order () =
  let doc = parse "<a><b/><c><d/></c><e/></a>" in
  let names =
    List.filter_map N.name (N.descendants doc) |> String.concat ","
  in
  check "descendants preorder" "a,b,c,d,e" names;
  let all = N.descendants doc in
  check_bool "ids strictly ascend" true
    (let rec asc = function
       | a :: (b :: _ as rest) -> a.N.nid < b.N.nid && asc rest
       | _ -> true
     in
     asc all)

let test_axes () =
  let doc = parse "<a><b><c/><d/></b><e/></a>" in
  let find name =
    List.find (fun n -> N.name n = Some name) (N.descendants doc)
  in
  let c = find "c" and b = find "b" and d = find "d" in
  check_bool "parent" true (N.parent c == Some b |> fun _ -> Option.get (N.parent c) == b);
  check "ancestors" "b,a"
    (String.concat "," (List.filter_map N.name (List.filter (fun n -> N.name n <> None) (N.ancestors c))));
  check "following siblings of c" "d"
    (String.concat "," (List.filter_map N.name (N.following_siblings c)));
  check "preceding siblings of d" "c"
    (String.concat "," (List.filter_map N.name (N.preceding_siblings d)))

let test_copy_fresh_ids () =
  let doc = parse "<a><b x=\"1\">t</b></a>" in
  let copy = N.copy doc in
  check "copy serializes identically" (S.node_to_string doc) (S.node_to_string copy);
  check_bool "copy has fresh ids" true (copy.N.nid <> doc.N.nid);
  check_bool "deep ids fresh" true
    (List.for_all2 (fun a b -> a.N.nid <> b.N.nid) (N.descendants doc) (N.descendants copy))

let test_typed_value () =
  let doc = parse "<a>42</a>" in
  (match N.typed_value doc with
  | Xqc.Atomic.Untyped "42" -> ()
  | other -> Alcotest.failf "expected untyped 42, got %s" (Xqc.Atomic.to_string other));
  let elem = List.hd (N.children doc) in
  N.set_type_annotation elem (Some "xs:integer");
  match N.typed_value elem with
  | Xqc.Atomic.Integer 42 -> ()
  | other -> Alcotest.failf "expected integer 42, got %s" (Xqc.Atomic.to_string other)

let test_sort_doc_order () =
  let doc = parse "<a><b/><c/></a>" in
  let kids = N.children doc |> List.hd |> N.children in
  let shuffled = List.rev kids @ kids in
  let sorted = N.sort_doc_order shuffled in
  check_int "dedup" 2 (List.length sorted);
  check "order" "b,c" (String.concat "," (List.filter_map N.name sorted))

let test_sorted_fast_path () =
  let doc = parse "<a><b/><c/><d/></a>" in
  let kids = N.children doc |> List.hd |> N.children in
  (* detector: both answers *)
  check_bool "sorted detected" true (N.is_doc_sorted_uniq kids);
  check_bool "empty is sorted" true (N.is_doc_sorted_uniq []);
  check_bool "singleton is sorted" true (N.is_doc_sorted_uniq [ List.hd kids ]);
  check_bool "reversal detected" false (N.is_doc_sorted_uniq (List.rev kids));
  check_bool "duplicate detected" false
    (N.is_doc_sorted_uniq (List.hd kids :: kids));
  (* fast path: already-sorted input comes back as the same list, no
     copy; the slow path still sorts and dedups *)
  check_bool "sorted input returned as-is" true (N.sort_doc_order kids == kids);
  check "slow path sorts" "b,c,d"
    (String.concat "," (List.filter_map N.name (N.sort_doc_order (List.rev kids))))

let test_descendants_seq () =
  let doc = parse "<a><b><c/></b><d/></a>" in
  let strict = N.descendants doc in
  check "lazy walk matches strict preorder"
    (String.concat "," (List.filter_map N.name strict))
    (String.concat "," (List.filter_map N.name (List.of_seq (N.descendants_seq doc))));
  check_int "descendant-or-self adds self"
    (1 + List.length strict)
    (Seq.length (N.descendant_or_self_seq doc));
  (* laziness: pulling the head visits one node, not the whole subtree *)
  match N.descendants_seq doc () with
  | Seq.Cons (first, _) -> check "first pull is the first child" "a" (Option.get (N.name first))
  | Seq.Nil -> Alcotest.fail "non-empty walk"

let test_size () =
  let doc = parse "<a x=\"1\"><b/>text</a>" in
  (* document + a + attribute + b + text *)
  check_int "node count" 5 (N.size doc)

let test_sequence_serialization () =
  let s =
    S.sequence_to_string
      [ I.of_int 1; I.of_int 2; I.Node (N.text "x"); I.of_string "y" ]
  in
  check "atoms space separated, nodes adjacent" "1 2xy" s

(* Escaping blits the runs between special bytes: specials at the start,
   in the middle and at the end, adjacent ones, and none at all. *)
let test_escaping () =
  List.iter
    (fun (s, text, attr) ->
      check ("text " ^ s) text (S.node_to_string (N.text s));
      check ("attr " ^ s) ("a=\"" ^ attr ^ "\"") (S.node_to_string (N.attribute "a" s)))
    [
      ("", "", "");
      ("plain run", "plain run", "plain run");
      ("<a", "&lt;a", "&lt;a");
      ("a&b", "a&amp;b", "a&amp;b");
      ("a>", "a&gt;", "a>");
      ("\"q\"", "\"q\"", "&quot;q&quot;");
      ("&<>\"", "&amp;&lt;&gt;\"", "&amp;&lt;>&quot;");
      ("x<y>z&w", "x&lt;y&gt;z&amp;w", "x&lt;y>z&amp;w");
    ]

(* The generators' documents are serialized by [node_to_string]; their
   digests pin the serializer's bytes on whole generated documents. *)
let test_generated_digests () =
  let md5 s = Digest.to_hex (Digest.string s) in
  check "xmark seed 1, 20 KB" "5df82f04d3480f4d69a8d6d2cbcf62cc"
    (md5 (Xqc_workload.Xmark.generate_string ~seed:1 ~target_bytes:20_000 ()));
  check "clio seed 1, 8 KB" "d7791647d61a92d683c3636b5e5ca518"
    (md5 (Xqc_workload.Clio.generate_string ~seed:1 ~target_bytes:8_000 ()))

(* A reference writer, byte by byte into a growing buffer, that the
   exact-size serializer must match on every sequence. *)
let reference_serialize (s : I.sequence) =
  let buf = Buffer.create 16 in
  let escape ~attr v =
    String.iter
      (function
        | '<' -> Buffer.add_string buf "&lt;"
        | '&' -> Buffer.add_string buf "&amp;"
        | '>' when not attr -> Buffer.add_string buf "&gt;"
        | '"' when attr -> Buffer.add_string buf "&quot;"
        | c -> Buffer.add_char buf c)
      v
  in
  let attribute name v =
    Buffer.add_string buf name;
    Buffer.add_string buf "=\"";
    escape ~attr:true v;
    Buffer.add_char buf '"'
  in
  let rec node (n : N.t) =
    match n.N.desc with
    | N.Document d -> List.iter node d.dchildren
    | N.Element e ->
        Buffer.add_string buf ("<" ^ e.ename);
        List.iter
          (fun (a : N.t) ->
            match a.N.desc with
            | N.Attribute at ->
                Buffer.add_char buf ' ';
                attribute at.aname at.avalue
            | _ -> ())
          e.attrs;
        if e.children = [] then Buffer.add_string buf "/>"
        else (
          Buffer.add_char buf '>';
          List.iter node e.children;
          Buffer.add_string buf ("</" ^ e.ename ^ ">"))
    | N.Attribute a -> attribute a.aname a.avalue
    | N.Text t -> escape ~attr:false t
    | N.Comment c -> Buffer.add_string buf ("<!--" ^ c ^ "-->")
    | N.Pi p -> Buffer.add_string buf ("<?" ^ p.target ^ " " ^ p.pdata ^ "?>")
  in
  ignore
    (List.fold_left
       (fun prev_atom it ->
         match it with
         | I.Atom a ->
             if prev_atom then Buffer.add_char buf ' ';
             escape ~attr:false (Xqc.Atomic.to_string a);
             true
         | I.Node n ->
             node n;
             false)
       false s);
  Buffer.contents buf

(* Random sequences of atoms and trees, with every node kind; the text
   pool has every special byte, multi-byte UTF-8 and the empty string. *)
let gen_items : I.sequence QCheck.arbitrary =
  let open QCheck.Gen in
  let value =
    oneofl
      [ ""; "plain"; "1 < 2 & 3 > 0"; "quote\"s"; "it's"; "\xc3\xa9t\xc3\xa9 \xe2\x82\xac"; "<&>\"'"; "&amp;" ]
  in
  let name = oneofl [ "a"; "b"; "item"; "x1" ] in
  let rec tree depth =
    let leaf =
      [
        (3, map N.text value);
        (1, map N.comment value);
        (1, map2 N.pi name value);
        (1, name >>= fun nm -> return (N.element nm ~attrs:[] ~children:[]));
      ]
    in
    if depth = 0 then frequency leaf
    else
      frequency
        (( 3,
           name >>= fun nm ->
           list_size (int_bound 3) (tree (depth - 1)) >>= fun children ->
           list_size (int_bound 2) (pair (oneofl [ "p"; "q" ]) value) >>= fun attrs ->
           let attrs =
             List.sort_uniq (fun (a, _) (b, _) -> compare a b) attrs
             |> List.map (fun (n, v) -> N.attribute n v)
           in
           return (N.element nm ~attrs ~children) )
        :: leaf)
  in
  let item =
    frequency
      [
        (2, map (fun v -> I.of_string v) value);
        (1, map I.of_int small_signed_int);
        (2, map (fun t -> I.Node t) (tree 2));
        (1, map (fun t -> I.Node (N.document [ t ])) (tree 2));
        (1, map2 (fun n v -> I.Node (N.attribute n v)) name value);
      ]
  in
  QCheck.make ~print:reference_serialize (list_size (int_bound 6) item)

let prop_serializer_matches_reference =
  QCheck.Test.make ~name:"exact-size serializer matches the reference writer" ~count:300
    gen_items (fun s ->
      let out = S.sequence_to_string s in
      String.equal out (reference_serialize s) && S.sequence_size s = String.length out)

(* A size walk given a limit refuses exactly the outputs longer than it. *)
let test_size_limit () =
  let s = [ I.Node (N.element "a" ~attrs:[] ~children:[ N.text "x<y" ]); I.of_int 1; I.of_int 2 ] in
  let n = String.length (S.sequence_to_string s) in
  check "exact limit" (S.sequence_to_string s) (S.sequence_to_string ~limit:n s);
  match S.sequence_to_string ~limit:(n - 1) s with
  | _ -> Alcotest.fail "one byte under the size must be refused"
  | exception S.Too_large k -> check_bool "count passed the limit" true (k > n - 1 && k <= n)

(* qcheck: random generated trees survive a serialize/parse roundtrip. *)
let gen_tree : N.t QCheck.arbitrary =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c"; "item"; "x1" ] in
  let text_gen = oneofl [ "hello"; "1 < 2 & 3"; "  spaced  "; "quote\"s" ] in
  let rec tree depth =
    if depth = 0 then map N.text text_gen
    else
      frequency
        [
          (2, map N.text text_gen);
          ( 3,
            name >>= fun nm ->
            list_size (int_bound 3) (tree (depth - 1)) >>= fun children ->
            list_size (int_bound 2) (pair (oneofl [ "p"; "q" ]) text_gen)
            >>= fun attrs ->
            (* attribute names must be unique *)
            let attrs =
              List.sort_uniq (fun (a, _) (b, _) -> compare a b) attrs
              |> List.map (fun (n, v) -> N.attribute n v)
            in
            return (N.element nm ~attrs ~children) );
        ]
  in
  QCheck.make
    (name >>= fun nm ->
     list_size (int_bound 4) (tree 2) >>= fun children ->
     return (N.document [ N.element nm ~attrs:[] ~children ]))

let prop_roundtrip =
  QCheck.Test.make ~name:"serialize/parse roundtrip" ~count:100 gen_tree
    (fun doc ->
      let s = S.node_to_string doc in
      String.equal s (S.node_to_string (P.parse_string s)))

let prop_copy_preserves_string_value =
  QCheck.Test.make ~name:"copy preserves string value" ~count:100 gen_tree
    (fun doc -> String.equal (N.string_value doc) (N.string_value (N.copy doc)))

let () =
  Alcotest.run "xml"
    [
      ( "parser",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "entities" `Quick test_entities;
          Alcotest.test_case "misc nodes" `Quick test_misc_nodes;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "character references" `Quick test_char_refs;
          Alcotest.test_case "document level" `Quick test_document_level;
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
        ] );
      ( "loader",
        [
          Alcotest.test_case "numbering matches renumber" `Quick
            test_numbering_matches_renumber;
          Alcotest.test_case "generated roundtrip" `Quick test_generated_roundtrip;
          Alcotest.test_case "parallel loads" `Quick test_parallel_loads;
          QCheck_alcotest.to_alcotest prop_fuzz_loader;
        ] );
      ( "data model",
        [
          Alcotest.test_case "string value" `Quick test_string_value;
          Alcotest.test_case "document order" `Quick test_document_order;
          Alcotest.test_case "axes" `Quick test_axes;
          Alcotest.test_case "copy fresh ids" `Quick test_copy_fresh_ids;
          Alcotest.test_case "typed value" `Quick test_typed_value;
          Alcotest.test_case "sort doc order" `Quick test_sort_doc_order;
          Alcotest.test_case "sorted fast path" `Quick test_sorted_fast_path;
          Alcotest.test_case "lazy descendants" `Quick test_descendants_seq;
          Alcotest.test_case "size" `Quick test_size;
          Alcotest.test_case "sequence serialization" `Quick test_sequence_serialization;
          Alcotest.test_case "escaping" `Quick test_escaping;
          Alcotest.test_case "generated digests" `Quick test_generated_digests;
          Alcotest.test_case "size limit" `Quick test_size_limit;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip; prop_copy_preserves_string_value; prop_serializer_matches_reference ] );
    ]
