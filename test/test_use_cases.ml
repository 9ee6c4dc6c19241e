(* The W3C XML Query Use Cases, group "XMP" (the bibliography use case),
   adapted to this engine's subset.  The paper reports that the compiler
   passes a regression suite including the Use Cases; this suite runs the
   twelve XMP queries against the W3C sample data, checks exact results
   where the use-case document fixes them, and checks that all five
   engine configurations agree everywhere. *)

let bib_xml =
  {|<bib>
  <book year="1994"><title>TCP/IP Illustrated</title><author><last>Stevens</last><first>W.</first></author><publisher>Addison-Wesley</publisher><price>65.95</price></book>
  <book year="1992"><title>Advanced Programming in the Unix environment</title><author><last>Stevens</last><first>W.</first></author><publisher>Addison-Wesley</publisher><price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title><author><last>Abiteboul</last><first>Serge</first></author><author><last>Buneman</last><first>Peter</first></author><author><last>Suciu</last><first>Dan</first></author><publisher>Morgan Kaufmann Publishers</publisher><price>39.95</price></book>
  <book year="1999"><title>The Economics of Technology and Content for Digital TV</title><editor><last>Gerbarg</last><first>Darcy</first><affiliation>CITI</affiliation></editor><publisher>Kluwer Academic Publishers</publisher><price>129.95</price></book>
</bib>|}

let reviews_xml =
  {|<reviews>
  <entry><title>Data on the Web</title><price>34.95</price><review>A very good discussion of semi-structured database systems and XML.</review></entry>
  <entry><title>Advanced Programming in the Unix environment</title><price>65.95</price><review>A clear and detailed discussion of UNIX programming.</review></entry>
  <entry><title>TCP/IP Illustrated</title><price>65.95</price><review>One of the best books on TCP/IP.</review></entry>
</reviews>|}

let prices_xml =
  {|<prices>
  <book><title>Advanced Programming in the Unix environment</title><source>bstore2.example.com</source><price>65.95</price></book>
  <book><title>Advanced Programming in the Unix environment</title><source>bstore1.example.com</source><price>65.95</price></book>
  <book><title>TCP/IP Illustrated</title><source>bstore2.example.com</source><price>65.95</price></book>
  <book><title>TCP/IP Illustrated</title><source>bstore1.example.com</source><price>65.95</price></book>
  <book><title>Data on the Web</title><source>bstore2.example.com</source><price>34.95</price></book>
  <book><title>Data on the Web</title><source>bstore1.example.com</source><price>39.95</price></book>
</prices>|}

let variables =
  [
    ("bib", [ Xqc.Item.Node (Xqc.parse_document ~uri:"bib.xml" bib_xml) ]);
    ("reviews", [ Xqc.Item.Node (Xqc.parse_document ~uri:"reviews.xml" reviews_xml) ]);
    ("prices", [ Xqc.Item.Node (Xqc.parse_document ~uri:"prices.xml" prices_xml) ]);
  ]

let eval ?(strategy = Xqc.Optimized) ?(materialize = false) q =
  let saved = !Xqc.Eval.force_materialize in
  Xqc.Eval.force_materialize := materialize;
  Fun.protect ~finally:(fun () -> Xqc.Eval.force_materialize := saved) @@ fun () ->
  Xqc.serialize (Xqc.eval_string ~strategy ~variables q)

(* (name, query, expected-or-None) *)
let cases =
  [
    ( "Q1: AW books after 1991",
      {|<bib>{
          for $b in $bib/bib/book
          where $b/publisher = "Addison-Wesley" and $b/@year > 1991
          return <book year="{$b/@year}">{$b/title}</book>
        }</bib>|},
      Some
        {|<bib><book year="1994"><title>TCP/IP Illustrated</title></book><book year="1992"><title>Advanced Programming in the Unix environment</title></book></bib>|}
    );
    ( "Q2: flat title/author pairs",
      {|<results>{
          for $b in $bib/bib/book, $t in $b/title, $a in $b/author
          return <result>{$t}{$a}</result>
        }</results>|},
      None );
    ( "Q3: titles with all authors",
      {|<results>{
          for $b in $bib/bib/book
          return <result>{$b/title}{$b/author}</result>
        }</results>|},
      None );
    ( "Q4: books per author",
      {|<results>{
          for $last in distinct-values($bib/bib/book/author/last/text())
          return
            <result>
              <author>{$last}</author>
              {for $b in $bib/bib/book
               where $b/author/last/text() = $last
               return $b/title}
            </result>
        }</results>|},
      Some
        {|<results><result><author>Stevens</author><title>TCP/IP Illustrated</title><title>Advanced Programming in the Unix environment</title></result><result><author>Abiteboul</author><title>Data on the Web</title></result><result><author>Buneman</author><title>Data on the Web</title></result><result><author>Suciu</author><title>Data on the Web</title></result></results>|}
    );
    ( "Q5: join with reviews on title",
      {|<books-with-prices>{
          for $b in $bib//book, $a in $reviews//entry
          where $b/title/text() = $a/title/text()
          return
            <book-with-prices>
              {$b/title}
              <price-review>{$a/price/text()}</price-review>
              <price>{$b/price/text()}</price>
            </book-with-prices>
        }</books-with-prices>|},
      None );
    ( "Q6: books with more than one author",
      {|<bib>{
          for $b in $bib//book
          where count($b/author) > 0
          return
            <book>
              {$b/title}
              {for $a at $i in $b/author where $i <= 2 return $a}
              {if (count($b/author) > 2) then <et-al/> else ()}
            </book>
        }</bib>|},
      None );
    ( "Q7: AW titles/years in year order",
      {|<bib>{
          for $b in $bib//book
          where $b/publisher = "Addison-Wesley" and $b/@year > 1991
          order by $b/@year
          return <book>{$b/@year}{$b/title}</book>
        }</bib>|},
      Some
        {|<bib><book year="1992"><title>Advanced Programming in the Unix environment</title></book><book year="1994"><title>TCP/IP Illustrated</title></book></bib>|}
    );
    ( "Q8: books mentioning Suciu",
      {|for $b in $bib//book
        where some $a in $b/author satisfies $a/last/text() = "Suciu"
        return $b/title/text()|},
      Some "Data on the Web" );
    ( "Q9: titles containing a keyword",
      {|<results>{
          for $t in $bib//title
          where contains(string($t), "Unix")
          return $t
        }</results>|},
      Some
        {|<results><title>Advanced Programming in the Unix environment</title></results>|}
    );
    ( "Q10: minimum price per title",
      {|<results>{
          for $t in distinct-values($prices//book/title/text())
          let $p := for $b in $prices//book where $b/title/text() = $t return $b/price/text()
          return <minprice title="{$t}"><price>{min(for $v in $p return number($v))}</price></minprice>
        }</results>|},
      Some
        {|<results><minprice title="Advanced Programming in the Unix environment"><price>65.95</price></minprice><minprice title="TCP/IP Illustrated"><price>65.95</price></minprice><minprice title="Data on the Web"><price>34.95</price></minprice></results>|}
    );
    ( "Q11: editors with affiliations",
      {|<bib>{
          for $b in $bib//book
          where exists($b/editor/affiliation)
          return <book>{$b/title}{$b/editor/affiliation}</book>
        }</bib>|},
      Some
        {|<bib><book><title>The Economics of Technology and Content for Digital TV</title><affiliation>CITI</affiliation></book></bib>|}
    );
    ( "Q12: pairs of books with the same authors",
      {|<bib>{
          for $book1 in $bib//book, $book2 in $bib//book
          let $aut1 := for $a in $book1/author order by $a/last/text(), $a/first/text() return $a
          let $aut2 := for $a in $book2/author order by $a/last/text(), $a/first/text() return $a
          where $book1 << $book2 and not($book1/title = $book2/title) and deep-equal($aut1, $aut2) and exists($aut1)
          return <book-pair>{$book1/title}{$book2/title}</book-pair>
        }</bib>|},
      Some
        {|<bib><book-pair><title>TCP/IP Illustrated</title><title>Advanced Programming in the Unix environment</title></book-pair></bib>|}
    );
  ]

let strategies = Xqc.all_strategies

(* Run [f] with the structural-index store pinned to [mode] (threshold
   dropped so Force indexes the small sample documents), restoring the
   ambient configuration afterwards. *)
let with_index_mode mode f =
  let saved_mode = !Xqc.Store.mode
  and saved_min = !Xqc.Store.min_index_size
  and saved_small = !Xqc.Store.small_subtree in
  Xqc.Store.mode := mode;
  Xqc.Store.min_index_size := 0;
  Xqc.Store.small_subtree := 0;
  Fun.protect
    ~finally:(fun () ->
      Xqc.Store.mode := saved_mode;
      Xqc.Store.min_index_size := saved_min;
      Xqc.Store.small_subtree := saved_small)
    f

let make_case (name, query, expected) =
  Alcotest.test_case name `Quick (fun () ->
      (* every strategy, streamed and fully materialized, with the
         structural indexes forced on and off: all twenty runs agree *)
      let results =
        List.concat_map
          (fun s ->
            List.concat_map
              (fun materialize ->
                List.map
                  (fun mode ->
                    with_index_mode mode (fun () ->
                        match eval ~strategy:s ~materialize query with
                        | r -> r
                        | exception Xqc.Error m ->
                            Alcotest.failf "%s [%s]: %s" name
                              (Xqc.strategy_name s) m))
                  [ Xqc.Store.Force; Xqc.Store.Off ])
              [ false; true ])
          strategies
      in
      let first = List.hd results in
      if not (List.for_all (String.equal first) results) then
        Alcotest.failf "%s: strategies disagree" name;
      match expected with
      | Some e -> Alcotest.(check string) name e first
      | None ->
          if String.length first = 0 then Alcotest.failf "%s: empty result" name)

let () = Alcotest.run "use_cases" [ ("xmp", List.map make_case cases) ]
