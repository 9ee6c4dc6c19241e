(* The benchmark's workloads: which documents, which queries, and how a
   run is cut into timed operations.  Why each was chosen is in
   BENCHMARK.json and README.md. *)

module Xmark = Xqc_workload.Xmark
module Xmark_queries = Xqc_workload.Xmark_queries
module Clio = Xqc_workload.Clio

type doc_kind = Xmark_doc | Clio_doc

(* A workload's input: [copies] generated documents of one kind and
   size.  Copy [i] of a run with seed [s] is generated from seed
   [s + 1000 i]; the generators are deterministic, so (kind, bytes,
   copy) names a document of the run for the oracle.  More than one copy
   averages out how much work one random document happens to make. *)
type doc = { kind : doc_kind; bytes : int; copies : int }

let doc_key d =
  Printf.sprintf "%s-%d" (match d.kind with Xmark_doc -> "xmark" | Clio_doc -> "clio") d.bytes

let copy_key d i = Printf.sprintf "%s#%d" (doc_key d) i

let generate ~seed d i =
  let seed = seed + (1000 * i) in
  match d.kind with
  | Xmark_doc -> Xmark.generate_string ~seed ~target_bytes:d.bytes ()
  | Clio_doc -> Clio.generate_string ~seed ~target_bytes:d.bytes ()

let documents ~seed d = Array.init d.copies (generate ~seed d)

(* The external variable every query of the document reads. *)
let doc_var d = match d.kind with Xmark_doc -> "auction" | Clio_doc -> "doc"

(* A batch workload runs in episodes: a forked child sets up, runs one
   untimed warm-up round, then a fixed number of timed rounds.  Episodes
   repeat until the run's measuring time is spent.  The fixed episode
   length matters: the store keeps every parsed document, so later
   rounds of an episode are slower, and a fixed length keeps the mix of
   early and late rounds the same whatever the code's speed. *)
type batch = {
  b_doc : doc;
  b_queries : (string * string) list;
  b_parse_each_round : bool;
      (** a round starts by parsing and indexing its document; otherwise
          the documents are parsed once per episode, as set-up *)
  b_rounds : int;  (** timed rounds per episode; round [r] uses copy [r mod copies] *)
}

(* A server workload: [Server.serve] with its default configuration in a
   forked child, preloading the document; closed-loop readers cycle
   through [reads]; an optional open-loop writer. *)
type serve = {
  s_doc : doc;
  s_readers : int;  (** closed-loop client connections *)
  s_writes_per_s : float;  (** 0 = no writer connection *)
}

type shape = Batch of batch | Serve of serve
type t = { name : string; shape : shape }

let clio_queries = [ ("N2", Clio.n2); ("N3", Clio.n3); ("N4", Clio.n4) ]

let reads =
  [
    ("Q1", Xmark_queries.q1);
    ("Q5", Xmark_queries.q5);
    ("Q8", Xmark_queries.q8);
    ("Q17", Xmark_queries.q17);
    ("count-items", "count($auction//item)");
    ( "count-us-items",
      {|count(for $i in $auction//item where $i/location = "United States" return $i)|} );
    ( "person0",
      {|for $p in $auction/site/people/person where $p/@id = "person0" return $p/name/text()|} );
  ]

let all =
  [
    {
      name = "xmark-table3";
      shape =
        Batch
          {
            b_doc = { kind = Xmark_doc; bytes = 500_000; copies = 1 };
            b_queries = Xmark_queries.all;
            b_parse_each_round = true;
            b_rounds = 20;
          };
    };
    {
      name = "clio-table5";
      shape =
        Batch
          {
            b_doc = { kind = Clio_doc; bytes = 50_000; copies = 10 };
            b_queries = clio_queries;
            b_parse_each_round = true;
            b_rounds = 10;
          };
    };
    {
      name = "xmark-adhoc";
      shape =
        Batch
          {
            b_doc = { kind = Xmark_doc; bytes = 20_000; copies = 1 };
            b_queries = Xmark_queries.all;
            b_parse_each_round = false;
            b_rounds = 400;
          };
    };
    {
      name = "serve-read";
      shape = Serve { s_doc = { kind = Xmark_doc; bytes = 1_000_000; copies = 1 }; s_readers = 2; s_writes_per_s = 0. };
    };
    {
      name = "serve-rw";
      shape = Serve { s_doc = { kind = Xmark_doc; bytes = 1_000_000; copies = 1 }; s_readers = 1; s_writes_per_s = 5. };
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* [run --quick]: tiny documents and episodes of one round (two when
   traced, so one of them is), for a smoke check of the whole harness in
   seconds. *)
let quick ~trace w =
  let tiny d = { d with bytes = (match d.kind with Xmark_doc -> 20_000 | Clio_doc -> 8_000); copies = 1 } in
  match w.shape with
  | Batch b -> { w with shape = Batch { b with b_doc = tiny b.b_doc; b_rounds = (if trace then 2 else 1) } }
  | Serve s -> { w with shape = Serve { s with s_doc = tiny s.s_doc } }

(* The document and the named queries the oracle must cover. *)
let oracle_needs w =
  match w.shape with
  | Batch b -> (b.b_doc, b.b_queries)
  | Serve s -> (s.s_doc, reads)
