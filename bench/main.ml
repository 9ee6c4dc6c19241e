(* Benchmark harness: regenerates every table of the paper's evaluation
   (Section 7).

     main.exe table3    — Table 3: XMark Q1-20 total time on a 1MB document
                          under the four engine configurations
     main.exe table4    — Table 4: scalability of Q8/Q9/Q10/Q12/Q20,
                          NL join vs XQuery hash/sort join
     main.exe table5    — Table 5: Clio N2/N3/N4 on a 250KB document
     main.exe figure4   — Figure 4: GroupBy input/output on the paper's
                          avg example, plus the P2-style plan
     main.exe saxon     — the Section 7 prose comparison (XMark 1-20,
                          optimized engine vs the Saxon stand-in)
     main.exe ablation  — extra: decomposition of the optimizations
     main.exe metrics   — per-query JSON metric records (phase timings,
                          rewrite firings, join accounting, GC heap
                          footprint); --json=FILE
     main.exe early-exit — streaming early-termination microbenchmark:
                          existential/positional queries, streamed vs
                          fully materialized, pulled-tuple counts from
                          the obs collector; --json=FILE
     main.exe axis-index — structural-index microbenchmark: descendant/
                          child axis queries with the per-root name
                          indexes forced on vs off, plus the fn:doc
                          document-cache measurement; --json=FILE
     main.exe fused     — fused-tier microbenchmark: scan/filter/
                          aggregate queries with the bytecode tier
                          forced on vs off; --json=FILE
     main.exe scale     — intra-query parallelism: scan/join/aggregate
                          queries at domain budgets 1/2/4, speedups and
                          partition-task counts; writes
                          bench/BENCH_scale.json (or --json=FILE)
     main.exe update    — update microbenchmark: small XQUF updates on a
                          1MB XMark document, incremental index
                          maintenance vs reparse-on-write; writes
                          bench/BENCH_update.json (or --json=FILE)
     main.exe micro     — bechamel microbenchmarks of the join kernels
     main.exe all       — everything above except micro

   Whole-query times are wall-clock measurements of single runs (the
   paper's methodology); each cell runs in a forked child with a timeout
   so that deliberately quadratic configurations print ">Ns" like the
   paper's ">1h" cells.  Pass --paper for the paper's document sizes
   (10/20/50MB in Table 4; the default scales them down 10x so the
   quadratic cells finish in CI time — growth shape is unaffected). *)

let cell_timeout = ref 240.0
let paper_scale = ref false

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

let format_time (s : float) : string =
  if s >= 3600.0 then Printf.sprintf "%dh%02dm" (int_of_float s / 3600) (int_of_float s mod 3600 / 60)
  else if s >= 60.0 then Printf.sprintf "%dm%04.1fs" (int_of_float s / 60) (Float.rem s 60.0)
  else Printf.sprintf "%.2fs" s

(* Run [f] in a forked child with a timeout; the child reports the
   elapsed seconds through a pipe.  Timed-out children are killed. *)
let measure ?(timeout = !cell_timeout) (f : unit -> unit) :
    [ `Time of float | `Timeout | `Failed of string ] =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let result =
        try
          let t0 = Unix.gettimeofday () in
          f ();
          Printf.sprintf "T %f" (Unix.gettimeofday () -. t0)
        with e -> "E " ^ Printexc.to_string e
      in
      let oc = Unix.out_channel_of_descr wr in
      output_string oc result;
      flush oc;
      Unix.close wr;
      (* _exit: skip at_exit handlers so the child does not re-flush the
         parent's inherited stdout buffer *)
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let deadline = Unix.gettimeofday () +. timeout in
      let rec wait_child () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            if Unix.gettimeofday () > deadline then (
              Unix.kill pid Sys.sigkill;
              ignore (Unix.waitpid [] pid);
              None)
            else (
              ignore (Unix.select [] [] [] 0.05);
              wait_child ())
        | _, _ -> Some ()
      in
      let finished = wait_child () in
      let buf = Buffer.create 64 in
      let chunk = Bytes.create 256 in
      (try
         let rec drain () =
           (* the child has exited (or been killed); the pipe drains
              without blocking indefinitely *)
           match Unix.select [ rd ] [] [] 0.2 with
           | [ _ ], _, _ ->
               let n = Unix.read rd chunk 0 256 in
               if n > 0 then (
                 Buffer.add_subbytes buf chunk 0 n;
                 drain ())
           | _ -> ()
         in
         drain ()
       with Unix.Unix_error _ -> ());
      Unix.close rd;
      let payload = Buffer.contents buf in
      match finished with
      | None -> `Timeout
      | Some () ->
          if String.length payload > 2 && payload.[0] = 'T' then
            `Time (float_of_string (String.trim (String.sub payload 2 (String.length payload - 2))))
          else if String.length payload > 2 then
            `Failed (String.sub payload 2 (String.length payload - 2))
          else `Failed "no result from child"

let cell ?(timeout = !cell_timeout) (f : unit -> unit) : string =
  match measure ~timeout f with
  | `Time t -> format_time t
  | `Timeout -> Printf.sprintf "> %s" (format_time timeout)
  | `Failed m -> "FAILED: " ^ m

(* ------------------------------------------------------------------ *)
(* Shared set-up                                                       *)
(* ------------------------------------------------------------------ *)

let strategies_t3 =
  [
    ("No algebra", Xqc.No_algebra);
    ("Algebra + no optim", Xqc.Algebra_unoptimized);
    ("Optim + nested-loop joins", Xqc.Optimized_nl);
    ("Optim + XQuery joins", Xqc.Optimized);
  ]

let make_xmark_ctx doc =
  let ctx = Xqc.context () in
  Xqc.bind_variable ctx "auction" [ Xqc.Item.Node doc ];
  ctx

let run_query strategy ctx q =
  ignore (Xqc.run (Xqc.prepare ~strategy q) ctx)

let run_and_serialize strategy ctx q =
  ignore (Xqc.serialize (Xqc.run (Xqc.prepare ~strategy q) ctx))

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

(* Total time for all twenty XMark queries on a 1MB document, including
   parsing the document once and serializing every result. *)
let table3 () =
  let size = 1_000_000 in
  Printf.printf "\n=== Table 3: XMark Q1-20 total time, %dKB document ===\n"
    (size / 1000);
  Printf.printf "(includes document load and result serialization, as in the paper)\n\n";
  let xml = Xqc_workload.Xmark.generate_string ~target_bytes:size () in
  Printf.printf "%-28s %s\n" "Implementation" "Total time";
  List.iter
    (fun (label, strategy) ->
      let result =
        cell (fun () ->
            let doc = Xqc.parse_document ~uri:"xmark.xml" xml in
            let ctx = make_xmark_ctx doc in
            List.iter
              (fun (_, q) -> run_and_serialize strategy ctx q)
              Xqc_workload.Xmark_queries.all)
      in
      Printf.printf "%-28s %s\n" label result)
    strategies_t3

(* ------------------------------------------------------------------ *)
(* Table 4                                                             *)
(* ------------------------------------------------------------------ *)

(* Query evaluation time only (document pre-loaded, serialization
   excluded) for the join queries at increasing document sizes. *)
let table4 () =
  let sizes =
    if !paper_scale then [ 10_000_000; 20_000_000; 50_000_000 ]
    else [ 1_000_000; 2_000_000; 5_000_000 ]
  in
  let queries = [ "Q8"; "Q9"; "Q10"; "Q12"; "Q20" ] in
  Printf.printf "\n=== Table 4: scalability of selected XMark queries ===\n";
  Printf.printf "(evaluation time only; document load excluded)\n\n";
  Printf.printf "%-6s %-8s %-12s %-12s\n" "Query" "Size" "NL Join" "XQuery Join";
  let docs =
    List.map
      (fun size ->
        let doc = Xqc_workload.Xmark.generate ~target_bytes:size () in
        (size, doc))
      sizes
  in
  List.iter
    (fun qname ->
      let q = Xqc_workload.Xmark_queries.find qname in
      List.iter
        (fun (size, doc) ->
          let ctx = make_xmark_ctx doc in
          let nl = cell (fun () -> run_query Xqc.Optimized_nl ctx q) in
          let hash = cell (fun () -> run_query Xqc.Optimized ctx q) in
          Printf.printf "%-6s %-8s %-12s %-12s\n" qname
            (Printf.sprintf "%dMB"
               (int_of_float (Float.round (float_of_int size /. 1_000_000.))))
            nl hash)
        docs)
    queries

(* ------------------------------------------------------------------ *)
(* Table 5                                                             *)
(* ------------------------------------------------------------------ *)

let table5 () =
  let size = 250_000 in
  Printf.printf "\n=== Table 5: Clio queries on a %dKB document ===\n" (size / 1000);
  Printf.printf "(Saxon 8.1.1 column reproduced by the indexed Core interpreter; see DESIGN.md)\n\n";
  Printf.printf "%-6s %-12s %-12s %-12s %-14s\n" "Query" "No optim" "NL Join"
    "Hash Join" "Saxon-like";
  let doc = Xqc_workload.Clio.generate ~target_bytes:size () in
  let ctx = Xqc.context () in
  Xqc.bind_variable ctx "doc" [ Xqc.Item.Node doc ];
  List.iter
    (fun (name, q) ->
      let run strategy = cell (fun () -> run_query strategy ctx q) in
      let no_optim = run Xqc.Algebra_unoptimized in
      let nl = run Xqc.Optimized_nl in
      let hash = run Xqc.Optimized in
      let saxon = run Xqc.Saxon_like in
      Printf.printf "%-6s %-12s %-12s %-12s %-14s\n" name no_optim nl hash saxon)
    [ ("N2", Xqc_workload.Clio.n2); ("N3", Xqc_workload.Clio.n3);
      ("N4", Xqc_workload.Clio.n4) ]

(* ------------------------------------------------------------------ *)
(* Figure 4                                                            *)
(* ------------------------------------------------------------------ *)

let figure4 () =
  Printf.printf "\n=== Figure 4 / Section 5 example: the XQuery GroupBy ===\n\n";
  let q =
    "for $x in (1,1,3) let $a := avg(for $y in (1,2) where $x <= $y return $y \
     * 10) return ($x, $a)"
  in
  Printf.printf "Query: %s\n\n" q;
  Printf.printf "%s\n" (Xqc.explain ~strategy:Xqc.Optimized q);
  let result = Xqc.eval_string ~strategy:Xqc.Optimized q in
  Printf.printf "Result: %s   (paper expects: 1 15 1 15 3)\n" (Xqc.serialize result)

(* ------------------------------------------------------------------ *)
(* Saxon comparison (Section 7 prose)                                  *)
(* ------------------------------------------------------------------ *)

let saxon () =
  let size = if !paper_scale then 10_000_000 else 2_000_000 in
  Printf.printf
    "\n=== Section 7 prose: XMark Q1-20 on a %dMB document, optimized engine \
     vs Saxon stand-in ===\n\n"
    (size / 1_000_000);
  let doc = Xqc_workload.Xmark.generate ~target_bytes:size () in
  let ctx = make_xmark_ctx doc in
  let total strategy =
    cell (fun () ->
        List.iter
          (fun (_, q) -> run_and_serialize strategy ctx q)
          Xqc_workload.Xmark_queries.all)
  in
  Printf.printf "%-28s %s\n" "Galax-style (optimized)" (total Xqc.Optimized);
  Printf.printf "%-28s %s\n" "Saxon stand-in (indexed)" (total Xqc.Saxon_like)

(* ------------------------------------------------------------------ *)
(* Ablation (extra)                                                    *)
(* ------------------------------------------------------------------ *)

let ablation () =
  Printf.printf "\n=== Ablation: decomposing the optimizations (extra) ===\n\n";
  let xdoc = Xqc_workload.Xmark.generate ~target_bytes:1_000_000 () in
  let xctx = make_xmark_ctx xdoc in
  let ddoc = Xqc_workload.Clio.generate ~target_bytes:250_000 () in
  let dctx = Xqc.context () in
  Xqc.bind_variable dctx "doc" [ Xqc.Item.Node ddoc ];
  let row label ctx q =
    Printf.printf "%s\n" label;
    List.iter
      (fun (slabel, strategy) ->
        Printf.printf "  %-26s %s\n" slabel
          (cell (fun () -> run_query strategy ctx q)))
      [
        ("interpreter (dyn env)", Xqc.No_algebra);
        ("interpreter + index", Xqc.Saxon_like);
        ("algebra, no rewriting", Xqc.Algebra_unoptimized);
        ("unnesting, NL joins", Xqc.Optimized_nl);
        ("unnesting, XQuery joins", Xqc.Optimized);
      ]
  in
  row "XMark Q8 (equi-join + group-by), 1MB" xctx (Xqc_workload.Xmark_queries.q8);
  row "XMark Q12 (inequality join -> sort join), 1MB" xctx (Xqc_workload.Xmark_queries.q12);
  row "Clio N3 (3-way join, triple nesting), 250KB" dctx Xqc_workload.Clio.n3;
  (* document projection (Marian-Simeon), measured on parse + narrow query *)
  Printf.printf "Document projection: XMark Q6 (count of items), 2MB
";
  let xdoc2 = Xqc_workload.Xmark.generate ~target_bytes:2_000_000 () in
  let ctx2 = make_xmark_ctx xdoc2 in
  Printf.printf "  %-26s %s
" "without projection"
    (cell (fun () ->
         for _ = 1 to 50 do
           ignore (Xqc.run (Xqc.prepare (Xqc_workload.Xmark_queries.find "Q6")) ctx2)
         done));
  Printf.printf "  %-26s %s
" "with projection (amortized)"
    (cell (fun () ->
         let p = Xqc.prepare ~project:true (Xqc_workload.Xmark_queries.find "Q6") in
         for _ = 1 to 50 do
           ignore (Xqc.run p ctx2)
         done))

(* ------------------------------------------------------------------ *)
(* Per-query metric records (observability)                            *)
(* ------------------------------------------------------------------ *)

(* One JSON record per (query, strategy): phase timings, rewrite-rule
   firings and join accounting from the statistics collector, plus the
   result cardinality.  Written as JSON lines to stdout or --json=FILE,
   ready for ingestion by plotting / regression-tracking scripts. *)
let metrics_json_file = ref None

let metrics () =
  let module Obs = Xqc_obs.Obs in
  let size = 100_000 in
  let doc = Xqc_workload.Xmark.generate ~target_bytes:size () in
  let ctx = make_xmark_ctx doc in
  let out, close_out_fn =
    match !metrics_json_file with
    | None -> (stdout, fun () -> ())
    | Some path ->
        let oc = open_out_bin path in
        (oc, fun () -> close_out oc)
  in
  Printf.eprintf
    "=== Per-query metric records: XMark Q1-20, %dKB document, all strategies ===\n"
    (size / 1000);
  List.iter
    (fun (qname, q) ->
      List.iter
        (fun strategy ->
          match
            (* GC deltas around prepare+run make the memory footprint of
               each (query, strategy) visible in the bench trajectory:
               allocation shrinks when the pipeline streams instead of
               materializing intermediate tables.  Gc.allocated_bytes is
               exact per allocation; Gc.stat (not quick_stat, whose
               counters only refresh at major slices) gives an accurate
               peak after the run. *)
            let a0 = Gc.allocated_bytes () in
            let prepared = Xqc.prepare ~strategy ~stats:true q in
            let result = Xqc.run prepared ctx in
            let a1 = Gc.allocated_bytes () in
            (prepared, result, a1 -. a0, Gc.stat ())
          with
          | prepared, result, alloc_bytes, g ->
              let word = float_of_int (Sys.word_size / 8) in
              let gc_json =
                Obs.Obj
                  [
                    ("allocated_words", Obs.Float (alloc_bytes /. word));
                    ("top_heap_words", Obs.Int g.Gc.top_heap_words);
                  ]
              in
              let record =
                match Xqc.stats prepared with
                | Some c ->
                    Obs.Obj
                      (("query", Obs.Str qname)
                       :: ("strategy", Obs.Str (Xqc.strategy_name strategy))
                       :: ("result_items", Obs.Int (List.length result))
                       :: ("gc", gc_json)
                       ::
                       (match Obs.collector_to_json ~plans:false c with
                       | Obs.Obj fields -> fields
                       | other -> [ ("stats", other) ]))
                | None -> Obs.Obj [ ("query", Obs.Str qname) ]
              in
              output_string out (Obs.json_to_string record);
              output_char out '\n'
          | exception e ->
              output_string out
                (Obs.json_to_string
                   (Obs.Obj
                      [
                        ("query", Obs.Str qname);
                        ("strategy", Obs.Str (Xqc.strategy_name strategy));
                        ("error", Obs.Str (Printexc.to_string e));
                      ]));
              output_char out '\n')
        Xqc.all_strategies)
    Xqc_workload.Xmark_queries.all;
  flush out;
  close_out_fn ();
  match !metrics_json_file with
  | Some path -> Printf.eprintf "wrote metric records to %s\n" path
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Early-termination microbenchmark                                    *)
(* ------------------------------------------------------------------ *)

(* Existential/positional queries where the streaming pipeline should
   stop after a bounded prefix, run streamed and fully materialized (the
   [Eval.force_materialize] debug knob) on the same XMark document.  Pulled-tuple
   and pulled-item totals come from the obs collector; the CI smoke step
   asserts the streamed counts stay below a constant bound. *)
let early_exit () =
  let module Obs = Xqc_obs.Obs in
  let size = 1_000_000 in
  let doc = Xqc_workload.Xmark.generate ~target_bytes:size () in
  let ctx = make_xmark_ctx doc in
  let queries =
    [
      ("exists-path", "fn:exists($auction/site/people/person)");
      ("exists-desc", "fn:exists($auction//item)");
      ("exists-late", "fn:exists($auction//person)");
      ("empty-desc", "fn:empty($auction//person)");
      ("first", "($auction//person)[1]");
      ("some-satisfies",
       "some $p in $auction//person satisfies fn:exists($p/homepage)");
      ("subsequence", "fn:subsequence($auction//person, 1, 5)");
    ]
  in
  let out, close_out_fn =
    match !metrics_json_file with
    | None -> (stdout, fun () -> ())
    | Some path ->
        let oc = open_out_bin path in
        (oc, fun () -> close_out oc)
  in
  Printf.eprintf
    "=== Early-exit microbenchmark: %dKB XMark document, streamed vs materialized ===\n"
    (size / 1000);
  Printf.eprintf "%-16s %-13s %10s %10s %10s %10s\n" "query" "mode" "time_ms"
    "tuples" "items" "result";
  List.iter
    (fun (qname, q) ->
      List.iter
        (fun materialize ->
          let saved = !Xqc.Eval.force_materialize in
          Xqc.Eval.force_materialize := materialize;
          Fun.protect ~finally:(fun () -> Xqc.Eval.force_materialize := saved) @@ fun () ->
          let prepared = Xqc.prepare ~stats:true q in
          let t0 = Unix.gettimeofday () in
          let result = Xqc.run prepared ctx in
          let dt = (Unix.gettimeofday () -. t0) *. 1000.0 in
          let tuples, items =
            match Xqc.stats prepared with
            | Some c -> Obs.pulled_totals c
            | None -> (0, 0)
          in
          let mode = if materialize then "materialized" else "streamed" in
          Printf.eprintf "%-16s %-13s %10.2f %10d %10d %10d\n" qname mode dt
            tuples items (List.length result);
          let record =
            Obs.Obj
              [
                ("query", Obs.Str qname);
                ("mode", Obs.Str mode);
                ("time_ms", Obs.Float dt);
                ("pulled_tuples", Obs.Int tuples);
                ("pulled_items", Obs.Int items);
                ("result_items", Obs.Int (List.length result));
              ]
          in
          output_string out (Obs.json_to_string record);
          output_char out '\n')
        [ false; true ])
    queries;
  flush out;
  close_out_fn ();
  match !metrics_json_file with
  | Some path -> Printf.eprintf "wrote early-exit records to %s\n" path
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Structural-index microbenchmark                                     *)
(* ------------------------------------------------------------------ *)

(* The same axis queries with the structural indexes forced on and off,
   on a 1MB XMark document.  Per query and mode: the cold run (which in
   indexed mode pays the one-time index build) and the best of the warm
   runs.  count(//t) and exists(//t) resolve to index range bounds
   without touching a node, so their warm indexed times should sit
   orders of magnitude under the walk; the tentpole acceptance bar is
   5x.  A final record measures the fn:doc document cache: repeated runs
   of the same URI must hit the cache, not the parser. *)
let axis_index () =
  let module Obs = Xqc_obs.Obs in
  let size = 1_000_000 in
  let warm_runs = 5 in
  let doc = Xqc_workload.Xmark.generate ~target_bytes:size () in
  let ctx = make_xmark_ctx doc in
  let queries =
    [
      ("count-desc", "count($auction//item)");
      ("count-late", "count($auction//closed_auction)");
      ("exists-late", "fn:exists($auction//closed_auction)");
      ("empty-missing", "fn:empty($auction//nosuchelement)");
      ("desc-iterate", "count($auction//item/name)");
      ("child-chain", "count($auction/site/regions/africa/item)");
      ("child-deep", "count($auction/site/people/person/profile/interest)");
    ]
  in
  let out, close_out_fn =
    match !metrics_json_file with
    | None -> (stdout, fun () -> ())
    | Some path ->
        let oc = open_out_bin path in
        (oc, fun () -> close_out oc)
  in
  let emit record =
    output_string out (Obs.json_to_string record);
    output_char out '\n'
  in
  Printf.eprintf
    "=== Axis-index microbenchmark: %dKB XMark document, indexed vs walk ===\n"
    (size / 1000);
  Printf.eprintf "%-16s %-8s %10s %10s %8s\n" "query" "mode" "cold_ms"
    "warm_ms" "result";
  let saved_mode = !Xqc.Store.mode in
  let time_one q =
    let prepared = Xqc.prepare q in
    let t0 = Unix.gettimeofday () in
    let result = Xqc.run prepared ctx in
    let cold = (Unix.gettimeofday () -. t0) *. 1000.0 in
    let warm = ref infinity in
    for _ = 1 to warm_runs do
      let t0 = Unix.gettimeofday () in
      ignore (Xqc.run prepared ctx);
      warm := Float.min !warm ((Unix.gettimeofday () -. t0) *. 1000.0)
    done;
    (cold, !warm, Xqc.serialize result)
  in
  let results = Hashtbl.create 16 in
  List.iter
    (fun (qname, q) ->
      List.iter
        (fun (mode_name, mode) ->
          Xqc.Store.mode := mode;
          Xqc.Store.clear ();
          let hits0 = List.assoc "index_hits" (Obs.global_counters ()) in
          let cold, warm, result = time_one q in
          let hits =
            List.assoc "index_hits" (Obs.global_counters ()) - hits0
          in
          Hashtbl.replace results (qname, mode_name) warm;
          Printf.eprintf "%-16s %-8s %10.3f %10.4f %8s\n" qname mode_name cold
            warm
            (if String.length result > 8 then String.sub result 0 8 else result);
          emit
            (Obs.Obj
               [
                 ("bench", Obs.Str "axis-index");
                 ("query", Obs.Str qname);
                 ("mode", Obs.Str mode_name);
                 ("cold_ms", Obs.Float cold);
                 ("warm_ms", Obs.Float warm);
                 ("index_hits", Obs.Int hits);
                 ("result", Obs.Str result);
               ]))
        [ ("indexed", Xqc.Store.Force); ("walk", Xqc.Store.Off) ])
    queries;
  Xqc.Store.mode := saved_mode;
  List.iter
    (fun (qname, _) ->
      let indexed = Hashtbl.find results (qname, "indexed") in
      let walk = Hashtbl.find results (qname, "walk") in
      Printf.eprintf "%-16s speedup %8.1fx\n" qname
        (walk /. Float.max indexed 0.0001))
    queries;
  (* fn:doc cache: one parse, then cache hits, across repeated runs *)
  let xml = Xqc_workload.Xmark.generate_string ~target_bytes:100_000 () in
  let parse_calls = ref 0 in
  let resolver uri =
    incr parse_calls;
    Xqc.parse_document ~uri xml
  in
  let dctx = Xqc.context ~resolver () in
  let p = Xqc.prepare {|count(doc("auction.xml")//item)|} in
  let hits0 = List.assoc "doc_cache_hits" (Obs.global_counters ()) in
  let parses0 = List.assoc "doc_parses" (Obs.global_counters ()) in
  let t0 = Unix.gettimeofday () in
  let runs = 10 in
  for _ = 1 to runs do
    ignore (Xqc.run p dctx)
  done;
  let dt = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let hits = List.assoc "doc_cache_hits" (Obs.global_counters ()) - hits0 in
  let parses = List.assoc "doc_parses" (Obs.global_counters ()) - parses0 in
  Printf.eprintf
    "doc-cache: %d runs in %.2fms, %d parse(s), %d cache hit(s)\n" runs dt
    parses hits;
  emit
    (Obs.Obj
       [
         ("bench", Obs.Str "doc-cache");
         ("runs", Obs.Int runs);
         ("total_ms", Obs.Float dt);
         ("doc_parses", Obs.Int parses);
         ("doc_cache_hits", Obs.Int hits);
         ("resolver_calls", Obs.Int !parse_calls);
       ]);
  flush out;
  close_out_fn ();
  match !metrics_json_file with
  | Some path -> Printf.eprintf "wrote axis-index records to %s\n" path
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Fused execution tier benchmark                                      *)
(* ------------------------------------------------------------------ *)

(* Scan-, filter- and aggregate-heavy queries with the fused bytecode
   tier forced on and off, on a 1MB XMark document.  Per query and mode:
   the cold run and the best of the warm runs, plus the number of fused
   segments in the plan and the rows the bytecode loop pushed.  The
   tentpole acceptance bar is 5x on at least one scan/join-heavy query;
   Q1/Q8 are included end-to-end (constructors stay interpreted there,
   only their scan/probe pipelines fuse). *)
let fused_bench () =
  let module Obs = Xqc_obs.Obs in
  let size = 1_000_000 in
  let warm_runs = 5 in
  let doc = Xqc_workload.Xmark.generate ~target_bytes:size () in
  let ctx = make_xmark_ctx doc in
  let queries =
    [
      ("scan-names", "$auction/site/regions/africa/item/name");
      ("scan-desc", "$auction/site/regions//item/name");
      ("deep-chain", "$auction/site/people/person/profile/interest");
      ( "deep-count",
        "count(for $i in $auction/site/people/person/profile/interest \
         return $i)" );
      ( "desc-count",
        "count(for $i in $auction/site/regions//item/name return $i)" );
      ( "filter-count",
        {|count(for $i in $auction/site/regions//item
               where $i/location = "United States" return $i)|} );
      ( "filter-collect",
        {|for $i in $auction/site/regions//item
          where $i/location = "United States" return $i/name|} );
      ( "sum-price",
        {|sum(for $c in $auction/site/closed_auctions/closed_auction
             return $c/price)|} );
      ("Q1", Xqc_workload.Xmark_queries.q1);
      ("Q8", Xqc_workload.Xmark_queries.q8);
    ]
  in
  let out, close_out_fn =
    match !metrics_json_file with
    | None -> (stdout, fun () -> ())
    | Some path ->
        let oc = open_out_bin path in
        (oc, fun () -> close_out oc)
  in
  let emit record =
    output_string out (Obs.json_to_string record);
    output_char out '\n'
  in
  Printf.eprintf
    "=== Fused-tier microbenchmark: %dKB XMark document, fused vs interpreted ===\n"
    (size / 1000);
  Printf.eprintf "%-14s %-12s %10s %10s %9s %6s %10s\n" "query" "mode"
    "cold_ms" "warm_ms" "segments" "rows" "result";
  let saved_mode = !Xqc.Codegen.mode in
  let results = Hashtbl.create 16 in
  List.iter
    (fun (qname, q) ->
      let prepared = Xqc.prepare q in
      (* annotate consults the mode: force it so the column reflects what
         the fused runs below actually execute *)
      let segments =
        Xqc.Codegen.mode := Xqc.Codegen.Force;
        match Xqc.physical_plan prepared with
        | None -> 0
        | Some pq -> List.length (Xqc.Codegen.annotate pq.Xqc.Physical.pmain)
      in
      List.iter
        (fun (mode_name, mode) ->
          Xqc.Codegen.mode := mode;
          let rows0 = List.assoc "fused_rows" (Obs.global_counters ()) in
          let t0 = Unix.gettimeofday () in
          let result = Xqc.run prepared ctx in
          let cold = (Unix.gettimeofday () -. t0) *. 1000.0 in
          let rows = List.assoc "fused_rows" (Obs.global_counters ()) - rows0 in
          let warm = ref infinity in
          for _ = 1 to warm_runs do
            let t0 = Unix.gettimeofday () in
            ignore (Xqc.run prepared ctx);
            warm := Float.min !warm ((Unix.gettimeofday () -. t0) *. 1000.0)
          done;
          let rendered = Xqc.serialize result in
          Hashtbl.replace results (qname, mode_name) !warm;
          Printf.eprintf "%-14s %-12s %10.3f %10.4f %9d %6d %10s\n" qname
            mode_name cold !warm
            (if mode = Xqc.Codegen.Off then 0 else segments)
            rows
            (if String.length rendered > 10 then String.sub rendered 0 10
             else rendered);
          emit
            (Obs.Obj
               [
                 ("bench", Obs.Str "fused");
                 ("query", Obs.Str qname);
                 ("mode", Obs.Str mode_name);
                 ("cold_ms", Obs.Float cold);
                 ("warm_ms", Obs.Float !warm);
                 ("fused_segments", Obs.Int (if mode = Xqc.Codegen.Off then 0 else segments));
                 ("fused_rows", Obs.Int rows);
                 ("result_items", Obs.Int (List.length result));
               ]))
        [ ("fused", Xqc.Codegen.Force); ("interpreted", Xqc.Codegen.Off) ])
    queries;
  Xqc.Codegen.mode := saved_mode;
  List.iter
    (fun (qname, _) ->
      let fused = Hashtbl.find results (qname, "fused") in
      let interp = Hashtbl.find results (qname, "interpreted") in
      let speedup = interp /. Float.max fused 0.0001 in
      Printf.eprintf "%-14s speedup %8.1fx\n" qname speedup;
      emit
        (Obs.Obj
           [
             ("bench", Obs.Str "fused-speedup");
             ("query", Obs.Str qname);
             ("speedup", Obs.Float speedup);
           ]))
    queries;
  flush out;
  close_out_fn ();
  match !metrics_json_file with
  | Some path -> Printf.eprintf "wrote fused-tier records to %s\n" path
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Planner benchmark                                                   *)
(* ------------------------------------------------------------------ *)

(* The cost-based physical planner against each forced join algorithm on
   the join-heavy workload queries.  Per query: the operators the planner
   actually planned (from the physical plan), then warm wall time under
   the planner's choice and under each forced algorithm — the planner
   column should track the best forced column. *)
let planner_bench () =
  let module Obs = Xqc_obs.Obs in
  let size = 1_000_000 in
  let warm_runs = 3 in
  let doc = Xqc_workload.Xmark.generate ~target_bytes:size () in
  let ctx = make_xmark_ctx doc in
  let queries =
    [
      ("Q8", Xqc_workload.Xmark_queries.q8);
      ("Q9", Xqc_workload.Xmark_queries.q9);
      ("Q12", Xqc_workload.Xmark_queries.q12);
    ]
  in
  let out, close_out_fn =
    match !metrics_json_file with
    | None -> (stdout, fun () -> ())
    | Some path ->
        let oc = open_out_bin path in
        (oc, fun () -> close_out oc)
  in
  let emit record =
    output_string out (Obs.json_to_string record);
    output_char out '\n'
  in
  let joins_of prepared =
    match Xqc.physical_plan prepared with
    | None -> "-"
    | Some pq ->
        let count pred =
          Xqc.Physical.fold
            (fun n t -> if pred t.Xqc.Physical.pop then n + 1 else n)
            0 pq.Xqc.Physical.pmain
        in
        let h = count (function Xqc.Physical.PHashJoin _ -> true | _ -> false)
        and s = count (function Xqc.Physical.PSortJoin _ -> true | _ -> false)
        and n =
          count (function Xqc.Physical.PNestedLoop _ -> true | _ -> false)
        in
        Printf.sprintf "hash=%d sort=%d nl=%d" h s n
  in
  let time prepared =
    ignore (Xqc.run prepared ctx);
    let warm = ref infinity in
    for _ = 1 to warm_runs do
      let t0 = Unix.gettimeofday () in
      ignore (Xqc.run prepared ctx);
      warm := Float.min !warm ((Unix.gettimeofday () -. t0) *. 1000.0)
    done;
    !warm
  in
  Printf.eprintf
    "=== Planner benchmark: %dKB XMark, cost-based vs forced joins ===\n"
    (size / 1000);
  Printf.eprintf "%-6s %-22s %10s %10s %10s %10s\n" "query" "planner choice"
    "planned" "force-nl" "force-hash" "force-sort";
  List.iter
    (fun (qname, q) ->
      let planned = Xqc.prepare q in
      let choice = joins_of planned in
      let t_planned = time planned in
      let forced alg = time (Xqc.prepare ~force_join:alg q) in
      let t_nl = forced Xqc.Physical.Nested_loop in
      let t_hash = forced Xqc.Physical.Hash in
      let t_sort = forced Xqc.Physical.Sort in
      Printf.eprintf "%-6s %-22s %9.2fms %9.2fms %9.2fms %9.2fms\n" qname
        choice t_planned t_nl t_hash t_sort;
      emit
        (Obs.Obj
           [
             ("bench", Obs.Str "planner");
             ("query", Obs.Str qname);
             ("planner_choice", Obs.Str choice);
             ("planned_ms", Obs.Float t_planned);
             ("forced_nl_ms", Obs.Float t_nl);
             ("forced_hash_ms", Obs.Float t_hash);
             ("forced_sort_ms", Obs.Float t_sort);
           ]))
    queries;
  flush out;
  close_out_fn ();
  match !metrics_json_file with
  | Some path -> Printf.eprintf "wrote planner records to %s\n" path
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the join kernels                        *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let make_tables n =
    let mk i =
      [| [ Xqc.Item.Atom (Xqc.Atomic.Untyped (string_of_int (i mod (n / 2 + 1)))) ] |]
    in
    (List.init n mk, List.init n mk)
  in
  let key (t : Xqc.Item.sequence array) = t.(0) in
  let nl_join (left, right) () =
    List.iter
      (fun l ->
        List.iter
          (fun r ->
            ignore
              (Xqc.Promotion.general_compare Xqc.Promotion.Eq (key l) (key r)))
          right)
      left
  in
  let hash_join (left, right) () =
    let ix = Xqc.Joins.build_hash_index right key in
    List.iter
      (fun l -> ignore (Xqc.Joins.probe_hash_index ix (Xqc.Item.atomize (key l))))
      left
  in
  let test_of name f =
    Test.make_indexed ~name ~args:[ 100; 400; 1600 ] (fun n ->
        Staged.stage (f (make_tables n)))
  in
  let tests =
    Test.make_grouped ~name:"join-kernels"
      [ test_of "nested-loop" nl_join; test_of "xquery-hash" hash_join ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "\n=== Microbenchmark: join kernels (bechamel) ===\n\n";
  let rows = Hashtbl.fold (fun name m acc -> (name, m) :: acc) results [] in
  List.iter
    (fun (name, m) ->
      match Analyze.OLS.estimates m with
      | Some [ est ] -> Printf.printf "%-40s %12.0f ns/run\n" name est
      | Some _ | None -> ())
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Intra-query parallelism scaling                                     *)
(* ------------------------------------------------------------------ *)

(* Scan-, join- and aggregate-shaped queries on a ~1MB XMark document at
   domain budgets 1, 2 and 4.  Per (query, degree): best warm time, the
   speedup against degree 1, and the par_tasks counter delta (how many
   partition tasks actually ran — 0 means the planner or the width gate
   kept the query sequential).  Every degree's serialized result is
   asserted byte-equal to the sequential reference before the record is
   written, so the snapshot doubles as a correctness check.

   Note: speedups are hardware-dependent — on a single-core container
   (Domain.recommended_domain_count () = 1) the partitioned runs still
   execute (the budget is forced), but all partitions share one core, so
   expect ~1.0x and read the par_tasks column instead. *)
let scale_bench () =
  let module Obs = Xqc_obs.Obs in
  (* 2MB, not 1MB: with the structural index built, the planner's
     par_threshold (1000 estimated rows) honestly keeps the 1MB join
     inputs (~600 persons + ~230 closed auctions) sequential; at 2MB
     the scan, join and aggregate inputs all clear the gate. *)
  let size = 2_000_000 in
  let warm_runs = 5 in
  let degrees = [ 1; 2; 4 ] in
  let doc = Xqc_workload.Xmark.generate ~seed:42 ~target_bytes:size () in
  let ctx = make_xmark_ctx doc in
  let queries =
    [
      ("scan-names", "$auction/site/regions//item/name");
      ("scan-count", "count($auction/site/regions//item/name)");
      ( "filter-scan",
        {|for $i in $auction/site/regions//item
          where $i/location = "United States" return $i/name|} );
      ( "agg-sum",
        {|sum(for $c in $auction/site/closed_auctions/closed_auction
             return $c/price)|} );
      ("join-Q8", Xqc_workload.Xmark_queries.q8);
      ("join-Q9", Xqc_workload.Xmark_queries.q9);
    ]
  in
  let out, close_out_fn =
    match !metrics_json_file with
    | None -> (stdout, fun () -> ())
    | Some path ->
        let oc = open_out_bin path in
        (oc, fun () -> close_out oc)
  in
  Printf.eprintf
    "=== Parallel scaling: %dKB XMark document, domain budget 1/2/4 ===\n"
    (size / 1000);
  Printf.eprintf "(host reports %d core(s))\n"
    (Domain.recommended_domain_count ());
  Printf.eprintf "%-12s %6s %10s %10s %9s %8s\n" "query" "degree" "cold_ms"
    "warm_ms" "speedup" "tasks";
  let counter name = List.assoc name (Obs.global_counters ()) in
  let records =
    List.concat_map
      (fun (qname, q) ->
        let reference = ref "" in
        let base_warm = ref 0.0 in
        List.map
          (fun degree ->
            (* budget before prepare: the planner reads the query degree
               when it annotates the plan *)
            Xqc.Domain_pool.set_budget (Some degree);
            let prepared = Xqc.prepare q in
            let tasks0 = counter "par_tasks" in
            let t0 = Unix.gettimeofday () in
            let result = Xqc.run prepared ctx in
            let cold = (Unix.gettimeofday () -. t0) *. 1000.0 in
            let warm = ref infinity in
            for _ = 1 to warm_runs do
              let t0 = Unix.gettimeofday () in
              ignore (Xqc.run prepared ctx);
              warm := Float.min !warm ((Unix.gettimeofday () -. t0) *. 1000.0)
            done;
            let tasks = counter "par_tasks" - tasks0 in
            let rendered = Xqc.serialize result in
            if degree = 1 then (
              reference := rendered;
              base_warm := !warm)
            else if rendered <> !reference then (
              Printf.eprintf
                "FAIL: %s at degree %d disagrees with the sequential result\n"
                qname degree;
              Stdlib.exit 1);
            let speedup = !base_warm /. Float.max !warm 0.0001 in
            Printf.eprintf "%-12s %6d %10.3f %10.4f %8.2fx %8d\n" qname degree
              cold !warm speedup tasks;
            Obs.Obj
              [
                ("bench", Obs.Str "scale");
                ("query", Obs.Str qname);
                ("degree", Obs.Int degree);
                ("cold_ms", Obs.Float cold);
                ("warm_ms", Obs.Float !warm);
                ("speedup", Obs.Float speedup);
                ("par_tasks", Obs.Int tasks);
                ("result_items", Obs.Int (List.length result));
              ])
          degrees)
      queries
  in
  Xqc.Domain_pool.set_budget None;
  let record =
    Obs.Obj
      [
        ("bench", Obs.Str "scale");
        ("doc_bytes", Obs.Int size);
        ("degrees", Obs.Arr (List.map (fun d -> Obs.Int d) degrees));
        ("recommended_domains", Obs.Int (Domain.recommended_domain_count ()));
        ("runs", Obs.Arr records);
      ]
  in
  let path =
    match !metrics_json_file with
    | Some _ -> None (* per-run records already streamed to --json=FILE *)
    | None -> Some "bench/BENCH_scale.json"
  in
  (match path with
  | Some p -> (
      try
        let oc = open_out_bin p in
        output_string oc (Obs.json_to_string record);
        output_char oc '\n';
        close_out oc;
        Printf.eprintf "wrote %s\n%!" p
      with Sys_error m -> Printf.eprintf "could not write %s: %s\n%!" p m)
  | None ->
      output_string out (Obs.json_to_string record);
      output_char out '\n');
  flush out;
  close_out_fn ()

(* ------------------------------------------------------------------ *)
(* Query-service throughput and latency                                *)
(* ------------------------------------------------------------------ *)

(* The server end to end over a Unix socket: an in-process service
   preloading a 1MB XMark document, hammered by 4 client threads for a
   fixed window at 1, 2 and 4 worker domains (plus a 1-worker run with
   tracing sampled out, to price the tracing plane).  Reports QPS,
   client-observed p50/p95/p99 latency, and the server-side breakdown —
   mean queue wait / eval / serialize and total lock wait — per
   configuration, scraped from the metrics verb before shutdown; the
   JSON record goes to --json=FILE or bench/BENCH_server.json.

   Note: throughput scaling with workers is hardware-dependent — on a
   single-core container the configurations collapse to the same QPS
   and only the admission/queueing behavior differs. *)
let serve_bench () =
  let module Obs = Xqc_obs.Obs in
  let module Trace = Xqc_obs.Trace in
  let module Server = Xqc_server.Server in
  let module Client = Xqc_server.Client in
  let size = 1_000_000 in
  let n_clients = 4 in
  let duration = 3.0 in
  let doc_path = Filename.temp_file "xqc-bench-doc" ".xml" in
  let oc = open_out_bin doc_path in
  output_string oc (Xqc_workload.Xmark.generate_string ~seed:42 ~target_bytes:size ());
  close_out oc;
  let queries =
    [|
      "count($auction//item)";
      "count($auction//person)";
      "count(for $i in $auction//item where $i/location = \"United States\" \
       return $i)";
      "for $p in $auction/site/people/person where $p/@id = \"person0\" \
       return $p/name/text()";
    |]
  in
  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0.0
    else
      let rank = int_of_float (Float.round (p /. 100. *. float_of_int n +. 0.5)) - 1 in
      sorted.(max 0 (min (n - 1) rank))
  in
  Printf.eprintf
    "=== Query service: %d client threads, %.0fs per config, %dKB XMark doc ===\n%!"
    n_clients duration (size / 1000);
  Printf.printf "%-10s %-6s %9s %9s %9s %9s %9s %9s %9s %9s\n" "workers"
    "trace" "requests" "qps" "p50 ms" "p95 ms" "p99 ms" "qwait ms" "eval ms"
    "lockw ms";
  let json_field name = function
    | Obs.Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  let json_num ?(default = 0.0) name json =
    match json_field name json with
    | Some (Obs.Float f) -> f
    | Some (Obs.Int n) -> float_of_int n
    | _ -> default
  in
  let records =
    List.map
      (fun (workers, trace_sample) ->
        (* Lock stats and trace rings are process-global and interned by
           name: reset between configs so each scrape attributes wait
           time to its own configuration only. *)
        Obs.reset_lock_stats ();
        Trace.reset ();
        let sock = Filename.temp_file "xqc-bench" ".sock" in
        let ready_lock = Mutex.create () in
        let ready_cond = Condition.create () in
        let is_ready = ref false in
        let cfg =
          {
            Server.default_config with
            unix_socket = Some sock;
            workers;
            queue_depth = 256;
            preload = [ ("auction", doc_path) ];
            trace_sample;
            slow_ms = 250.0;
          }
        in
        let server_thread =
          Thread.create
            (fun () ->
              Server.serve
                ~ready:(fun () ->
                  Mutex.protect ready_lock (fun () ->
                      is_ready := true;
                      Condition.signal ready_cond))
                cfg)
            ()
        in
        Mutex.lock ready_lock;
        while not !is_ready do
          Condition.wait ready_cond ready_lock
        done;
        Mutex.unlock ready_lock;
        let latencies = Array.make n_clients [] in
        let t_start = Obs.now () in
        let t_end = t_start +. duration in
        let client_loop k () =
          let c = Client.connect_unix sock in
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          let acc = ref [] in
          let i = ref k in
          while Obs.now () < t_end do
            let q = queries.(!i mod Array.length queries) in
            incr i;
            let t0 = Obs.now () in
            (match Client.query c q with
            | Ok _ -> acc := ((Obs.now () -. t0) *. 1000.) :: !acc
            | Error (code, m) -> Printf.eprintf "request failed: %s: %s\n%!" code m)
          done;
          latencies.(k) <- !acc
        in
        let clients = List.init n_clients (fun k -> Thread.create (client_loop k) ()) in
        List.iter Thread.join clients;
        let elapsed = Obs.now () -. t_start in
        (* Scrape the server-side breakdown before shutting down: where
           did the wall time go — queued, evaluating, serializing, or
           blocked on a lock? *)
        let metrics =
          let c = Client.connect_unix sock in
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          let m = Client.metrics c in
          Client.shutdown c;
          m
        in
        Thread.join server_thread;
        let hist_mean name =
          match json_field name metrics with
          | Some h -> json_num "mean" h
          | None -> 0.0
        in
        let qwait_mean = hist_mean "queue_wait_ms" in
        let eval_mean = hist_mean "eval_ms" in
        let ser_mean = hist_mean "serialize_ms" in
        let locks =
          match json_field "locks" metrics with
          | Some (Obs.Arr l) -> l
          | _ -> []
        in
        let lock_wait_total =
          List.fold_left (fun acc lk -> acc +. json_num "wait_ms" lk) 0.0 locks
        in
        let worker_util =
          match json_field "workers_detail" metrics with
          | Some (Obs.Arr ws) ->
              Obs.Arr
                (List.map (fun w -> Obs.Float (json_num "utilization" w)) ws)
          | _ -> Obs.Arr []
        in
        let all = Array.of_list (List.concat (Array.to_list latencies)) in
        Array.sort compare all;
        let n = Array.length all in
        let qps = float_of_int n /. elapsed in
        let p50 = percentile all 50. in
        let p95 = percentile all 95. in
        let p99 = percentile all 99. in
        Printf.printf
          "%-10d %-6s %9d %9.1f %9.3f %9.3f %9.3f %9.3f %9.3f %9.1f\n%!"
          workers
          (if trace_sample > 0.0 then "on" else "off")
          n qps p50 p95 p99 qwait_mean eval_mean lock_wait_total;
        Obs.Obj
          [
            ("workers", Obs.Int workers);
            ("trace_sample", Obs.Float trace_sample);
            ("requests", Obs.Int n);
            ("qps", Obs.Float qps);
            ("p50_ms", Obs.Float p50);
            ("p95_ms", Obs.Float p95);
            ("p99_ms", Obs.Float p99);
            ("queue_wait_mean_ms", Obs.Float qwait_mean);
            ("eval_mean_ms", Obs.Float eval_mean);
            ("serialize_mean_ms", Obs.Float ser_mean);
            ("lock_wait_total_ms", Obs.Float lock_wait_total);
            ("worker_utilization", worker_util);
            ("locks", Obs.Arr locks);
          ])
      [ (1, 0.0); (1, 1.0); (2, 1.0); (4, 1.0) ]
  in
  (try Sys.remove doc_path with Sys_error _ -> ());
  (* Tracing overhead: QPS delta between the two 1-worker runs (sampled
     out vs every request traced). *)
  let qps_of pred =
    List.find_map
      (fun r ->
        match r with
        | Obs.Obj fields
          when pred
                 ( json_num "workers" r |> int_of_float,
                   json_num "trace_sample" r ) ->
            Some (json_num "qps" (Obs.Obj fields))
        | _ -> None)
      records
  in
  let trace_overhead_pct =
    match
      ( qps_of (fun (w, ts) -> w = 1 && ts = 0.0),
        qps_of (fun (w, ts) -> w = 1 && ts > 0.0) )
    with
    | Some off, Some on when off > 0.0 -> (off -. on) /. off *. 100.0
    | _ -> 0.0
  in
  Printf.eprintf "tracing overhead at 1 worker: %.2f%% QPS\n%!"
    trace_overhead_pct;
  let record =
    Obs.Obj
      [
        ("bench", Obs.Str "serve");
        ("doc_bytes", Obs.Int size);
        ("clients", Obs.Int n_clients);
        ("duration_s", Obs.Float duration);
        ("recommended_domains", Obs.Int (Domain.recommended_domain_count ()));
        ("trace_overhead_pct", Obs.Float trace_overhead_pct);
        ("configs", Obs.Arr records);
      ]
  in
  let path = Option.value !metrics_json_file ~default:"bench/BENCH_server.json" in
  (try
     let oc = open_out_bin path in
     output_string oc (Obs.json_to_string record);
     output_char oc '\n';
     close_out oc;
     Printf.eprintf "wrote %s\n%!" path
   with Sys_error m -> Printf.eprintf "could not write %s: %s\n%!" path m)

(* ------------------------------------------------------------------ *)
(* Update microbenchmark                                               *)
(* ------------------------------------------------------------------ *)

(* Small updates against a ~1MB XMark document: the incremental path
   (one live gap-numbered tree whose structural indexes are patched in
   place) against the reparse-on-write baseline (serialize + reparse +
   reindex after every write — what keeping the indexes fresh costs
   without incremental maintenance).  Both paths answer the same
   index-backed probe after every write and must agree; the gapped
   numbering is expected to absorb every one of these small updates
   without a single full renumber. *)
let update_bench () =
  let module Obs = Xqc_obs.Obs in
  let size = 1_000_000 in
  let n_updates = 40 in
  let xml = Xqc_workload.Xmark.generate_string ~target_bytes:size () in
  let probe = "count($auction//item)" in
  let regions =
    [| "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" |]
  in
  let scripts =
    List.init n_updates (fun i ->
        match i mod 3 with
        | 0 ->
            (* Spread appends across parents: a fresh parent's tail slack
               absorbs a small subtree, but piling appends onto one parent
               would exhaust it and force full renumbers. *)
            let j = i / 3 in
            if j < Array.length regions then
              Printf.sprintf
                "insert node <item id=\"bench-%d\"><name>b%d</name></item> \
                 as last into $auction/site/regions/%s"
                i i regions.(j)
            else
              Printf.sprintf
                "insert node <incategory category=\"bench%d\"/> as last \
                 into ($auction//item)[%d]"
                i (30 + j)
        | 1 ->
            Printf.sprintf
              "replace value of node (($auction//person)[%d]/name)[1] with \
               \"r%d\""
              ((i mod 20) + 1)
              i
        | _ ->
            Printf.sprintf
              "insert node <note>touch%d</note> into \
               ($auction//open_auction)[%d]"
              i
              ((i mod 20) + 1))
  in
  let counter name =
    match List.assoc_opt name (Obs.global_counters ()) with
    | Some v -> v
    | None -> 0
  in
  let make_ctx root =
    let ctx = Xqc.context () in
    Xqc.bind_document ctx "auction.xml" root;
    Xqc.bind_variable ctx "auction" [ Xqc.Item.Node root ];
    ctx
  in
  let compiled = List.map (fun s -> Xqc.Update.compile s) scripts in
  let probe_p = Xqc.prepare ~strategy:Xqc.Saxon_like probe in
  (* incremental: one live tree, indexes patched per write *)
  let renumbers0 = counter "full_renumbers" in
  let patches0 = counter "incremental_index_patches" in
  let root = Xqc.parse_document ~uri:"auction.xml" xml in
  Xqc.Node.renumber_gapped root;
  ignore (Xqc.Store.index_nodes root);
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun c ->
      ignore (Xqc.Update.apply_to_root c ~make_ctx root);
      ignore (Xqc.run probe_p (make_ctx root)))
    compiled;
  let incr_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let renumbers = counter "full_renumbers" - renumbers0 in
  let patches = counter "incremental_index_patches" - patches0 in
  let incr_answer = Xqc.serialize (Xqc.run probe_p (make_ctx root)) in
  let incr_bytes = Xqc.serialize [ Xqc.Item.Node root ] in
  (* baseline: reparse and reindex the whole document on every write *)
  let bytes = ref xml in
  let last_answer = ref "" in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun c ->
      let r = Xqc.parse_document ~uri:"auction.xml" !bytes in
      Xqc.Node.renumber_gapped r;
      ignore (Xqc.Store.index_nodes r);
      ignore (Xqc.Update.apply_to_root c ~make_ctx r);
      bytes := Xqc.serialize [ Xqc.Item.Node r ];
      last_answer := Xqc.serialize (Xqc.run probe_p (make_ctx r)))
    compiled;
  let reparse_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let agree = String.equal incr_answer !last_answer in
  let bytes_agree = String.equal incr_bytes !bytes in
  let speedup = reparse_ms /. Float.max incr_ms 0.001 in
  Printf.eprintf
    "=== Update microbenchmark: %d small updates on a %dKB XMark document ===\n"
    n_updates (size / 1000);
  Printf.eprintf "incremental        %10.1fms  (%d index patches, %d full renumbers)\n"
    incr_ms patches renumbers;
  Printf.eprintf "reparse-on-write   %10.1fms\n" reparse_ms;
  Printf.eprintf "speedup            %10.1fx  (answers agree: %b, bytes agree: %b)\n"
    speedup agree bytes_agree;
  let record =
    Obs.Obj
      [
        ("bench", Obs.Str "update");
        ("doc_bytes", Obs.Int size);
        ("updates", Obs.Int n_updates);
        ("incremental_ms", Obs.Float incr_ms);
        ("reparse_ms", Obs.Float reparse_ms);
        ("speedup", Obs.Float speedup);
        ("full_renumbers", Obs.Int renumbers);
        ("incremental_index_patches", Obs.Int patches);
        ("probe", Obs.Str probe);
        ("final_answer", Obs.Str incr_answer);
        ("answers_agree", Obs.Bool agree);
        ("bytes_agree", Obs.Bool bytes_agree);
      ]
  in
  let path = Option.value !metrics_json_file ~default:"bench/BENCH_update.json" in
  (try
     let oc = open_out_bin path in
     output_string oc (Obs.json_to_string record);
     output_char oc '\n';
     close_out oc;
     Printf.eprintf "wrote %s\n%!" path
   with Sys_error m -> Printf.eprintf "could not write %s: %s\n%!" path m);
  if not (agree && bytes_agree) then (
    Printf.eprintf "FAIL: incremental and reparse-on-write paths diverged\n";
    Stdlib.exit 1)

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let flags, cmds = List.partition (fun a -> String.length a > 2 && String.sub a 0 2 = "--") (List.tl args) in
  if List.mem "--paper" flags then (
    paper_scale := true;
    cell_timeout := 7200.0);
  List.iter
    (fun f ->
      let with_prefix prefix k =
        let n = String.length prefix in
        if String.length f > n && String.sub f 0 n = prefix then
          k (String.sub f n (String.length f - n))
      in
      with_prefix "--timeout=" (fun v -> cell_timeout := float_of_string v);
      with_prefix "--json=" (fun v -> metrics_json_file := Some v))
    flags;
  let run = function
    | "table3" -> table3 ()
    | "table4" -> table4 ()
    | "table5" -> table5 ()
    | "figure4" -> figure4 ()
    | "saxon" -> saxon ()
    | "ablation" -> ablation ()
    | "metrics" -> metrics ()
    | "early-exit" -> early_exit ()
    | "axis-index" -> axis_index ()
    | "fused" -> fused_bench ()
    | "planner" -> planner_bench ()
    | "micro" -> micro ()
    | "scale" -> scale_bench ()
    | "update" -> update_bench ()
    | "serve" -> serve_bench ()
    | "all" ->
        figure4 ();
        table3 ();
        table4 ();
        table5 ();
        saxon ();
        ablation ()
    | other ->
        Printf.eprintf
          "unknown benchmark %S (expected table3|table4|table5|figure4|saxon|ablation|metrics|early-exit|axis-index|fused|planner|micro|scale|update|serve|all)\n"
          other;
        Stdlib.exit 1
  in
  match cmds with [] -> run "all" | cmds -> List.iter run cmds
