(* The tracing and contention-telemetry plane in isolation: trace-id
   determinism under a seed, span-tree well-formedness, the per-domain
   ring store, the ambient current-trace helpers, instrumented-mutex
   contention accounting, the slow-query ring's threshold / eviction /
   cross-domain-merge behavior, and the Prometheus text renderer. *)

module Obs = Xqc.Obs
module Trace = Xqc.Trace
module Slow_log = Xqc.Slow_log

(* ------------------------------------------------------------------ *)
(* Trace ids and span trees                                            *)
(* ------------------------------------------------------------------ *)

let test_deterministic_ids () =
  Trace.reset ~seed:100 ();
  let t1 = Trace.start ~op:"query" () in
  let t2 = Trace.start ~op:"query" () in
  let t3 = Trace.start ~op:"execute" () in
  Alcotest.(check (list int))
    "seeded ids are sequential" [ 100; 101; 102 ]
    [ Trace.id t1; Trace.id t2; Trace.id t3 ];
  Trace.reset ~seed:100 ();
  let t4 = Trace.start ~op:"query" () in
  Alcotest.(check int) "reseeding restarts the sequence" 100 (Trace.id t4)

let test_span_tree_shape () =
  Trace.reset ~seed:1 ();
  let tr = Trace.start ~op:"query" () in
  Trace.set_source tr "1+1";
  Trace.span tr "outer" (fun () ->
      Trace.span tr "inner" (fun () -> Trace.event tr "tick");
      Trace.span tr ~attrs:[ ("k", "v") ] "sibling" ignore);
  ignore (Trace.finish tr ~outcome:"ok");
  (match Trace.well_formed tr with
  | Ok () -> ()
  | Error m -> Alcotest.failf "trace not well-formed: %s" m);
  let spans = Trace.spans tr in
  Alcotest.(check (list string))
    "creation order"
    [ "request"; "outer"; "inner"; "tick"; "sibling" ]
    (List.map (fun sp -> sp.Trace.sp_name) spans);
  let by_name n = List.find (fun sp -> sp.Trace.sp_name = n) spans in
  let root = by_name "request" and outer = by_name "outer" in
  Alcotest.(check int) "root has no parent" 0 root.Trace.sp_parent;
  Alcotest.(check int) "outer under root" root.Trace.sp_id outer.Trace.sp_parent;
  Alcotest.(check int)
    "inner under outer" outer.Trace.sp_id (by_name "inner").Trace.sp_parent;
  Alcotest.(check int)
    "sibling under outer" outer.Trace.sp_id (by_name "sibling").Trace.sp_parent;
  Alcotest.(check bool)
    "attrs recorded" true
    (List.mem_assoc "k" (by_name "sibling").Trace.sp_attrs)

let test_finish_closes_stragglers () =
  Trace.reset ~seed:1 ();
  let tr = Trace.start ~op:"query" () in
  let _open1 = Trace.open_span tr "left-open" in
  let _open2 = Trace.open_span tr "also-open" in
  let total = Trace.finish tr ~outcome:"error" in
  Alcotest.(check bool) "finished" true tr.Trace.tr_finished;
  Alcotest.(check bool) "nonnegative total" true (total >= 0.0);
  (match Trace.well_formed tr with
  | Ok () -> ()
  | Error m -> Alcotest.failf "straggler close broke nesting: %s" m);
  (* idempotent: a second finish neither re-stores nor restamps *)
  let again = Trace.finish tr ~outcome:"ok" in
  Alcotest.(check (float 0.0)) "finish is idempotent" total again;
  Alcotest.(check string) "first outcome wins" "error" tr.Trace.tr_outcome

let test_exception_records_error_attr () =
  Trace.reset ~seed:1 ();
  let tr = Trace.start ~op:"query" () in
  (try Trace.span tr "boom" (fun () -> failwith "nope")
   with Failure _ -> ());
  ignore (Trace.finish tr ~outcome:"error");
  let sp = List.find (fun sp -> sp.Trace.sp_name = "boom") (Trace.spans tr) in
  Alcotest.(check bool)
    "error attribute present" true
    (List.mem_assoc "error" sp.Trace.sp_attrs)

(* ------------------------------------------------------------------ *)
(* The ring store                                                      *)
(* ------------------------------------------------------------------ *)

let test_ring_find_and_recent () =
  Trace.reset ~seed:500 ();
  let finished =
    List.init 5 (fun i ->
        let tr = Trace.start ~op:(Printf.sprintf "op%d" i) () in
        ignore (Trace.finish tr ~outcome:"ok");
        tr)
  in
  let unfinished = Trace.start ~op:"pending" () in
  Alcotest.(check int) "all finished stored" 5 (Trace.stored_count ());
  List.iter
    (fun tr ->
      match Trace.find (Trace.id tr) with
      | Some found ->
          Alcotest.(check string) "found the right trace" tr.Trace.tr_op
            found.Trace.tr_op
      | None -> Alcotest.failf "trace %d not found" (Trace.id tr))
    finished;
  Alcotest.(check bool)
    "unfinished traces are not stored" true
    (Trace.find (Trace.id unfinished) = None);
  let recent2 = Trace.recent 2 in
  Alcotest.(check int) "recent bounds the count" 2 (List.length recent2)

let test_ring_across_domains () =
  Trace.reset ~seed:1000 ();
  let per_domain = 10 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              let tr = Trace.start ~op:"query" () in
              Trace.span tr "eval" ignore;
              ignore (Trace.finish tr ~outcome:"ok")
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int)
    "every domain's traces are visible" (4 * per_domain)
    (Trace.stored_count ())

(* ------------------------------------------------------------------ *)
(* Ambient current trace                                               *)
(* ------------------------------------------------------------------ *)

let test_ambient_current () =
  Trace.reset ~seed:1 ();
  Alcotest.(check bool) "no ambient trace by default" true (Trace.current () = None);
  Trace.in_span "ignored" ignore;
  let tr = Trace.start ~op:"query" () in
  Trace.with_current tr (fun () ->
      Trace.in_span "inner" (fun () ->
          Trace.annotate_current [ ("hit", "true") ]));
  Alcotest.(check bool) "ambient restored" true (Trace.current () = None);
  ignore (Trace.finish tr ~outcome:"ok");
  let sp = List.find (fun sp -> sp.Trace.sp_name = "inner") (Trace.spans tr) in
  Alcotest.(check bool)
    "ambient span recorded with annotation" true
    (List.mem_assoc "hit" sp.Trace.sp_attrs)

(* ------------------------------------------------------------------ *)
(* Instrumented mutexes                                                *)
(* ------------------------------------------------------------------ *)

let test_tmutex_contention () =
  Obs.reset_lock_stats ();
  let m = Obs.tmutex "test_contended" in
  let counter = ref 0 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Obs.with_lock m (fun () -> incr counter)
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "mutual exclusion held" 4000 !counter;
  let lk =
    List.find (fun lk -> lk.Obs.lk_name = "test_contended") (Obs.lock_summaries ())
  in
  Alcotest.(check int) "every acquisition counted" 4000 lk.Obs.lk_acquires;
  Alcotest.(check bool) "hold time accumulated" true (lk.Obs.lk_hold_ms >= 0.0);
  Alcotest.(check bool)
    "contended never exceeds acquires" true
    (lk.Obs.lk_contended <= lk.Obs.lk_acquires)

let test_tmutex_shared_stats_record () =
  Obs.reset_lock_stats ();
  let a = Obs.tmutex "test_shared_name" in
  let b = Obs.tmutex "test_shared_name" in
  Obs.with_lock a ignore;
  Obs.with_lock b ignore;
  (* two instances, one stats record: independent mutexes, merged line *)
  Obs.with_lock a (fun () -> Obs.with_lock b ignore);
  let lk =
    List.find (fun lk -> lk.Obs.lk_name = "test_shared_name") (Obs.lock_summaries ())
  in
  Alcotest.(check int) "acquisitions merged by name" 4 lk.Obs.lk_acquires

(* ------------------------------------------------------------------ *)
(* Slow-query ring                                                     *)
(* ------------------------------------------------------------------ *)

(* A finished request trace whose total time is exactly [ms]. *)
let finished ms =
  let tr = Trace.start ~op:"query" () in
  Trace.set_source tr (Printf.sprintf "q%.0f" ms);
  ignore (Trace.finish tr ~outcome:"ok");
  tr.Trace.tr_total_ms <- ms;
  tr

let admitted sl ms = Slow_log.note sl (finished ms) <> None

let entry_times sl =
  List.map (fun e -> e.Slow_log.en_trace.Trace.tr_total_ms) (Slow_log.entries sl)

let test_slow_log_threshold () =
  let sl = Slow_log.create ~capacity:4 ~threshold_ms:50.0 () in
  Alcotest.(check bool) "under threshold rejected" false (admitted sl 49.9);
  Alcotest.(check bool) "at threshold admitted" true (admitted sl 50.0);
  Alcotest.(check bool) "over threshold admitted" true (admitted sl 51.0);
  Alcotest.(check int) "seen counts over-threshold offers" 2 (Slow_log.seen sl);
  Alcotest.(check (list (float 0.0))) "worst first" [ 51.0; 50.0 ] (entry_times sl)

let test_slow_log_eviction () =
  let sl = Slow_log.create ~capacity:3 ~threshold_ms:1.0 () in
  List.iter (fun ms -> ignore (admitted sl ms)) [ 10.0; 30.0; 20.0; 40.0; 5.0 ];
  (* capacity 3: 5.0 never displaces anything, 40.0 evicts 10.0 *)
  Alcotest.(check (list (float 0.0)))
    "keeps the global worst three, sorted" [ 40.0; 30.0; 20.0 ] (entry_times sl);
  Alcotest.(check bool) "full ring rejects a non-improvement" false (admitted sl 15.0);
  Alcotest.(check bool) "full ring admits an improvement" true (admitted sl 25.0);
  Alcotest.(check (list (float 0.0)))
    "improvement displaces the least-slow" [ 40.0; 30.0; 25.0 ] (entry_times sl)

let test_slow_log_racing_domains () =
  let sl = Slow_log.create ~capacity:8 ~threshold_ms:1.0 () in
  (* Four domains racing 50 inserts each with distinct durations; no
     matter the interleaving, the final contents must be exactly the
     global worst eight. *)
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 49 do
              ignore (admitted sl (float_of_int (2 + (i * 4) + d)))
            done))
  in
  List.iter Domain.join domains;
  let want = List.init 8 (fun i -> float_of_int (201 - i)) in
  Alcotest.(check (list (float 0.0))) "global top-8 survives the race" want
    (entry_times sl)

let test_slow_log_explain_attach () =
  let sl = Slow_log.create ~capacity:2 ~threshold_ms:1.0 () in
  (match Slow_log.note sl (finished 10.0) with
  | Some e -> Slow_log.set_explain sl e "PLAN"
  | None -> Alcotest.fail "over-threshold trace not admitted");
  match Slow_log.entries sl with
  | [ stored ] ->
      Alcotest.(check (option string)) "explain attached" (Some "PLAN")
        stored.Slow_log.en_explain
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Prometheus text renderer                                            *)
(* ------------------------------------------------------------------ *)

let test_prometheus_rendering () =
  let text =
    Obs.prometheus_to_string
      [
        Obs.Prom_counter
          ( "xqc_requests_total",
            "Total requests.",
            [ ([], 42.0); ([ ("worker", "0") ], 7.0) ] );
        Obs.Prom_gauge ("xqc_queue_depth", "Queued \"requests\"\nnow.", [ ([], 3.0) ]);
        Obs.Prom_summary
          ( "xqc_latency_ms",
            "Latency.",
            [ (0.5, 1.25); (0.99, 9.0) ],
            100.5,
            17 );
      ]
  in
  let has s =
    let n = String.length s and m = String.length text in
    let rec at i = i + n <= m && (String.sub text i n = s || at (i + 1)) in
    at 0
  in
  List.iter
    (fun line ->
      if not (has line) then
        Alcotest.failf "missing %S in rendered text:\n%s" line text)
    [
      "# HELP xqc_requests_total Total requests.";
      "# TYPE xqc_requests_total counter";
      "xqc_requests_total 42";
      "xqc_requests_total{worker=\"0\"} 7";
      "# TYPE xqc_queue_depth gauge";
      (* newline in help must be escaped, not literal *)
      "Queued \"requests\"\\nnow.";
      "# TYPE xqc_latency_ms summary";
      "xqc_latency_ms{quantile=\"0.5\"} 1.25";
      "xqc_latency_ms{quantile=\"0.99\"} 9";
      "xqc_latency_ms_sum 100.5";
      "xqc_latency_ms_count 17";
    ]

let () =
  Alcotest.run "trace"
    [
      ( "ids",
        [ Alcotest.test_case "deterministic ids" `Quick test_deterministic_ids ] );
      ( "spans",
        [
          Alcotest.test_case "span tree shape" `Quick test_span_tree_shape;
          Alcotest.test_case "finish closes stragglers" `Quick
            test_finish_closes_stragglers;
          Alcotest.test_case "exception error attr" `Quick
            test_exception_records_error_attr;
        ] );
      ( "rings",
        [
          Alcotest.test_case "find and recent" `Quick test_ring_find_and_recent;
          Alcotest.test_case "across domains" `Quick test_ring_across_domains;
        ] );
      ( "ambient",
        [ Alcotest.test_case "current trace" `Quick test_ambient_current ] );
      ( "locks",
        [
          Alcotest.test_case "contention stats" `Quick test_tmutex_contention;
          Alcotest.test_case "shared stats record" `Quick
            test_tmutex_shared_stats_record;
        ] );
      ( "slowlog",
        [
          Alcotest.test_case "threshold" `Quick test_slow_log_threshold;
          Alcotest.test_case "eviction order" `Quick test_slow_log_eviction;
          Alcotest.test_case "racing domains" `Quick test_slow_log_racing_domains;
          Alcotest.test_case "explain attach" `Quick test_slow_log_explain_attach;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "text exposition" `Quick test_prometheus_rendering;
        ] );
    ]
