(* The query service end to end, in process: a server thread (accept
   loop + worker domains) exercised through real Unix-domain sockets by
   concurrent clients — correctness under parallelism, prepared-statement
   reuse through the shared plan cache, deadline and admission-control
   error paths, graceful shutdown, and the determinism of parallel plan
   compilation (the gensym that used to be a global is now domain-local). *)

module Server = Xqc_server.Server
module Client = Xqc_server.Client
module Json_parse = Xqc_server.Json_parse
module Obs = Xqc.Obs

let tmp = Filename.get_temp_dir_name ()
let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat tmp
    (Printf.sprintf "xqc-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)

(* One small XMark document shared by all service tests. *)
let xmark_path =
  lazy
    (let path =
       Filename.concat tmp (Printf.sprintf "xqc-test-%d-xmark.xml" (Unix.getpid ()))
     in
     let s = Xqc_workload.Xmark.generate_string ~seed:42 ~target_bytes:150_000 () in
     let oc = open_out_bin path in
     output_string oc s;
     close_out oc;
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     path)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Evaluate [q] locally against the XMark doc — the oracle the server's
   answers must match. *)
let expected_results queries =
  let ctx = Xqc.context () in
  let doc = Xqc.parse_document ~uri:"auction.xml" (read_file (Lazy.force xmark_path)) in
  Xqc.bind_variable ctx "auction" [ Xqc.Item.Node doc ];
  List.map (fun q -> (q, Xqc.serialize (Xqc.run (Xqc.prepare q) ctx))) queries

(* Run [f sock] against a live server; always shut it down afterwards. *)
let with_server ?(workers = 2) ?(queue_depth = 64) ?default_timeout_ms
    ?(preload = []) ?(trace_sample = 1.0) ?(slow_ms = 100.0)
    ?(slow_analyze = true) f =
  let sock = fresh_sock () in
  let ready_lock = Mutex.create () in
  let ready_cond = Condition.create () in
  let is_ready = ref false in
  let cfg =
    {
      Server.default_config with
      unix_socket = Some sock;
      workers;
      queue_depth;
      default_timeout_ms;
      preload;
      trace_sample;
      slow_ms;
      slow_analyze;
    }
  in
  let th =
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
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = Client.connect_unix sock in
         (try Client.shutdown c with _ -> ());
         Client.close c
       with _ -> ());
      Thread.join th)
    (fun () -> f sock)

let preload_xmark () = [ ("auction", Lazy.force xmark_path) ]

(* A query whose dependent inner loop makes the evaluator hit its
   per-tuple deadline checks for roughly [n^2 / 1e6] cpu-seconds. *)
let slow_query n =
  Printf.sprintf
    "count(for $i in 1 to %d for $j in 1 to %d where $i * $j = -1 return 1)" n n

let check_ok what = function
  | Ok v -> v
  | Error (code, m) -> Alcotest.failf "%s: unexpected error %s: %s" what code m

(* JSON accessors for poking at stats / metrics / trace responses. *)
let jfield name = function
  | Obs.Obj fields -> List.assoc_opt name fields
  | _ -> None

let jint what name json =
  match jfield name json with
  | Some (Obs.Int n) -> n
  | _ -> Alcotest.failf "%s: no integer field %S" what name

let jnum what name json =
  match jfield name json with
  | Some (Obs.Float f) -> f
  | Some (Obs.Int n) -> float_of_int n
  | _ -> Alcotest.failf "%s: no numeric field %S" what name

let jarr what name json =
  match jfield name json with
  | Some (Obs.Arr l) -> l
  | _ -> Alcotest.failf "%s: no array field %S" what name

let jstr what name json =
  match jfield name json with
  | Some (Obs.Str s) -> s
  | _ -> Alcotest.failf "%s: no string field %S" what name

(* ------------------------------------------------------------------ *)
(* JSON wire format                                                    *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let cases =
    [
      {|{"op":"query","q":"1+1","id":7,"timeout_ms":250}|};
      {|[1,-2.5,1e3,true,false,null,"a\"b\\c\nd"]|};
      {|{"nested":{"deep":[{"x":[]},{}]},"u":"é☃😀"}|};
    ]
  in
  (* print/parse stabilizes after one round trip (a float like 1e3
     prints as an integer literal, so values need one normalization) *)
  List.iter
    (fun s ->
      let printed = Obs.json_to_string (Json_parse.parse s) in
      let reprinted = Obs.json_to_string (Json_parse.parse printed) in
      Alcotest.(check string) s printed reprinted)
    cases;
  (match Json_parse.parse "42" with
  | Obs.Int 42 -> ()
  | _ -> Alcotest.fail "integer did not parse as Int");
  List.iter
    (fun bad ->
      match Json_parse.parse bad with
      | exception Json_parse.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed input %S" bad)
    [ "{"; "[1,]"; "{\"a\":1"; "tru"; "1 2"; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* Concurrent correctness                                              *)
(* ------------------------------------------------------------------ *)

let test_concurrent_clients () =
  let queries =
    [
      "count($auction//item)";
      "count($auction//person)";
      "count($auction//bidder)";
      "for $p in $auction/site/people/person where $p/@id = \"person0\" \
       return $p/name/text()";
      "count(for $i in $auction//item where $i/location = \"United States\" \
       return $i)";
    ]
  in
  let expected = expected_results queries in
  with_server ~workers:3 ~preload:(preload_xmark ()) @@ fun sock ->
  let n_clients = 3 and rounds = 3 in
  let failures = ref [] in
  let fail_lock = Mutex.create () in
  let client_loop k () =
    let c = Client.connect_unix sock in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    for r = 0 to rounds - 1 do
      List.iteri
        (fun i (q, want) ->
          (* stagger the order per client so they collide on different
             plans at different times *)
          ignore (r + i + k);
          match Client.query c q with
          | Ok got when got = want -> ()
          | Ok got ->
              Mutex.protect fail_lock (fun () ->
                  failures := Printf.sprintf "%s: got %S want %S" q got want :: !failures)
          | Error (code, m) ->
              Mutex.protect fail_lock (fun () ->
                  failures := Printf.sprintf "%s: error %s: %s" q code m :: !failures))
        expected
    done
  in
  let threads = List.init n_clients (fun k -> Thread.create (client_loop k) ()) in
  List.iter Thread.join threads;
  match !failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%d wrong answers under concurrency, e.g. %s"
        (List.length !failures) f

(* ------------------------------------------------------------------ *)
(* Prepared statements and the shared plan cache                       *)
(* ------------------------------------------------------------------ *)

let test_prepared_reuse () =
  let q = "count($auction//open_auction)" in
  let want =
    match expected_results [ q ] with
    | [ (_, w) ] -> w
    | _ -> Alcotest.fail "oracle evaluation failed"
  in
  with_server ~workers:2 ~preload:(preload_xmark ()) @@ fun sock ->
  let c1 = Client.connect_unix sock in
  let c2 = Client.connect_unix sock in
  Fun.protect
    ~finally:(fun () ->
      Client.close c1;
      Client.close c2)
  @@ fun () ->
  let hits_before =
    Option.value (Client.stat_counter (Client.stats c1) "plan_cache_hits") ~default:0
  in
  ignore (check_ok "prepare" (Result.map (fun () -> "") (Client.prepare c1 ~name:"auctions" q)));
  for _ = 1 to 3 do
    Alcotest.(check string) "execute via c1" want (check_ok "execute" (Client.execute c1 "auctions"));
    Alcotest.(check string) "execute via c2" want (check_ok "execute" (Client.execute c2 "auctions"))
  done;
  let hits_after =
    Option.value (Client.stat_counter (Client.stats c1) "plan_cache_hits") ~default:0
  in
  if hits_after - hits_before < 6 then
    Alcotest.failf "expected >= 6 plan-cache hits from statement reuse, got %d"
      (hits_after - hits_before);
  match Client.execute c1 "no-such-statement" with
  | Error ("unknown_statement", _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "executing an unknown statement must fail"

(* The server has no fused-tier switch of its own: `xqc serve --no-fuse`
   and XQC_FUSE=off set [Codegen.mode] before it starts, and its workers
   must then answer exactly as the fused local oracle does. *)
let test_unfused_serving () =
  let queries =
    [
      "count($auction//item)";
      "for $p in $auction/site/people/person where $p/@id = \"person0\" \
       return $p/name/text()";
      "count(for $i in $auction//item where $i/location = \"United States\" \
       return $i)";
    ]
  in
  let expected = expected_results queries in
  let saved = !Xqc.Codegen.mode in
  Xqc.Codegen.mode := Xqc.Codegen.Off;
  Fun.protect ~finally:(fun () -> Xqc.Codegen.mode := saved) @@ fun () ->
  with_server ~workers:1 ~preload:(preload_xmark ()) @@ fun sock ->
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  List.iter
    (fun (q, want) ->
      Alcotest.(check string) q want (check_ok q (Client.query c q)))
    expected

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)
(* ------------------------------------------------------------------ *)

let test_timeout () =
  with_server ~workers:1 ~preload:[] @@ fun sock ->
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let started = Obs.now () in
  (match Client.query ~timeout_ms:150 c (slow_query 2000) with
  | Error ("timeout", _) -> ()
  | Ok v -> Alcotest.failf "slow query returned %S instead of timing out" v
  | Error (code, m) -> Alcotest.failf "expected timeout, got %s: %s" code m);
  let elapsed = Obs.now () -. started in
  if elapsed > 1.5 then
    Alcotest.failf "timeout took %.2fs — deadline not enforced cooperatively" elapsed;
  (* the worker that aborted the query must still be serving *)
  Alcotest.(check string) "worker survives" "2" (check_ok "1+1" (Client.query c "1+1"))

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let test_overloaded () =
  with_server ~workers:1 ~queue_depth:1 ~preload:[] @@ fun sock ->
  (* occupy the single worker for ~2s (bounded by its own deadline) *)
  let blocker_result = ref (Error ("unset", "")) in
  let blocker =
    Thread.create
      (fun () ->
        let c = Client.connect_unix sock in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        blocker_result := Client.query ~timeout_ms:4000 c (slow_query 2000))
      ()
  in
  Thread.delay 0.3;
  let results = Array.make 4 (Error ("unset", "")) in
  let shooters =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            let c = Client.connect_unix sock in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            results.(i) <- Client.query c "1+1")
          ())
  in
  List.iter Thread.join shooters;
  Thread.join blocker;
  let overloaded =
    Array.to_list results
    |> List.filter (function Error ("overloaded", _) -> true | _ -> false)
    |> List.length
  in
  if overloaded < 1 then
    Alcotest.failf "queue overflow produced no overloaded errors (results: %s)"
      (String.concat ", "
         (Array.to_list results
         |> List.map (function
              | Ok v -> "ok:" ^ v
              | Error (c, _) -> "error:" ^ c)));
  (* whatever was admitted must still have been answered correctly *)
  Array.iter
    (function
      | Ok v -> Alcotest.(check string) "admitted answer" "2" v
      | Error ("overloaded", _) -> ()
      | Error (code, m) -> Alcotest.failf "unexpected error %s: %s" code m)
    results

(* ------------------------------------------------------------------ *)
(* Graceful shutdown                                                   *)
(* ------------------------------------------------------------------ *)

let test_shutdown_drains () =
  with_server ~workers:1 ~preload:[] @@ fun sock ->
  let inflight_result = ref (Error ("unset", "")) in
  let worker_conn =
    Thread.create
      (fun () ->
        let c = Client.connect_unix sock in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        inflight_result := Client.query c (slow_query 1000))
      ()
  in
  Thread.delay 0.15;
  (* shutdown blocks until the in-flight query has drained *)
  let c = Client.connect_unix sock in
  Client.shutdown c;
  Client.close c;
  Thread.join worker_conn;
  match !inflight_result with
  | Ok v -> Alcotest.(check string) "drained result" "0" v
  | Error (code, m) ->
      Alcotest.failf "in-flight query was not drained: %s: %s" code m

(* ------------------------------------------------------------------ *)
(* Stats, metrics and the tracing plane                                *)
(* ------------------------------------------------------------------ *)

let test_stats_fields () =
  with_server ~workers:2 ~preload:[] @@ fun sock ->
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  ignore (check_ok "warmup" (Client.query c "1+1"));
  (* the worker decrements inflight after writing the reply, so give the
     gauge a moment to settle *)
  let rec settled tries =
    let s = Client.stats c in
    if jint "stats" "inflight" s = 0 || tries = 0 then s
    else (
      Thread.delay 0.02;
      settled (tries - 1))
  in
  let s = settled 50 in
  Alcotest.(check bool) "uptime present and sane" true (jnum "stats" "uptime_s" s >= 0.0);
  Alcotest.(check int) "nothing in flight at rest" 0 (jint "stats" "inflight" s);
  (* the counter is process-global, so only presence/sanity is stable here *)
  Alcotest.(check bool) "admission_rejected reported" true
    (jint "stats" "admission_rejected" s >= 0);
  Alcotest.(check bool) "traced requests are counted" true (jint "stats" "traces" s >= 1);
  Alcotest.(check int) "queue empty at rest" 0 (jint "stats" "queue_depth" s)

let test_metrics_json () =
  with_server ~workers:2 ~preload:[] @@ fun sock ->
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  for _ = 1 to 5 do
    ignore (check_ok "query" (Client.query c "1+1"))
  done;
  Thread.delay 0.3;  (* let the gauge sampler tick a few times *)
  let m = Client.metrics c in
  Alcotest.(check bool)
    "latency histogram saw the requests" true
    (jint "metrics" "count" (Option.get (jfield "latency_ms" m)) >= 5);
  List.iter
    (fun h ->
      match jfield h m with
      | Some _ -> ()
      | None -> Alcotest.failf "metrics missing histogram %S" h)
    [ "queue_wait_ms"; "eval_ms"; "serialize_ms" ];
  let lock_names =
    List.map (fun lk -> jstr "lock" "name" lk) (jarr "metrics" "locks" m)
  in
  List.iter
    (fun name ->
      if not (List.mem name lock_names) then
        Alcotest.failf "lock table has no %S entry (got: %s)" name
          (String.concat ", " lock_names))
    [ "plan_cache"; "obs_registry"; "conn_write" ];
  Alcotest.(check int)
    "one detail row per worker" 2
    (List.length (jarr "metrics" "workers_detail" m));
  Alcotest.(check bool)
    "gauge sampler produced samples" true
    (jarr "metrics" "gauge_samples" m <> []);
  (* nothing was slower than the 100ms default threshold *)
  Alcotest.(check (list Alcotest.reject))
    "slow ring empty under threshold" []
    (jarr "metrics" "entries" (Option.get (jfield "slow_queries" m)))

(* Prometheus text exposition: HELP/TYPE headers for every family, every
   sample line parseable, and the request counter consistent with the
   load we generated. *)
let test_metrics_prometheus () =
  with_server ~workers:1 ~preload:[] @@ fun sock ->
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  for _ = 1 to 3 do
    ignore (check_ok "query" (Client.query c "1+1"))
  done;
  let text = Client.metrics_prometheus c in
  let lines = String.split_on_char '\n' text in
  let typed = Hashtbl.create 16 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | "#" :: "TYPE" :: name :: [ kind ] -> Hashtbl.replace typed name kind
      | "#" :: "HELP" :: _ -> ()
      | [ "" ] | [] -> ()
      | parts -> (
          (* sample line: NAME[{labels}] VALUE *)
          match List.rev parts with
          | value :: _ when float_of_string_opt value <> None -> ()
          | _ -> Alcotest.failf "unparseable sample line %S" line))
    lines;
  List.iter
    (fun (name, kind) ->
      match Hashtbl.find_opt typed name with
      | Some k when k = kind -> ()
      | Some k -> Alcotest.failf "%s has TYPE %s, want %s" name k kind
      | None -> Alcotest.failf "no TYPE line for %s" name)
    [
      ("xqc_server_requests_total", "counter");
      ("xqc_lock_wait_seconds_total", "counter");
      ("xqc_worker_busy_seconds_total", "counter");
      ("xqc_queue_depth", "gauge");
      ("xqc_inflight", "gauge");
      ("xqc_request_duration_milliseconds", "summary");
      ("xqc_queue_wait_milliseconds", "summary");
    ];
  let requests_line =
    List.find_opt
      (fun l ->
        String.length l > 25 && String.sub l 0 25 = "xqc_server_requests_total")
      lines
  in
  match requests_line with
  | Some l -> (
      match String.split_on_char ' ' l with
      | [ _; v ] ->
          Alcotest.(check bool)
            "request counter reflects the load" true
            (float_of_string v >= 3.0)
      | _ -> Alcotest.failf "malformed counter line %S" l)
  | None -> Alcotest.fail "no xqc_server_requests_total sample"

(* A traced request's stored span tree covers the whole life of the
   request — admission, queue wait, deadline arming, plan cache, eval,
   serialize, reply write — and the tree is well-formed (parents exist,
   intervals nest). *)
let test_trace_full_chain () =
  with_server ~workers:1 ~default_timeout_ms:10_000 ~preload:(preload_xmark ())
  @@ fun sock ->
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let resp =
    check_ok "traced query"
      (Client.query_json ~trace:true c "count($auction//item)")
  in
  let tid = jint "response" "trace_id" resp in
  (match jfield "trace" resp with
  | Some _ -> ()
  | None -> Alcotest.fail "\"trace\":true response has no embedded trace");
  (* the trace is stored just after the reply is written: poll briefly *)
  let rec fetch tries =
    match Client.fetch_trace c tid with
    | Ok tr when jfield "complete" tr = Some (Obs.Bool true) -> tr
    | _ when tries > 0 ->
        Thread.delay 0.05;
        fetch (tries - 1)
    | Ok _ -> Alcotest.fail "stored trace never marked complete"
    | Error (code, m) -> Alcotest.failf "trace fetch failed: %s: %s" code m
  in
  let tr = fetch 40 in
  let spans = jarr "trace" "spans" tr in
  let names = List.map (fun sp -> jstr "span" "name" sp) spans in
  List.iter
    (fun want ->
      if not (List.mem want names) then
        Alcotest.failf "span %S missing from chain (got: %s)" want
          (String.concat ", " names))
    [
      "request"; "admission"; "queue-wait"; "deadline-armed"; "plan-cache";
      "eval"; "serialize"; "reply-write";
    ];
  (* well-formedness over the wire representation *)
  let eps = 0.001 in
  let by_id =
    List.map (fun sp -> (jint "span" "id" sp, sp)) spans
  in
  List.iter
    (fun (id, sp) ->
      let parent = jint "span" "parent" sp in
      if parent <> 0 then
        match List.assoc_opt parent by_id with
        | None -> Alcotest.failf "span %d has unknown parent %d" id parent
        | Some psp ->
            let s = jnum "span" "start_ms" sp
            and d = jnum "span" "dur_ms" sp
            and ps = jnum "span" "start_ms" psp
            and pd = jnum "span" "dur_ms" psp in
            if s +. eps < ps then
              Alcotest.failf "span %d starts before its parent" id;
            if s +. d > ps +. pd +. eps then
              Alcotest.failf "span %d ends after its parent" id)
    by_id;
  (* an untraced fetch of a bogus id is a structured error *)
  match Client.fetch_trace c 999_999_999 with
  | Error ("unknown_trace", _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "bogus trace id must yield unknown_trace"

(* Seeded trace ids: with one worker and sequential requests the ids a
   server hands out are consecutive from the seed. *)
let test_deterministic_server_ids () =
  Xqc.Trace.set_seed 7777;
  with_server ~workers:1 ~preload:[] @@ fun sock ->
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let ids =
    List.init 3 (fun _ ->
        jint "response" "trace_id"
          (check_ok "traced query" (Client.query_json ~trace:true c "1+1")))
  in
  Alcotest.(check (list int)) "consecutive from the seed" [ 7777; 7778; 7779 ] ids

(* With a threshold of effectively zero every request is slow: the ring
   fills, entries keep their span timelines, and the analyzer attaches
   an EXPLAIN ANALYZE re-run. *)
let test_slow_query_ring () =
  with_server ~workers:1 ~preload:(preload_xmark ()) ~slow_ms:0.001
  @@ fun sock ->
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let q = "count($auction//item)" in
  ignore (check_ok "query" (Client.query c q));
  (* note_slow runs after the reply is written: poll for the analysis *)
  let rec poll tries =
    let m = Client.metrics c in
    let slow = Option.get (jfield "slow_queries" m) in
    match jarr "slow" "entries" slow with
    | e :: _ when jfield "explain" e <> None -> e
    | _ when tries > 0 ->
        Thread.delay 0.05;
        poll (tries - 1)
    | e :: _ -> e
    | [] -> Alcotest.fail "no slow-ring entry for an over-threshold request"
  in
  let e = poll 60 in
  Alcotest.(check string) "entry keeps the source" q (jstr "entry" "source" e);
  Alcotest.(check string) "outcome recorded" "ok" (jstr "entry" "outcome" e);
  Alcotest.(check bool) "span timeline attached" true (jarr "entry" "spans" e <> []);
  (match jfield "explain" e with
  | Some (Obs.Str text) ->
      Alcotest.(check bool) "explain analyze non-empty" true
        (String.length text > 0)
  | _ -> Alcotest.fail "no EXPLAIN ANALYZE attached to the slow entry");
  Alcotest.(check bool) "trace id linked" true (jint "entry" "trace_id" e > 0)

(* The slow ring records each request's real outcome code, not just
   "ok": a malformed character reference is a query error, and a query
   past its deadline a timeout. *)
let test_slow_ring_outcomes () =
  with_server ~workers:1 ~slow_ms:0.001 ~slow_analyze:false @@ fun sock ->
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let bad = {|"&#-5;"|} and slow = slow_query 2000 in
  (match Client.query c bad with
  | Error (code, _) -> Alcotest.(check string) "bad reference" "query_error" code
  | Ok v -> Alcotest.failf "bad reference returned %S" v);
  (match Client.query ~timeout_ms:100 c slow with
  | Error (code, _) -> Alcotest.(check string) "deadline" "timeout" code
  | Ok v -> Alcotest.failf "slow query returned %S instead of timing out" v);
  (* note_slow runs after the reply is written: poll for both entries *)
  let rec poll tries =
    let m = Client.metrics c in
    let entries = jarr "slow" "entries" (Option.get (jfield "slow_queries" m)) in
    let outcome_of q =
      List.find_map
        (fun e ->
          if String.equal (jstr "entry" "source" e) q then Some (jstr "entry" "outcome" e)
          else None)
        entries
    in
    match (outcome_of bad, outcome_of slow) with
    | Some a, Some b -> (a, b)
    | _ when tries > 0 ->
        Thread.delay 0.05;
        poll (tries - 1)
    | _ -> Alcotest.fail "slow ring is missing an entry"
  in
  let bad_outcome, slow_outcome = poll 60 in
  Alcotest.(check string) "query error recorded" "query_error" bad_outcome;
  Alcotest.(check string) "timeout recorded" "timeout" slow_outcome

(* ------------------------------------------------------------------ *)
(* Parallel plan compilation is deterministic                          *)
(* ------------------------------------------------------------------ *)

(* Regression for the formerly-global gensym: two domains compiling
   different queries at once must each produce exactly the plan a
   sequential compile produces (fresh field names neither collide nor
   depend on interleaving). *)
let test_parallel_prepare_deterministic () =
  let qa =
    "for $p in $auction//person for $i in $auction//item where $p/@id = \
     $i/@featured return $p/name"
  in
  let qb =
    "for $x in (1,2,3) let $y := for $z in (4,5,6) where $z = $x + 3 return \
     $z return count($y)"
  in
  let plan_str q =
    let p = Xqc.prepare ~strategy:Xqc.Optimized q in
    match p.Xqc.plan with
    | Some plan -> Xqc.Pretty.to_string plan
    | None -> Alcotest.fail "optimized strategy produced no logical plan"
  in
  let want_a = plan_str qa and want_b = plan_str qb in
  for _ = 1 to 3 do
    let da = Domain.spawn (fun () -> plan_str qa) in
    let db = Domain.spawn (fun () -> plan_str qb) in
    let got_a = Domain.join da and got_b = Domain.join db in
    Alcotest.(check string) "plan A stable under parallel compilation" want_a got_a;
    Alcotest.(check string) "plan B stable under parallel compilation" want_b got_b
  done

let () =
  Alcotest.run "server"
    [
      ("wire", [ Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip ]);
      ( "service",
        [
          Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
          Alcotest.test_case "prepared reuse" `Quick test_prepared_reuse;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "overloaded" `Quick test_overloaded;
          Alcotest.test_case "shutdown drains" `Quick test_shutdown_drains;
          Alcotest.test_case "unfused serving" `Quick test_unfused_serving;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "stats fields" `Quick test_stats_fields;
          Alcotest.test_case "metrics json" `Quick test_metrics_json;
          Alcotest.test_case "metrics prometheus" `Quick test_metrics_prometheus;
          Alcotest.test_case "trace full chain" `Quick test_trace_full_chain;
          Alcotest.test_case "deterministic ids" `Quick
            test_deterministic_server_ids;
          Alcotest.test_case "slow query ring" `Quick test_slow_query_ring;
          Alcotest.test_case "slow ring outcomes" `Quick test_slow_ring_outcomes;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "parallel prepare" `Quick
            test_parallel_prepare_deterministic;
        ] );
    ]
