(* The query service: a long-lived process that parses and indexes its
   documents once, then answers XQuery requests over newline-delimited
   JSON (see {!Protocol}) on a Unix-domain and/or TCP socket.

   Threading model — three kinds of execution context:

   - the *accept loop* (the calling thread) blocks in [select] with a
     short timeout so it can observe the [stopping] flag;
   - one *reader thread* ([Thread.create]) per connection parses request
     lines.  Cheap control requests (ping, stats, metrics, trace,
     shutdown) are answered inline; query work is pushed onto the
     bounded job queue.  A full queue is an immediate ["overloaded"]
     error — admission control, so latency stays bounded instead of the
     queue growing without limit;
   - [workers] *domains* ([Domain.spawn]) drain the queue in parallel,
     by default one per CPU the process may run on, at most two (see
     [pool_size]).
     Each request evaluates against a fresh [Dynamic_ctx] that shares
     the read-only preloaded documents; everything mutable that crosses
     domains (plan cache, store index tables, obs counters, node-id
     allocation) is atomic or lock-guarded, and per-request compiler
     state (gensym, dead-null sets) is domain-local.

   Observability — three layers, all served by the metrics plane:

   - *traces*: every admitted request gets a span tree — admission,
     queue wait, deadline arming, plan-cache lookup/compile, eval,
     serialize, reply write — stored in per-domain rings and fetchable
     by trace id through the "trace" verb.  The trace is the request's
     one record: its outcome picks the outcome counter, and once it
     finishes the latency, queue-wait, eval and serialize histograms
     take their samples from its spans;
   - *contention*: every shared lock is a [Obs.tmutex], so the lock
     table attributes wall time to waiting vs. holding per lock name,
     and each worker accounts its busy/idle split;
   - *slow queries*: requests over [slow_ms] land in a bounded
     worst-16 ring that keeps their finished trace and, for a query,
     the EXPLAIN ANALYZE of that run, drawn from the profile every run
     counts into — so a query that timed out or failed keeps the rows
     it counted, and nothing is run again.

   Deadlines are armed at admission, so time spent queued counts against
   the budget; the evaluator checks the deadline at operator-invocation
   boundaries and raises [Dynamic_ctx.Timeout], which maps to a
   structured ["timeout"] error without tearing down the worker.

   Shutdown ("op":"shutdown") is graceful: stop admitting, wait for the
   queue and in-flight work to drain, acknowledge, then close the
   listeners and join the workers. *)

module Obs = Xqc_obs.Obs
module Trace = Xqc_obs.Trace
module Slow_log = Xqc_obs.Slow_log

type config = {
  unix_socket : string option;
  tcp : (string * int) option;  (** bind address and port *)
  workers : int option;
      (** worker domains; [None]: one per CPU the process may run on, at
          most two, counted when {!serve} starts *)
  queue_depth : int;  (** admission-control bound on queued requests *)
  default_timeout_ms : int option;  (** per-request default deadline *)
  preload : (string * string) list;  (** [name, path] document preloads *)
  strategy : Xqc.strategy;
  verbose : bool;
  slow_ms : float;  (** slow-query threshold, milliseconds *)
}

let default_config =
  {
    unix_socket = None;
    tcp = None;
    workers = None;
    queue_depth = 64;
    default_timeout_ms = None;
    preload = [];
    strategy = Xqc.Optimized;
    verbose = false;
    slow_ms = 100.0;
  }

(* ------------------------------------------------------------------ *)
(* Bounded job queue                                                   *)
(* ------------------------------------------------------------------ *)

(* The queue keeps a plain mutex ([Condition.wait] needs the raw lock);
   queue wait is measured per job across the hand-off instead, which is
   the quantity that matters — time blocked on the condition variable
   is idle capacity, not contention. *)
module Bqueue = struct
  type 'a t = {
    items : 'a Queue.t;
    capacity : int;
    mutable closed : bool;
    lock : Mutex.t;
    nonempty : Condition.t;
  }

  let create capacity =
    {
      items = Queue.create ();
      capacity;
      closed = false;
      lock = Mutex.create ();
      nonempty = Condition.create ();
    }

  (* Admission control: never blocks the producer. *)
  let try_push t x =
    Mutex.protect t.lock (fun () ->
        if t.closed then `Closed
        else if Queue.length t.items >= t.capacity then `Full
        else begin
          Queue.push x t.items;
          Condition.signal t.nonempty;
          `Ok
        end)

  (* Blocks until an item arrives; [None] once closed *and* drained, so
     closing lets consumers finish the backlog before exiting. *)
  let pop t =
    Mutex.lock t.lock;
    let rec loop () =
      if not (Queue.is_empty t.items) then begin
        let x = Queue.pop t.items in
        Mutex.unlock t.lock;
        Some x
      end
      else if t.closed then begin
        Mutex.unlock t.lock;
        None
      end
      else begin
        Condition.wait t.nonempty t.lock;
        loop ()
      end
    in
    loop ()

  let close t =
    Mutex.protect t.lock (fun () ->
        t.closed <- true;
        Condition.broadcast t.nonempty)

  let length t = Mutex.protect t.lock (fun () -> Queue.length t.items)
end

(* ------------------------------------------------------------------ *)
(* Connections and jobs                                                *)
(* ------------------------------------------------------------------ *)

(* The reader thread and any worker domain may reply on the same
   connection concurrently, so writes go through [write_line] under the
   connection's lock (one flushed line per reply keeps the NDJSON
   framing intact; [Protocol.response_*] return the line with its
   newline, written as is).  Each connection has its own mutex but they
   all share the "conn_write" stats record, so reply-write contention
   shows up as one line in the lock table.  [pending] counts the connection's
   admitted jobs not yet answered, so the reader does not close the
   connection under them at end of stream. *)
type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  wlock : Obs.tmutex;
  peer : string;
  pending : int Atomic.t;
}

let write_line conn line =
  Obs.with_lock conn.wlock (fun () ->
      output_string conn.oc line;
      flush conn.oc)

type job = {
  jb_conn : conn;
  jb_id : Obs.json;
  jb_req : Protocol.request;
  jb_deadline : float option;  (** armed at admission *)
  jb_trace : Trace.t;  (** the request's record, opened at admission *)
  jb_want_trace : bool;  (** embed the span tree in the response *)
  jb_enqueued : float;  (** [Obs.now] at queue push *)
}

(* Per-worker busy/idle accounting: each worker domain is the only
   writer of its slot; atomics make the cross-domain reads exact. *)
type worker_stat = {
  ws_busy_ns : int Atomic.t;
  ws_idle_ns : int Atomic.t;
  ws_jobs : int Atomic.t;
}

type t = {
  cfg : config;
  queue : job Bqueue.t;
  stopping : bool Atomic.t;
  inflight : int Atomic.t;  (** admitted (queued or executing) requests *)
  statements : (string, string) Hashtbl.t;  (** prepared name -> source *)
  st_lock : Obs.tmutex;
  preloaded : (string * string) list;  (** name, path; trees live in {!Xqc.Version} *)
  started : float;
  latency : Obs.histogram;  (** request service time, milliseconds *)
  h_queue_wait : Obs.histogram;  (** admission -> dequeue, milliseconds *)
  h_eval : Obs.histogram;  (** plan execution, milliseconds *)
  h_serialize : Obs.histogram;  (** result serialization, milliseconds *)
  slow : Slow_log.t;
  worker_stats : worker_stat array;  (** one per worker domain: its length is the pool size *)
}

let c_requests = Obs.global_counter "server_requests"
let c_ok = Obs.global_counter "server_ok"
let c_errors = Obs.global_counter "server_errors"
let c_timeouts = Obs.global_counter "server_timeouts"
let c_overloaded = Obs.global_counter "server_overloaded"
let c_connections = Obs.global_counter "server_connections"

(* The pool size [serve] runs with.  [None] counts the CPUs in the
   process's affinity mask when [serve] starts, not when this module
   initializes: a process may pin itself after start-up, as the
   benchmark harness does.  In OCaml 5 every minor collection stops all
   domains, so a busy domain with no CPU of its own stalls the others
   at each collection; on one CPU one worker serves more requests than
   two.  The default is capped at two, the most that has been measured;
   the cap also keeps the workers plus the main domain well inside the
   runtime's limit of 128 domains. *)
let pool_size (cfg : config) : int =
  match cfg.workers with
  | Some n -> max 1 n
  | None -> min 2 (Domain.recommended_domain_count ())

let log t fmt =
  if t.cfg.verbose then Printf.eprintf (fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

(* ------------------------------------------------------------------ *)
(* Request evaluation                                                  *)
(* ------------------------------------------------------------------ *)

(* Readers get snapshot isolation: each request pins every preload's
   head version when evaluation starts and reads exactly those trees
   for its whole lifetime, whatever writers publish meanwhile.  Each
   pinned document is visible to fn:doc under its preload name, its
   path and its basename, and bound to the variable $name. *)
let pin_preloads t : (string * string * Xqc.Version.version) list =
  List.filter_map
    (fun (name, path) ->
      Option.map (fun v -> (name, path, v)) (Xqc.Version.pin name))
    t.preloaded

let bind_preload ctx ~name ~path doc =
  Xqc.bind_document ctx name doc;
  Xqc.bind_document ctx path doc;
  Xqc.bind_document ctx (Filename.basename path) doc;
  Xqc.bind_variable ctx name [ Xqc.Item.Node doc ]

let ctx_of_pins pins =
  let ctx = Xqc.context () in
  List.iter
    (fun (name, path, v) -> bind_preload ctx ~name ~path v.Xqc.Version.v_root)
    pins;
  ctx

(* Run [f] over a context bound to pinned snapshots; the unpin in
   [finally] is what lets a retired snapshot (and its indexes) be freed
   once its last reader is done. *)
let with_snapshot t f =
  let pins = pin_preloads t in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (name, _, v) -> Xqc.Version.unpin name v) pins)
    (fun () -> f (ctx_of_pins pins))

let deadline_of t timeout_ms =
  match (timeout_ms, t.cfg.default_timeout_ms) with
  | Some ms, _ | None, Some ms -> Some (Obs.now () +. (float_of_int ms /. 1000.))
  | None, None -> None

(* The longest request line accepted, and the longest serialized
   result sent, in bytes.  A longer request line is refused and its
   connection closed, so a newline-free stream cannot grow the heap
   without limit; a longer result is refused before any of it is
   allocated. *)
let max_request_bytes = 8 * 1024 * 1024

(* Run a request's work, mapping what evaluation can raise to an error
   code and message. *)
let guard f : ((string * Obs.json) list, string * string) result =
  match f () with
  | fields -> Ok fields
  | exception Xqc.Dynamic_ctx.Timeout -> Error ("timeout", "deadline exceeded")
  | exception Xqc.Serializer.Too_large n ->
      Error
        ( "result_too_large",
          Printf.sprintf "result larger than %d bytes (at least %d) was not sent"
            max_request_bytes n )
  | exception Xqc.Error m -> Error ("query_error", m)
  | exception (Json_parse.Parse_error m | Failure m) -> Error ("internal", m)

(* Evaluate [source] under [deadline]; ok responses carry the serialized
   result and the item count.  A result over [max_request_bytes] is
   measured, not written, and refused with [result_too_large].  Also
   returns, once the query is prepared, the renderer of this run's
   EXPLAIN ANALYZE: its profile holds the rows counted up to where the
   run finished, timed out or failed. *)
let eval_query t ~tr ~source ~deadline =
  let explain = ref None in
  let result =
    guard @@ fun () ->
    let prepared = Xqc.prepare_cached ~strategy:t.cfg.strategy source in
    let profile = Obs.profile ~timed:false in
    explain := Some (fun () -> Xqc.explain_analyze prepared profile);
    (* serialization happens under the same pins as evaluation: the
       result sequence references snapshot nodes *)
    with_snapshot t (fun ctx ->
        Xqc.Dynamic_ctx.set_trace ctx (Some tr);
        Xqc.Dynamic_ctx.set_deadline ctx deadline;
        let items = Trace.in_span "eval" (fun () -> Xqc.run ~profile prepared ctx) in
        let text =
          Trace.in_span "serialize" (fun () ->
              Xqc.Serializer.sequence_to_string ~limit:max_request_bytes items)
        in
        [ ("result", Obs.Str text); ("items", Obs.Int (List.length items)) ])
  in
  (result, !explain)

(* Run an XQUF script against the preloaded document [doc], under its
   per-document MVCC write lock.  The script's queries evaluate against
   whichever tree the version layer chose (live head or fresh copy),
   bound exactly as a reader would see the document; the reply reports
   how many primitives applied and whether the live head was patched in
   place (vs a new version published for the admitted readers). *)
let exec_update t ~tr ~doc ~source ~deadline =
  match List.find_opt (fun (n, _) -> String.equal n doc) t.preloaded with
  | None -> Error ("unknown_document", Printf.sprintf "no preloaded document %S" doc)
  | Some (name, path) ->
      let make_ctx root =
        let ctx = Xqc.context () in
        bind_preload ctx ~name ~path root;
        Xqc.Dynamic_ctx.set_trace ctx (Some tr);
        Xqc.Dynamic_ctx.set_deadline ctx deadline;
        ctx
      in
      guard @@ fun () ->
      let r =
        Trace.in_span "update" (fun () ->
            Xqc.Update.execute ~strategy:t.cfg.strategy ~uri:name ~make_ctx source)
      in
      [
        ("applied", Obs.Int r.Xqc.Update.u_applied);
        ("version", Obs.Int r.Xqc.Update.u_version);
        ("in_place", Obs.Bool r.Xqc.Update.u_in_place);
      ]

(* A finished request's histogram samples, read off its trace: each
   histogram keeps the interval it measures — queue wait, dequeue to
   the start of the reply write, and for an ok request the eval (or
   update) and serialize spans. *)
let observe_trace t (tr : Trace.t) =
  let spans = Trace.spans tr in
  let find name = List.find_opt (fun sp -> String.equal sp.Trace.sp_name name) spans in
  let observe h = Option.iter (fun sp -> Obs.observe h sp.Trace.sp_dur_ms) in
  (match (find "queue-wait", find "reply-write") with
  | Some qw, Some rw ->
      Obs.observe t.h_queue_wait qw.sp_dur_ms;
      Obs.observe t.latency (rw.sp_start_ms -. (qw.sp_start_ms +. qw.sp_dur_ms))
  | _ -> ());
  if String.equal tr.tr_outcome "ok" then begin
    observe t.h_eval (match find "eval" with None -> find "update" | sp -> sp);
    observe t.h_serialize (find "serialize")
  end

let handle_job t (job : job) : unit =
  let tr = job.jb_trace and deadline = job.jb_deadline in
  Trace.add_span tr ~t0:job.jb_enqueued ~t1:(Obs.now ()) "queue-wait";
  let result, explain =
    Trace.with_current tr @@ fun () ->
    match job.jb_req with
    | Protocol.Query { source; _ } -> eval_query t ~tr ~source ~deadline
    | Protocol.Prepare { name; source } ->
        (* Compile eagerly so syntax errors surface at prepare time; the
           compiled plan lands in the shared LRU plan cache and the
           name -> source binding makes execute re-resolve through it
           (each reuse is a recorded plan-cache hit). *)
        ( guard (fun () ->
              ignore (Xqc.prepare_cached ~strategy:t.cfg.strategy source : Xqc.prepared);
              Obs.with_lock t.st_lock (fun () -> Hashtbl.replace t.statements name source);
              [ ("name", Obs.Str name) ]),
          None )
    | Protocol.Execute { name; _ } -> (
        match Obs.with_lock t.st_lock (fun () -> Hashtbl.find_opt t.statements name) with
        | Some source ->
            Trace.set_source tr source;
            eval_query t ~tr ~source ~deadline
        | None -> (Error ("unknown_statement", Printf.sprintf "no prepared statement %S" name), None))
    | Protocol.Update { doc; source; _ } -> (exec_update t ~tr ~doc ~source ~deadline, None)
    | Protocol.Stats | Protocol.Metrics _ | Protocol.Trace_get _
    | Protocol.Ping | Protocol.Shutdown ->
        (* handled inline by the reader; never queued *)
        assert false
  in
  let outcome = match result with Ok _ -> "ok" | Error (code, _) -> code in
  Obs.incr_counter
    (match outcome with "ok" -> c_ok | "timeout" -> c_timeouts | _ -> c_errors);
  (* "trace":true embeds the span tree as recorded so far; the
     reply-write span exists only in the stored trace *)
  let trace_fields =
    ("trace_id", Obs.Int (Trace.id tr))
    :: (if job.jb_want_trace then [ ("trace", Trace.to_json tr) ] else [])
  in
  let reply =
    match result with
    | Ok fields -> Protocol.response_ok ~id:job.jb_id (fields @ trace_fields)
    | Error (code, m) -> Protocol.response_error ~extra:trace_fields ~id:job.jb_id ~code m
  in
  (try Trace.span tr "reply-write" (fun () -> write_line job.jb_conn reply)
   with Sys_error _ | Unix.Unix_error _ ->
     log t "reply to %s lost (connection closed)" job.jb_conn.peer);
  let total_ms = Trace.finish tr ~outcome in
  observe_trace t tr;
  ignore (Slow_log.note t.slow ?explain tr : Slow_log.entry option);
  log t "%s %s %.2fms" job.jb_conn.peer tr.tr_op total_ms

let ns_of (secs : float) : int = int_of_float (secs *. 1e9)

let worker_loop t (i : int) () =
  let ws = t.worker_stats.(i) in
  let rec loop () =
    let t0 = Obs.now () in
    match Bqueue.pop t.queue with
    | None -> ignore (Atomic.fetch_and_add ws.ws_idle_ns (ns_of (Obs.now () -. t0)))
    | Some job ->
        let t1 = Obs.now () in
        ignore (Atomic.fetch_and_add ws.ws_idle_ns (ns_of (t1 -. t0)));
        (try handle_job t job
         with e ->
           Obs.incr_counter c_errors;
           (try
              write_line job.jb_conn
                (Protocol.response_error ~id:job.jb_id ~code:"internal"
                   (Printexc.to_string e))
            with _ -> ()));
        Atomic.decr job.jb_conn.pending;
        ignore (Atomic.fetch_and_add ws.ws_busy_ns (ns_of (Obs.now () -. t1)));
        Atomic.incr ws.ws_jobs;
        ignore (Atomic.fetch_and_add t.inflight (-1));
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Server statistics and the metrics plane                             *)
(* ------------------------------------------------------------------ *)

(* The "stats" verb's fields; the "metrics" verb extends them. *)
let stats_fields t : (string * Obs.json) list =
  let store = Xqc.Store.stats () in
  [
    ("uptime_s", Obs.Float (Obs.now () -. t.started));
    ("workers", Obs.Int (Array.length t.worker_stats));
    ("queue_depth", Obs.Int (Bqueue.length t.queue));
    ("queue_capacity", Obs.Int t.cfg.queue_depth);
    ("inflight", Obs.Int (Atomic.get t.inflight));
    ("admission_rejected", Obs.Int (Obs.counter_value c_overloaded));
    ( "prepared_statements",
      Obs.Int (Obs.with_lock t.st_lock (fun () -> Hashtbl.length t.statements)) );
    ("plan_cache_size", Obs.Int (Xqc.plan_cache_size ()));
    ( "store",
      Obs.Obj
        [
          ("roots", Obs.Int store.Xqc.Store.st_roots);
          ("nodes", Obs.Int store.Xqc.Store.st_nodes);
        ] );
    ("latency_ms", Obs.histogram_to_json t.latency);
    ("traces", Obs.Int (Trace.stored_count ()));
    ("snapshot_versions_live", Obs.Int (Xqc.Version.live_versions ()));
    ( "counters",
      Obs.Obj (List.map (fun (n, v) -> (n, Obs.Int v)) (Obs.global_counters ())) );
  ]

let worker_json t : Obs.json =
  Obs.Arr
    (List.mapi
       (fun i ws ->
         let busy = float_of_int (Atomic.get ws.ws_busy_ns) /. 1e9 in
         let idle = float_of_int (Atomic.get ws.ws_idle_ns) /. 1e9 in
         let util = if busy +. idle > 0.0 then busy /. (busy +. idle) else 0.0 in
         Obs.Obj
           [
             ("worker", Obs.Int i);
             ("busy_s", Obs.Float busy);
             ("idle_s", Obs.Float idle);
             ("jobs", Obs.Int (Atomic.get ws.ws_jobs));
             ("utilization", Obs.Float util);
           ])
       (Array.to_list t.worker_stats))

let metrics_json t : Obs.json =
  Obs.Obj
    (stats_fields t
    @ [
        ("queue_wait_ms", Obs.histogram_to_json t.h_queue_wait);
        ("eval_ms", Obs.histogram_to_json t.h_eval);
        ("serialize_ms", Obs.histogram_to_json t.h_serialize);
        ( "locks",
          Obs.Arr (List.map Obs.lock_summary_to_json (Obs.lock_summaries ())) );
        ("workers_detail", worker_json t);
        ("slow_queries", Slow_log.to_json t.slow);
      ])

let prometheus_text t : string =
  let counter_fams =
    List.map
      (fun (name, v) ->
        Obs.Prom_counter
          ( "xqc_" ^ name ^ "_total",
            "Cumulative " ^ name ^ " count.",
            [ ([], float_of_int v) ] ))
      (Obs.global_counters ())
  in
  let locks = Obs.lock_summaries () in
  let lsam f = List.map (fun lk -> ([ ("lock", lk.Obs.lk_name) ], f lk)) locks in
  let lock_fams =
    [
      Obs.Prom_counter
        ( "xqc_lock_acquisitions_total",
          "Acquisitions per instrumented lock.",
          lsam (fun lk -> float_of_int lk.Obs.lk_acquires) );
      Obs.Prom_counter
        ( "xqc_lock_contended_total",
          "Acquisitions that had to block, per instrumented lock.",
          lsam (fun lk -> float_of_int lk.Obs.lk_contended) );
      Obs.Prom_counter
        ( "xqc_lock_wait_seconds_total",
          "Time spent blocked waiting, per instrumented lock.",
          lsam (fun lk -> lk.Obs.lk_wait_ms /. 1000.) );
      Obs.Prom_counter
        ( "xqc_lock_hold_seconds_total",
          "Time the lock was held, per instrumented lock.",
          lsam (fun lk -> lk.Obs.lk_hold_ms /. 1000.) );
    ]
  in
  let wsam f =
    List.mapi
      (fun i ws -> ([ ("worker", string_of_int i) ], f ws))
      (Array.to_list t.worker_stats)
  in
  let worker_fams =
    [
      Obs.Prom_counter
        ( "xqc_worker_busy_seconds_total",
          "Time each worker domain spent serving requests.",
          wsam (fun ws -> float_of_int (Atomic.get ws.ws_busy_ns) /. 1e9) );
      Obs.Prom_counter
        ( "xqc_worker_idle_seconds_total",
          "Time each worker domain spent waiting for work.",
          wsam (fun ws -> float_of_int (Atomic.get ws.ws_idle_ns) /. 1e9) );
      Obs.Prom_counter
        ( "xqc_worker_jobs_total",
          "Requests served per worker domain.",
          wsam (fun ws -> float_of_int (Atomic.get ws.ws_jobs)) );
    ]
  in
  let gauge_fams =
    [
      Obs.Prom_gauge
        ( "xqc_uptime_seconds",
          "Seconds since the server started.",
          [ ([], Obs.now () -. t.started) ] );
      Obs.Prom_gauge
        ( "xqc_queue_depth",
          "Requests currently queued.",
          [ ([], float_of_int (Bqueue.length t.queue)) ] );
      Obs.Prom_gauge
        ( "xqc_queue_capacity",
          "Admission-control bound on queued requests.",
          [ ([], float_of_int t.cfg.queue_depth) ] );
      Obs.Prom_gauge
        ( "xqc_inflight",
          "Admitted (queued or executing) requests.",
          [ ([], float_of_int (Atomic.get t.inflight)) ] );
      Obs.Prom_gauge
        ( "xqc_workers",
          "Worker domains.",
          [ ([], float_of_int (Array.length t.worker_stats)) ] );
      Obs.Prom_gauge
        ( "xqc_slow_queries",
          "Entries currently in the slow-query ring.",
          [ ([], float_of_int (List.length (Slow_log.entries t.slow))) ] );
      Obs.Prom_gauge
        ( "xqc_snapshot_versions_live",
          "Reachable document versions: heads plus retired-but-pinned snapshots.",
          [ ([], float_of_int (Xqc.Version.live_versions ())) ] );
    ]
  in
  let summary_fams =
    [
      Obs.histogram_prom_summary t.latency
        ~name:"xqc_request_duration_milliseconds"
        ~help:"Request service time (dequeue to reply), milliseconds.";
      Obs.histogram_prom_summary t.h_queue_wait
        ~name:"xqc_queue_wait_milliseconds"
        ~help:"Time between admission and dequeue, milliseconds.";
      Obs.histogram_prom_summary t.h_eval ~name:"xqc_eval_milliseconds"
        ~help:"Plan execution time, milliseconds.";
      Obs.histogram_prom_summary t.h_serialize
        ~name:"xqc_serialize_milliseconds"
        ~help:"Result serialization time, milliseconds.";
    ]
  in
  Obs.prometheus_to_string
    (counter_fams @ lock_fams @ worker_fams @ gauge_fams @ summary_fams)

(* ------------------------------------------------------------------ *)
(* Connection readers                                                  *)
(* ------------------------------------------------------------------ *)

(* Graceful shutdown, triggered by the first "shutdown" request: stop
   admissions, wait for admitted work to drain, acknowledge, then close
   the queue so the workers exit once idle.  The accept loop notices
   [stopping] within its select timeout and stops accepting. *)
let initiate_shutdown t conn id =
  if Atomic.compare_and_set t.stopping false true then begin
    log t "shutdown requested by %s; draining %d in-flight" conn.peer
      (Atomic.get t.inflight);
    while Atomic.get t.inflight > 0 do
      Thread.delay 0.005
    done;
    (try write_line conn (Protocol.response_ok ~id [ ("bye", Obs.Bool true) ])
     with Sys_error _ | Unix.Unix_error _ -> ());
    Bqueue.close t.queue
  end
  else
    (* already stopping: acknowledge without re-draining *)
    try write_line conn (Protocol.response_ok ~id [ ("bye", Obs.Bool true) ])
    with Sys_error _ | Unix.Unix_error _ -> ()

let handle_line t conn line =
  let t0 = Obs.now () in
  let { Protocol.id; req } = Protocol.decode_request line in
  Obs.incr_counter c_requests;
  match req with
  | Error m ->
      Obs.incr_counter c_errors;
      write_line conn (Protocol.response_error ~id ~code:"bad_request" m)
  | Ok Protocol.Ping ->
      write_line conn (Protocol.response_ok ~id [ ("pong", Obs.Bool true) ])
  | Ok Protocol.Stats ->
      write_line conn (Protocol.response_ok ~id [ ("stats", Obs.Obj (stats_fields t)) ])
  | Ok (Protocol.Metrics Protocol.Json_format) ->
      write_line conn (Protocol.response_ok ~id [ ("metrics", metrics_json t) ])
  | Ok (Protocol.Metrics Protocol.Prometheus_format) ->
      write_line conn
        (Protocol.response_ok ~id [ ("text", Obs.Str (prometheus_text t)) ])
  | Ok (Protocol.Trace_get (Some tid)) -> (
      match Trace.find tid with
      | Some tr ->
          write_line conn
            (Protocol.response_ok ~id [ ("trace", Trace.to_json tr) ])
      | None ->
          Obs.incr_counter c_errors;
          write_line conn
            (Protocol.response_error ~id ~code:"unknown_trace"
               (Printf.sprintf "no stored trace %d" tid)))
  | Ok (Protocol.Trace_get None) ->
      write_line conn
        (Protocol.response_ok ~id
           [
             ( "traces",
               Obs.Arr (List.map Trace.summary_to_json (Trace.recent 20)) );
           ])
  | Ok Protocol.Shutdown -> initiate_shutdown t conn id
  | Ok req ->
      if Atomic.get t.stopping then begin
        Obs.incr_counter c_errors;
        write_line conn
          (Protocol.response_error ~id ~code:"shutting_down"
             "server is shutting down")
      end
      else begin
        let timeout_ms, want_trace, op, source =
          match req with
          | Protocol.Query { timeout_ms; trace; source } ->
              (timeout_ms, trace, "query", source)
          | Protocol.Execute { timeout_ms; trace; name } ->
              (timeout_ms, trace, "execute", name)
          | Protocol.Update { timeout_ms; trace; source; _ } ->
              (timeout_ms, trace, "update", source)
          | Protocol.Prepare { source; _ } -> (None, false, "prepare", source)
          | _ -> (None, false, "request", "")
        in
        (* The trace opens at [t0] so decode + admission are on it; a
           rejected request's trace is simply dropped (never stored). *)
        let tr = Trace.start ~epoch:t0 ~op () in
        Trace.set_source tr source;
        Trace.add_span tr ~t0 ~t1:(Obs.now ()) "admission";
        let job =
          {
            jb_conn = conn;
            jb_id = id;
            jb_req = req;
            jb_deadline = deadline_of t timeout_ms;
            jb_trace = tr;
            jb_want_trace = want_trace;
            jb_enqueued = Obs.now ();
          }
        in
        ignore (Atomic.fetch_and_add t.inflight 1);
        Atomic.incr conn.pending;
        match Bqueue.try_push t.queue job with
        | `Ok -> ()
        | `Full ->
            ignore (Atomic.fetch_and_add t.inflight (-1));
            Atomic.decr conn.pending;
            Obs.incr_counter c_overloaded;
            write_line conn
              (Protocol.response_error ~id ~code:"overloaded"
                 (Printf.sprintf "queue full (%d requests pending)"
                    t.cfg.queue_depth))
        | `Closed ->
            ignore (Atomic.fetch_and_add t.inflight (-1));
            Atomic.decr conn.pending;
            Obs.incr_counter c_errors;
            write_line conn
              (Protocol.response_error ~id ~code:"shutting_down"
                 "server is shutting down")
      end

exception Request_too_large

(* [input_line], bounded by [max_request_bytes]. *)
let read_request_line ic =
  let buf = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | '\n' -> Buffer.contents buf
    | c ->
        if Buffer.length buf >= max_request_bytes then raise Request_too_large;
        Buffer.add_char buf c;
        go ()
    | exception End_of_file when Buffer.length buf > 0 -> Buffer.contents buf
  in
  go ()

let reader_thread t conn () =
  Obs.incr_counter c_connections;
  log t "%s connected" conn.peer;
  let rec loop () =
    match read_request_line conn.ic with
    | "" -> loop ()
    | line ->
        (try handle_line t conn line
         with Sys_error _ | Unix.Unix_error _ -> raise End_of_file);
        loop ()
    | exception Request_too_large -> (
        Obs.incr_counter c_errors;
        log t "%s sent a request line over %d bytes" conn.peer max_request_bytes;
        try
          write_line conn
            (Protocol.response_error ~id:Obs.Null ~code:"request_too_large"
               (Printf.sprintf "request line longer than %d bytes" max_request_bytes))
        with Sys_error _ | Unix.Unix_error _ -> ())
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> ()
  in
  loop ();
  (* A client may half-close after its last request: answer every job it
     got admitted before closing. *)
  while Atomic.get conn.pending > 0 do
    Thread.delay 0.001
  done;
  log t "%s disconnected" conn.peer;
  (* Close the descriptor exactly once, under the write lock: a late
     write then fails on the closed channel instead of going to whatever
     socket reuses the number next. *)
  Obs.with_lock conn.wlock (fun () -> close_out_noerr conn.oc)

(* ------------------------------------------------------------------ *)
(* Listeners and the accept loop                                       *)
(* ------------------------------------------------------------------ *)

let make_unix_listener path =
  if Sys.file_exists path then Unix.unlink path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let make_tcp_listener host port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  let addr = (Unix.gethostbyname host).Unix.h_addr_list.(0) in
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 64;
  fd

let peer_name = function
  | Unix.ADDR_UNIX _ -> "unix"
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Parse, register and interval-index every preload once, before
   accepting.  The loader builds each document's structural index while
   parsing.  Registration makes the document updatable through the MVCC
   layer and gap-renumbers it, moving that index to the root's new id;
   [index_nodes] then finds it without a rebuild.  Readers pin
   per-request snapshots instead of sharing a mutable tree. *)
let load_preloads cfg =
  List.map
    (fun (name, path) ->
      let text = read_file path in
      let doc = Xqc.parse_document ~uri:path text in
      Xqc.Version.register name doc;
      ignore (Xqc.Store.index_nodes doc);
      if cfg.verbose then
        Printf.eprintf "preloaded %s from %s (%d bytes)\n%!" name path (String.length text);
      (name, path))
    cfg.preload

(* Run the server until a shutdown request.  [ready] fires after the
   listeners are bound (tests use it to avoid connect races). *)
let serve ?(ready = fun () -> ()) (cfg : config) : unit =
  if cfg.unix_socket = None && cfg.tcp = None then
    invalid_arg "Server.serve: no listener (need a unix socket path or a TCP address)";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let nworkers = pool_size cfg in
  let t =
    {
      cfg;
      queue = Bqueue.create (max 1 cfg.queue_depth);
      stopping = Atomic.make false;
      inflight = Atomic.make 0;
      statements = Hashtbl.create 16;
      st_lock = Obs.tmutex "server_statements";
      preloaded = load_preloads cfg;
      started = Obs.now ();
      latency = Obs.histogram "server_request_ms";
      h_queue_wait = Obs.histogram "server_queue_wait_ms";
      h_eval = Obs.histogram "server_eval_ms";
      h_serialize = Obs.histogram "server_serialize_ms";
      slow = Slow_log.create ~threshold_ms:cfg.slow_ms ();
      worker_stats =
        Array.init nworkers (fun _ ->
            {
              ws_busy_ns = Atomic.make 0;
              ws_idle_ns = Atomic.make 0;
              ws_jobs = Atomic.make 0;
            });
    }
  in
  let listeners =
    (match cfg.unix_socket with Some p -> [ make_unix_listener p ] | None -> [])
    @ match cfg.tcp with Some (h, p) -> [ make_tcp_listener h p ] | None -> []
  in
  let workers = List.init nworkers (fun i -> Domain.spawn (worker_loop t i)) in
  log t "serving with %d workers (queue depth %d)" nworkers cfg.queue_depth;
  ready ();
  (* Accept until the stopping flag is raised; the select timeout bounds
     how long raising it can go unnoticed. *)
  while not (Atomic.get t.stopping) do
    match Unix.select listeners [] [] 0.2 with
    | readable, _, _ ->
        List.iter
          (fun lfd ->
            match Unix.accept lfd with
            | fd, addr ->
                let conn =
                  {
                    fd;
                    ic = Unix.in_channel_of_descr fd;
                    oc = Unix.out_channel_of_descr fd;
                    wlock = Obs.tmutex "conn_write";
                    peer = peer_name addr;
                    pending = Atomic.make 0;
                  }
                in
                ignore (Thread.create (reader_thread t conn) ())
            | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
          readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  (* The shutdown initiator closes the queue once drained; joining here
     guarantees every worker observed that before we return. *)
  List.iter Domain.join workers;
  (match cfg.unix_socket with
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | None -> ());
  log t "server stopped"
