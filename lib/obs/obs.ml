(* Observability primitives for the engine: counters, instrumented
   mutexes, latency histograms, and the structured statistics the
   pipeline records — phase timings, per-operator runtime statistics
   (EXPLAIN ANALYZE), join build/probe accounting, and rewrite-rule
   firing traces.

   This library sits below the algebra so every layer can depend on it;
   it depends on nothing but unix (for the clock).  All records are
   plain mutable structs updated in place: with statistics disabled none
   of this code runs, so the uninstrumented hot path is unchanged. *)

(* Monotonic-enough wall clock in seconds.  [Unix.gettimeofday] is what
   the benchmark harness already measures with; operator timings are
   relative differences over short spans, where drift is negligible. *)
let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* JSON (minimal emitter; no external dependency)                      *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let escape_string (s : string) : string =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec add_json (buf : Buffer.t) (j : json) : unit =
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* NaN/infinities are not JSON numbers *)
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null"
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape_string s);
      Buffer.add_char buf '"'
  | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          add_json buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape_string k);
          Buffer.add_string buf "\":";
          add_json buf v)
        kvs;
      Buffer.add_char buf '}'

let json_to_string (j : json) : string =
  let buf = Buffer.create 256 in
  add_json buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

(* Counters are atomic ints: the query server increments them from
   several worker domains at once, and --stats-json must never report a
   torn value.  On the single-threaded CLI path an uncontended
   [Atomic.incr] is a plain fetch-and-add — no allocation, no lock. *)
type counter = { cn_name : string; cn_cell : int Atomic.t }

let counter name = { cn_name = name; cn_cell = Atomic.make 0 }
let incr_counter c = Atomic.incr c.cn_cell
let add_counter c n = ignore (Atomic.fetch_and_add c.cn_cell n)
let counter_value c = Atomic.get c.cn_cell

(* ------------------------------------------------------------------ *)
(* Instrumented mutexes (contention telemetry)                         *)
(* ------------------------------------------------------------------ *)

(* A [tmutex] is a mutex that accounts for its own contention: every
   acquisition is counted, acquisitions that had to block record the
   time spent waiting, and [with_lock] records the time the lock was
   held.  Statistics are interned by name so several mutex instances
   protecting the same kind of resource (e.g. one write lock per client
   connection) share a single stats record, and so the registry can be
   walked for the server's `metrics` verb and Prometheus exposition.

   The fast path costs one [Mutex.try_lock] plus two clock reads over a
   plain mutex; all stats cells are atomics, so readers never take the
   lock they are reporting on. *)

type lock_stats = {
  ls_name : string;
  ls_acquires : int Atomic.t;  (* total acquisitions *)
  ls_contended : int Atomic.t;  (* acquisitions that had to block *)
  ls_wait_ns : int Atomic.t;  (* cumulative time spent blocked *)
  ls_hold_ns : int Atomic.t;  (* cumulative time the lock was held *)
}

type tmutex = { tx_stats : lock_stats; tx_mutex : Mutex.t }

(* The lock-stats registry is guarded by a plain mutex: it cannot
   instrument itself, and it is only touched at interning time and when
   a report is rendered. *)
let lock_registry : (string, lock_stats) Hashtbl.t = Hashtbl.create 16
let lock_order : string list ref = ref []
let lock_registry_lock = Mutex.create ()

let lock_stats_intern (name : string) : lock_stats =
  Mutex.protect lock_registry_lock (fun () ->
      match Hashtbl.find_opt lock_registry name with
      | Some ls -> ls
      | None ->
          let ls =
            {
              ls_name = name;
              ls_acquires = Atomic.make 0;
              ls_contended = Atomic.make 0;
              ls_wait_ns = Atomic.make 0;
              ls_hold_ns = Atomic.make 0;
            }
          in
          Hashtbl.add lock_registry name ls;
          lock_order := !lock_order @ [ name ];
          ls)

let tmutex (name : string) : tmutex =
  { tx_stats = lock_stats_intern name; tx_mutex = Mutex.create () }

let add_ns (cell : int Atomic.t) (secs : float) : unit =
  ignore (Atomic.fetch_and_add cell (int_of_float (secs *. 1e9)))

let with_lock (tx : tmutex) (f : unit -> 'a) : 'a =
  let st = tx.tx_stats in
  (if Mutex.try_lock tx.tx_mutex then Atomic.incr st.ls_acquires
   else begin
     let t0 = now () in
     Mutex.lock tx.tx_mutex;
     add_ns st.ls_wait_ns (now () -. t0);
     Atomic.incr st.ls_acquires;
     Atomic.incr st.ls_contended
   end);
  let t1 = now () in
  Fun.protect
    ~finally:(fun () ->
      add_ns st.ls_hold_ns (now () -. t1);
      Mutex.unlock tx.tx_mutex)
    f

type lock_summary = {
  lk_name : string;
  lk_acquires : int;
  lk_contended : int;
  lk_wait_ms : float;
  lk_hold_ms : float;
}

let lock_summaries () : lock_summary list =
  let names = Mutex.protect lock_registry_lock (fun () -> !lock_order) in
  List.map
    (fun name ->
      let ls = Mutex.protect lock_registry_lock (fun () -> Hashtbl.find lock_registry name) in
      {
        lk_name = ls.ls_name;
        lk_acquires = Atomic.get ls.ls_acquires;
        lk_contended = Atomic.get ls.ls_contended;
        lk_wait_ms = float_of_int (Atomic.get ls.ls_wait_ns) /. 1e6;
        lk_hold_ms = float_of_int (Atomic.get ls.ls_hold_ns) /. 1e6;
      })
    names

let reset_lock_stats () : unit =
  Mutex.protect lock_registry_lock (fun () ->
      Hashtbl.iter
        (fun _ ls ->
          Atomic.set ls.ls_acquires 0;
          Atomic.set ls.ls_contended 0;
          Atomic.set ls.ls_wait_ns 0;
          Atomic.set ls.ls_hold_ns 0)
        lock_registry)

let lock_summary_to_json (lk : lock_summary) : json =
  Obj
    [
      ("name", Str lk.lk_name);
      ("acquires", Int lk.lk_acquires);
      ("contended", Int lk.lk_contended);
      ("wait_ms", Float lk.lk_wait_ms);
      ("hold_ms", Float lk.lk_hold_ms);
    ]

(* Global named counters: process-wide always-on counters for the
   cross-cutting subsystems that outlive any one prepared query — the
   indexed document store (builds/hits/fallbacks), the fn:doc document
   cache, the prepared-plan cache and the query server.  Incrementing is
   a single atomic add; the registry (guarded by [global_lock], since
   worker domains may intern counters concurrently) is only walked when
   a report is rendered. *)
let global_registry : (string, counter) Hashtbl.t = Hashtbl.create 16
let global_order : string list ref = ref []
let global_lock = tmutex "obs_registry"

let global_counter (name : string) : counter =
  with_lock global_lock (fun () ->
      match Hashtbl.find_opt global_registry name with
      | Some c -> c
      | None ->
          let c = counter name in
          Hashtbl.add global_registry name c;
          global_order := !global_order @ [ name ];
          c)

let global_counters () : (string * int) list =
  with_lock global_lock (fun () ->
      List.map
        (fun name -> (name, counter_value (Hashtbl.find global_registry name)))
        !global_order)

(* ------------------------------------------------------------------ *)
(* Latency histograms                                                  *)
(* ------------------------------------------------------------------ *)

(* Lock-free reservoir: lifetime count/sum/max plus a ring buffer of the
   most recent samples, from which percentiles are computed on demand
   (sorting a copy of the window — reports are rare, observations are
   hot).  The query server records one sample per request from every
   worker domain, so the insert path must not serialize the workers:

   - count is an atomic increment; sum accumulates in fixed point
     (integer micro-units, [fetch_and_add]) since there is no atomic
     float add; max is a CAS loop on the same fixed-point scale.
   - the ring position is a monotone [fetch_and_add] ticket (slot =
     ticket mod window), so two concurrent observers take different
     slots.  The slot write itself is a plain 64-bit float store —
     unsynchronized by design: a reader may see a stale sample in a
     slot being overwritten, which shifts a percentile by one sample at
     worst.  Percentiles over a sliding window are already approximate;
     the lifetime count/sum/max are exact.

   Before this design the insert took a ["hist:<name>"] tmutex —
   measurably the hottest locks in the server's contention table. *)

let fixed_scale = 1_000_000.

type histogram = {
  hg_name : string;
  hg_count : int Atomic.t;
  hg_sum_fx : int Atomic.t;  (* lifetime sum, fixed-point micro-units *)
  hg_max_fx : int Atomic.t;  (* lifetime max, fixed-point micro-units *)
  hg_window : float array;  (* ring buffer of recent samples *)
  hg_pos : int Atomic.t;  (* monotone ticket; slot = ticket mod window *)
}

let histogram ?(window = 4096) name =
  {
    hg_name = name;
    hg_count = Atomic.make 0;
    hg_sum_fx = Atomic.make 0;
    hg_max_fx = Atomic.make 0;
    hg_window = Array.make (max 1 window) 0.0;
    hg_pos = Atomic.make 0;
  }

let observe (h : histogram) (v : float) : unit =
  Atomic.incr h.hg_count;
  let fx = int_of_float (v *. fixed_scale) in
  ignore (Atomic.fetch_and_add h.hg_sum_fx fx);
  let rec bump () =
    let cur = Atomic.get h.hg_max_fx in
    if fx > cur && not (Atomic.compare_and_set h.hg_max_fx cur fx) then bump ()
  in
  bump ();
  let ticket = Atomic.fetch_and_add h.hg_pos 1 in
  h.hg_window.(ticket mod Array.length h.hg_window) <- v

(* Snapshot the window for percentile computation: valid entries are
   [min ticket window] (the ring fills front to back). *)
let window_snapshot (h : histogram) : float array =
  let filled = min (Atomic.get h.hg_pos) (Array.length h.hg_window) in
  let sorted = Array.sub h.hg_window 0 filled in
  Array.sort compare sorted;
  sorted

let pct_of (sorted : float array) (q : float) : float =
  let filled = Array.length sorted in
  if filled = 0 then 0.0
  else
    let i = int_of_float (Float.round (q *. float_of_int (filled - 1))) in
    sorted.(min (filled - 1) (max 0 i))

(* count/mean/max over the histogram's lifetime, percentiles over the
   retained window (nearest-rank on the sorted samples). *)
let histogram_summary (h : histogram) : (string * float) list =
  let count = Atomic.get h.hg_count in
  let sum = float_of_int (Atomic.get h.hg_sum_fx) /. fixed_scale in
  let maxv = float_of_int (Atomic.get h.hg_max_fx) /. fixed_scale in
  let sorted = window_snapshot h in
  [
    ("count", float_of_int count);
    ("mean", if count = 0 then 0.0 else sum /. float_of_int count);
    ("max", maxv);
    ("p50", pct_of sorted 0.5);
    ("p95", pct_of sorted 0.95);
    ("p99", pct_of sorted 0.99);
  ]

let histogram_to_json (h : histogram) : json =
  Obj
    (("name", Str h.hg_name)
    :: List.map
         (fun (k, v) -> (k, if String.equal k "count" then Int (int_of_float v) else Float v))
         (histogram_summary h))

(* ------------------------------------------------------------------ *)
(* Per-operator runtime statistics (EXPLAIN ANALYZE)                   *)
(* ------------------------------------------------------------------ *)

type op_stats = {
  mutable op_calls : int;  (** closure invocations *)
  mutable op_secs : float;  (** cumulative (inclusive) time *)
  mutable op_tuples : int;  (** tuples actually pulled through the operator *)
  mutable op_items : int;  (** items produced / pulled when XML *)
}

let op_stats () = { op_calls = 0; op_secs = 0.0; op_tuples = 0; op_items = 0 }

(* Wrap a lazy cursor so every pull is timed into [op_secs] and counted
   into the given cardinality field.  Pull timing is inclusive: a parent
   operator's pull forces its child's pull inside the parent's timed
   window, matching the inclusive-time convention of the eager wrapper. *)
let counted_seq (st : op_stats) (count : op_stats -> unit) (s : 'a Seq.t) : 'a Seq.t =
  let rec wrap s () =
    let t0 = now () in
    let node = s () in
    st.op_secs <- st.op_secs +. (now () -. t0);
    match node with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (x, rest) ->
        count st;
        Seq.Cons (x, wrap rest)
  in
  wrap s

let tuple_counted_seq st s = counted_seq st (fun st -> st.op_tuples <- st.op_tuples + 1) s
let item_counted_seq st s = counted_seq st (fun st -> st.op_items <- st.op_items + 1) s

type join_stats = {
  mutable js_builds : int;  (** inner-side materializations *)
  mutable js_build_tuples : int;  (** tuples on the build side, summed *)
  mutable js_probes : int;  (** outer tuples probed *)
  mutable js_matches : int;  (** inner tuples matched, summed *)
  mutable js_sort_numeric : int;  (** sort-join numeric array length *)
  mutable js_sort_string : int;  (** sort-join string array length *)
}

let join_stats () =
  {
    js_builds = 0;
    js_build_tuples = 0;
    js_probes = 0;
    js_matches = 0;
    js_sort_numeric = 0;
    js_sort_string = 0;
  }

(* How the physical operator moves tuples: [Streamed] operators are lazy
   cursors that forward tuples as the consumer pulls, [Blocking] operators
   materialize (their input or build side) before producing output, and
   [Opaque] operators are item-level XML operators outside the pipeline. *)
type stream_kind = Streamed | Blocking | Opaque

let stream_kind_name = function
  | Streamed -> "streamed"
  | Blocking -> "blocking"
  | Opaque -> "opaque"

(* The annotated plan: a mirror of the algebraic plan tree carrying one
   [op_stats] per operator (plus [join_stats] on join operators),
   labelled with the printer's one-line operator rendering. *)
type op_node = {
  on_label : string;
  on_stats : op_stats;
  on_join : join_stats option;
  on_stream : stream_kind;
  on_est : float option;  (* planner's estimated output cardinality *)
  mutable on_children : op_node list;
}

(* Builder used by the evaluator while compiling an instrumented plan:
   a stack mirroring the compile recursion; push on entry, pop (and
   restore child order) on exit. *)
type builder = { mutable bd_stack : op_node list; mutable bd_root : op_node option }

let builder () = { bd_stack = []; bd_root = None }

let push_node (b : builder) ?join ?(stream = Opaque) ?est (label : string) :
    op_node =
  let n =
    { on_label = label; on_stats = op_stats (); on_join = join; on_stream = stream;
      on_est = est; on_children = [] }
  in
  (match b.bd_stack with
  | parent :: _ -> parent.on_children <- n :: parent.on_children
  | [] -> if b.bd_root = None then b.bd_root <- Some n);
  b.bd_stack <- n :: b.bd_stack;
  n

let pop_node (b : builder) : unit =
  match b.bd_stack with
  | n :: rest ->
      n.on_children <- List.rev n.on_children;
      b.bd_stack <- rest
  | [] -> ()

let top_join (b : builder) : join_stats option =
  match b.bd_stack with n :: _ -> n.on_join | [] -> None

let builder_root (b : builder) : op_node option = b.bd_root

let rec fold_nodes (f : 'a -> op_node -> 'a) (acc : 'a) (n : op_node) : 'a =
  List.fold_left (fold_nodes f) (f acc n) n.on_children

(* ------------------------------------------------------------------ *)
(* Pipeline phase timing                                               *)
(* ------------------------------------------------------------------ *)

type phase = { ph_name : string; mutable ph_secs : float; mutable ph_count : int }

(* ------------------------------------------------------------------ *)
(* Rewrite-rule firing trace                                           *)
(* ------------------------------------------------------------------ *)

type rewrite_trace = {
  mutable rw_passes : int;  (** fixpoint iterations of the rewrite driver *)
  mutable rw_rules : (string * int ref) list;  (** first-firing order *)
}

let rewrite_trace () = { rw_passes = 0; rw_rules = [] }

let fire (t : rewrite_trace) (rule : string) : unit =
  match List.assoc_opt rule t.rw_rules with
  | Some r -> incr r
  | None -> t.rw_rules <- t.rw_rules @ [ (rule, ref 1) ]

let rule_count (t : rewrite_trace) (rule : string) : int =
  match List.assoc_opt rule t.rw_rules with Some r -> !r | None -> 0

let total_firings (t : rewrite_trace) : int =
  List.fold_left (fun acc (_, r) -> acc + !r) 0 t.rw_rules

(* ------------------------------------------------------------------ *)
(* Collector: one run's worth of statistics                            *)
(* ------------------------------------------------------------------ *)

type collector = {
  mutable co_phases : phase list;  (** first-seen order *)
  mutable co_plans : (string * op_node) list;  (** "main", "global $v", "function f" *)
  co_rewrite : rewrite_trace;
}

let collector () = { co_phases = []; co_plans = []; co_rewrite = rewrite_trace () }

let phase (c : collector) (name : string) (f : unit -> 'a) : 'a =
  let ph =
    match List.find_opt (fun p -> String.equal p.ph_name name) c.co_phases with
    | Some p -> p
    | None ->
        let p = { ph_name = name; ph_secs = 0.0; ph_count = 0 } in
        c.co_phases <- c.co_phases @ [ p ];
        p
  in
  let t0 = now () in
  let finish () =
    let dt = now () -. t0 in
    ph.ph_secs <- ph.ph_secs +. dt;
    ph.ph_count <- ph.ph_count + 1
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* Re-registering a plan (each run re-compiles the closures) replaces
   the previous annotated tree for that name. *)
let set_plan (c : collector) (name : string) (root : op_node) : unit =
  c.co_plans <- List.filter (fun (n, _) -> not (String.equal n name)) c.co_plans @ [ (name, root) ]

(* Total (tuples, items) pulled through all operators of all annotated
   plans — the quantity the streaming evaluator's early termination
   bounds, and what the early-exit bench/CI smoke asserts on. *)
let pulled_totals (c : collector) : int * int =
  List.fold_left
    (fun acc (_, root) ->
      fold_nodes
        (fun (t, i) n -> (t + n.on_stats.op_tuples, i + n.on_stats.op_items))
        acc root)
    (0, 0) c.co_plans

let join_totals (c : collector) : join_stats =
  let total = join_stats () in
  List.iter
    (fun (_, root) ->
      ignore
        (fold_nodes
           (fun () n ->
             match n.on_join with
             | None -> ()
             | Some js ->
                 total.js_builds <- total.js_builds + js.js_builds;
                 total.js_build_tuples <- total.js_build_tuples + js.js_build_tuples;
                 total.js_probes <- total.js_probes + js.js_probes;
                 total.js_matches <- total.js_matches + js.js_matches;
                 total.js_sort_numeric <- total.js_sort_numeric + js.js_sort_numeric;
                 total.js_sort_string <- total.js_sort_string + js.js_sort_string)
           () root))
    c.co_plans;
  total

(* ------------------------------------------------------------------ *)
(* Text reports                                                        *)
(* ------------------------------------------------------------------ *)

let ms (s : float) : float = s *. 1000.0

let phases_to_string (c : collector) : string =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%-24s %10.3f ms  (%d run%s)\n" p.ph_name (ms p.ph_secs)
           p.ph_count
           (if p.ph_count = 1 then "" else "s")))
    c.co_phases;
  Buffer.contents buf

let rewrite_to_string (t : rewrite_trace) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "fixpoint passes: %d, rule firings: %d\n" t.rw_passes
       (total_firings t));
  List.iter
    (fun (rule, n) -> Buffer.add_string buf (Printf.sprintf "  %-36s %4d\n" rule !n))
    t.rw_rules;
  Buffer.contents buf

let global_counters_to_string () : string =
  let buf = Buffer.create 128 in
  List.iter
    (fun (name, v) ->
      if v > 0 then Buffer.add_string buf (Printf.sprintf "%-24s %10d\n" name v))
    (global_counters ());
  Buffer.contents buf

let join_stats_to_string (js : join_stats) : string =
  let sort =
    if js.js_sort_numeric = 0 && js.js_sort_string = 0 then ""
    else Printf.sprintf ", sorted=%d num/%d str" js.js_sort_numeric js.js_sort_string
  in
  Printf.sprintf "builds=%d (%d tuples), probes=%d, matches=%d%s" js.js_builds
    js.js_build_tuples js.js_probes js.js_matches sort

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)
(* ------------------------------------------------------------------ *)

let join_stats_to_json (js : join_stats) : json =
  Obj
    [
      ("builds", Int js.js_builds);
      ("build_tuples", Int js.js_build_tuples);
      ("probes", Int js.js_probes);
      ("matches", Int js.js_matches);
      ("sort_numeric", Int js.js_sort_numeric);
      ("sort_string", Int js.js_sort_string);
    ]

let rec op_node_to_json (n : op_node) : json =
  let st = n.on_stats in
  Obj
    ([
       ("op", Str n.on_label);
       ("calls", Int st.op_calls);
       ("time_ms", Float (ms st.op_secs));
       ("tuples", Int st.op_tuples);
       ("items", Int st.op_items);
       ( "estimated_rows",
         match n.on_est with Some e -> Float e | None -> Null );
       ("actual_rows", Int (st.op_tuples + st.op_items));
     ]
    @ (match n.on_stream with
      | Opaque -> []
      | k -> [ ("mode", Str (stream_kind_name k)) ])
    @ (match n.on_join with
      | None -> []
      | Some js -> [ ("join", join_stats_to_json js) ])
    @
    match n.on_children with
    | [] -> []
    | cs -> [ ("children", Arr (List.map op_node_to_json cs)) ])

let rewrite_to_json (t : rewrite_trace) : json =
  Obj
    [
      ("passes", Int t.rw_passes);
      ("firings", Int (total_firings t));
      ("rules", Obj (List.map (fun (rule, n) -> (rule, Int !n)) t.rw_rules));
    ]

let phases_to_json (c : collector) : json =
  Arr
    (List.map
       (fun p ->
         Obj
           [
             ("phase", Str p.ph_name);
             ("time_ms", Float (ms p.ph_secs));
             ("runs", Int p.ph_count);
           ])
       c.co_phases)

let collector_to_json ?(plans = true) (c : collector) : json =
  let pulled_tuples, pulled_items = pulled_totals c in
  Obj
    ([
       ("phases", phases_to_json c);
       ("rewrite", rewrite_to_json c.co_rewrite);
       ("joins", join_stats_to_json (join_totals c));
       ( "pulled",
         Obj [ ("tuples", Int pulled_tuples); ("items", Int pulled_items) ] );
       ( "counters",
         Obj (List.map (fun (name, v) -> (name, Int v)) (global_counters ())) );
     ]
    @
    if plans then
      [
        ( "plans",
          Arr
            (List.map
               (fun (name, root) ->
                 Obj [ ("name", Str name); ("plan", op_node_to_json root) ])
               c.co_plans) );
      ]
    else [])

let collector_to_json_string ?plans (c : collector) : string =
  json_to_string (collector_to_json ?plans c)

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

(* Minimal writer for the Prometheus text format (version 0.0.4): one
   # HELP and # TYPE line per family followed by its samples.  Summaries
   are rendered the canonical way — quantile-labelled samples plus the
   _sum/_count pair. *)

type prom_family =
  | Prom_counter of string * string * ((string * string) list * float) list
  | Prom_gauge of string * string * ((string * string) list * float) list
  | Prom_summary of string * string * (float * float) list * float * int
      (* name, help, (quantile, value) list, sum, count *)

let prom_escape_help (s : string) : string =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_escape_label (s : string) : string =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_value (v : float) : string =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let prom_sample (buf : Buffer.t) (name : string)
    (labels : (string * string) list) (v : float) : unit =
  Buffer.add_string buf name;
  (match labels with
  | [] -> ()
  | labels ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, value) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (prom_escape_label value);
          Buffer.add_char buf '"')
        labels;
      Buffer.add_char buf '}');
  Buffer.add_char buf ' ';
  Buffer.add_string buf (prom_value v);
  Buffer.add_char buf '\n'

let prom_header (buf : Buffer.t) (name : string) (help : string) (kind : string) :
    unit =
  Buffer.add_string buf
    (Printf.sprintf "# HELP %s %s\n# TYPE %s %s\n" name (prom_escape_help help)
       name kind)

let prometheus_to_string (families : prom_family list) : string =
  let buf = Buffer.create 1024 in
  List.iter
    (fun fam ->
      match fam with
      | Prom_counter (name, help, samples) ->
          prom_header buf name help "counter";
          List.iter (fun (labels, v) -> prom_sample buf name labels v) samples
      | Prom_gauge (name, help, samples) ->
          prom_header buf name help "gauge";
          List.iter (fun (labels, v) -> prom_sample buf name labels v) samples
      | Prom_summary (name, help, quantiles, sum, count) ->
          prom_header buf name help "summary";
          List.iter
            (fun (q, v) ->
              prom_sample buf name [ ("quantile", Printf.sprintf "%g" q) ] v)
            quantiles;
          prom_sample buf (name ^ "_sum") [] sum;
          prom_sample buf (name ^ "_count") [] (float_of_int count))
    families;
  Buffer.contents buf

(* Render a histogram as a Prometheus summary family: p50/p95/p99 over
   the retained window, _sum/_count over the lifetime. *)
let histogram_prom_summary (h : histogram) ~(name : string) ~(help : string) :
    prom_family =
  let sorted = window_snapshot h in
  let pct = pct_of sorted in
  Prom_summary
    ( name,
      help,
      [ (0.5, pct 0.5); (0.95, pct 0.95); (0.99, pct 0.99) ],
      float_of_int (Atomic.get h.hg_sum_fx) /. fixed_scale,
      Atomic.get h.hg_count )
