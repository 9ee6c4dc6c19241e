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

(* The JSON string body of [s] into [buf]: runs of bytes that need no
   escaping are blitted whole; '"', '\\' and the control bytes are
   escaped one by one. *)
let add_escaped (buf : Buffer.t) (s : string) : unit =
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf "0123456789abcdef".[Char.code c lsr 4];
          Buffer.add_char buf "0123456789abcdef".[Char.code c land 15]);
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (String.length s - !start)

(* The shortest of 15 and 17 significant digits that reads back as the
   same float: 0.1 stays "0.1", and a wall-clock timestamp keeps its
   sub-second digits. *)
let float_repr (f : float) : string =
  let short = Printf.sprintf "%.15g" f in
  if Float.equal (float_of_string short) f then short else Printf.sprintf "%.17g" f

let rec add_json (buf : Buffer.t) (j : json) : unit =
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* NaN/infinities are not JSON numbers *)
      if Float.is_finite f then Buffer.add_string buf (float_repr f)
      else Buffer.add_string buf "null"
  | Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
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
          add_escaped buf k;
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

(* One record per physical operator (and per fused navigation step),
   keyed by the planner's node id: the evaluator fills it while a
   profiled run executes, and the plan renderer reads it back.  The join
   counters stay zero on every operator but the three joins. *)
type op_stats = {
  mutable op_calls : int;  (** closure invocations *)
  mutable op_secs : float;  (** cumulative (inclusive) time *)
  mutable op_tuples : int;  (** tuples actually pulled through the operator *)
  mutable op_items : int;  (** items produced / pulled when XML *)
  mutable op_builds : int;  (** inner-side materializations *)
  mutable op_build_tuples : int;  (** tuples on the build side, summed *)
  mutable op_probes : int;  (** outer tuples probed *)
  mutable op_matches : int;  (** inner tuples matched, summed *)
  mutable op_sort_numeric : int;  (** sort-join numeric array length *)
  mutable op_sort_string : int;  (** sort-join string array length *)
}

let op_stats () =
  {
    op_calls = 0;
    op_secs = 0.0;
    op_tuples = 0;
    op_items = 0;
    op_builds = 0;
    op_build_tuples = 0;
    op_probes = 0;
    op_matches = 0;
    op_sort_numeric = 0;
    op_sort_string = 0;
  }

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
  co_plans : (int, op_stats) Hashtbl.t;
      (** the latest run's profile: one record per plan-node id *)
  co_rewrite : rewrite_trace;
}

let collector () =
  { co_phases = []; co_plans = Hashtbl.create 64; co_rewrite = rewrite_trace () }

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

let op_stats_of (c : collector) (id : int) : op_stats =
  match Hashtbl.find_opt c.co_plans id with
  | Some st -> st
  | None ->
      let st = op_stats () in
      Hashtbl.add c.co_plans id st;
      st

(* Total (tuples, items) pulled through all profiled operators — the
   quantity the streaming evaluator's early termination bounds, and what
   the early-exit tests assert on. *)
let pulled_totals (c : collector) : int * int =
  Hashtbl.fold (fun _ st (t, i) -> (t + st.op_tuples, i + st.op_items)) c.co_plans (0, 0)

let join_totals (c : collector) : op_stats =
  let total = op_stats () in
  Hashtbl.iter
    (fun _ st ->
      total.op_builds <- total.op_builds + st.op_builds;
      total.op_build_tuples <- total.op_build_tuples + st.op_build_tuples;
      total.op_probes <- total.op_probes + st.op_probes;
      total.op_matches <- total.op_matches + st.op_matches;
      total.op_sort_numeric <- total.op_sort_numeric + st.op_sort_numeric;
      total.op_sort_string <- total.op_sort_string + st.op_sort_string)
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

let join_to_string (st : op_stats) : string =
  let sort =
    if st.op_sort_numeric = 0 && st.op_sort_string = 0 then ""
    else Printf.sprintf ", sorted=%d num/%d str" st.op_sort_numeric st.op_sort_string
  in
  Printf.sprintf "builds=%d (%d tuples), probes=%d, matches=%d%s" st.op_builds
    st.op_build_tuples st.op_probes st.op_matches sort

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)
(* ------------------------------------------------------------------ *)

let join_to_json (st : op_stats) : json =
  Obj
    [
      ("builds", Int st.op_builds);
      ("build_tuples", Int st.op_build_tuples);
      ("probes", Int st.op_probes);
      ("matches", Int st.op_matches);
      ("sort_numeric", Int st.op_sort_numeric);
      ("sort_string", Int st.op_sort_string);
    ]

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

let collector_to_json ?plans (c : collector) : json =
  let pulled_tuples, pulled_items = pulled_totals c in
  Obj
    ([
       ("phases", phases_to_json c);
       ("rewrite", rewrite_to_json c.co_rewrite);
       ("joins", join_to_json (join_totals c));
       ( "pulled",
         Obj [ ("tuples", Int pulled_tuples); ("items", Int pulled_items) ] );
       ( "counters",
         Obj (List.map (fun (name, v) -> (name, Int v)) (global_counters ())) );
     ]
    @ match plans with Some p -> [ ("plans", p) ] | None -> [])

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
