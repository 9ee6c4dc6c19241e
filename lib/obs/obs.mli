(** Observability primitives: counters, instrumented mutexes, latency
    histograms, and the structured statistics the pipeline records —
    phase timings, per-operator runtime statistics (EXPLAIN ANALYZE),
    join build/probe accounting, and rewrite-rule firing traces.

    The library sits below the algebra so every layer can depend on it.
    All records are plain mutable structs updated in place; with
    statistics disabled none of this code runs, leaving the
    uninstrumented hot path unchanged. *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]). *)

(** {1 JSON} *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val json_to_string : json -> string
(** Compact rendering; non-finite floats become [null], finite ones the
    shorter of 15 and 17 significant digits that reads back exactly. *)

val add_json : Buffer.t -> json -> unit
(** {!json_to_string} into a caller's buffer. *)

(** {1 Counters} *)

type counter = { cn_name : string; cn_cell : int Atomic.t }
(** Counters are atomic so the server's worker domains can increment the
    shared process-wide counters without tearing; uncontended increments
    stay a single fetch-and-add (no lock, no allocation). *)

val counter : string -> counter
val incr_counter : counter -> unit
val add_counter : counter -> int -> unit
val counter_value : counter -> int

(** {1 Instrumented mutexes (contention telemetry)} *)

type lock_stats = {
  ls_name : string;
  ls_acquires : int Atomic.t;  (** total acquisitions *)
  ls_contended : int Atomic.t;  (** acquisitions that had to block *)
  ls_wait_ns : int Atomic.t;  (** cumulative time spent blocked *)
  ls_hold_ns : int Atomic.t;  (** cumulative time the lock was held *)
}

type tmutex = { tx_stats : lock_stats; tx_mutex : Mutex.t }
(** A mutex that accounts for its own contention.  Statistics are
    interned by name, so several mutex instances protecting the same
    kind of resource share one stats record, and the registry can be
    walked for the server's metrics plane.  The fast path costs one
    [Mutex.try_lock] plus two clock reads over a plain mutex. *)

val tmutex : string -> tmutex
(** Fresh mutex whose statistics record is interned under [name]. *)

val with_lock : tmutex -> (unit -> 'a) -> 'a
(** [Mutex.protect] with wait/hold accounting (also on exceptions). *)

type lock_summary = {
  lk_name : string;
  lk_acquires : int;
  lk_contended : int;
  lk_wait_ms : float;
  lk_hold_ms : float;
}

val lock_summaries : unit -> lock_summary list
(** Current statistics of every interned lock, in interning order. *)

val reset_lock_stats : unit -> unit
(** Zero every lock-stats record (tests and benchmarks). *)

val lock_summary_to_json : lock_summary -> json

val global_counter : string -> counter
(** Interned process-wide counter: repeated calls with the same name
    return the same record.  Used by subsystems whose statistics outlive
    any one prepared query (indexed store, document and plan caches);
    the current values are included in every collector report. *)

val global_counters : unit -> (string * int) list
(** Current values of all global counters, in registration order. *)

val global_counters_to_string : unit -> string
(** One line per non-zero global counter. *)

(** {1 Latency histograms} *)

type histogram
(** Thread-safe reservoir: lifetime count/mean/max plus percentiles
    (p50/p95/p99) over a ring buffer of the most recent samples.  The
    query server records one sample per request. *)

val histogram : ?window:int -> string -> histogram
(** [window] is the number of recent samples retained for percentile
    computation (default 4096). *)

val observe : histogram -> float -> unit
(** Record one sample.  Lock-free: an atomic count/fixed-point sum/CAS
    max plus a [fetch_and_add] ring ticket — concurrent observers never
    serialize.  Lifetime aggregates are exact; a percentile read racing
    an insert may count one stale window sample. *)

val histogram_summary : histogram -> (string * float) list
(** [count]/[mean]/[max] over the lifetime, [p50]/[p95]/[p99] over the
    retained window (nearest rank). *)

val histogram_to_json : histogram -> json

(** {1 Per-operator runtime statistics (EXPLAIN ANALYZE)} *)

type op_stats = {
  mutable op_calls : int;  (** closure invocations *)
  mutable op_secs : float;  (** cumulative (inclusive) time *)
  mutable op_tuples : int;  (** tuples actually pulled through the operator *)
  mutable op_items : int;  (** items produced / pulled when XML *)
  mutable op_builds : int;  (** join: inner-side materializations *)
  mutable op_build_tuples : int;  (** join: build-side tuples, summed *)
  mutable op_probes : int;  (** join: outer tuples probed *)
  mutable op_matches : int;  (** join: inner tuples matched, summed *)
  mutable op_sort_numeric : int;  (** sort join: numeric key array length *)
  mutable op_sort_string : int;  (** sort join: string key array length *)
}
(** One physical operator's (or navigation step's) profile.  The join
    counters stay zero except on the three join operators. *)

val op_stats : unit -> op_stats

val tuple_counted_seq : op_stats -> 'a Seq.t -> 'a Seq.t
(** Wrap a lazy cursor so every pull is timed into [op_secs] (inclusive:
    child pulls nest inside the parent's timed window) and counted into
    [op_tuples]. *)

val item_counted_seq : op_stats -> 'a Seq.t -> 'a Seq.t
(** The same, counting into [op_items]. *)

(** {1 Pipeline phase timing} *)

type phase = { ph_name : string; mutable ph_secs : float; mutable ph_count : int }

(** {1 Rewrite-rule firing trace} *)

type rewrite_trace = {
  mutable rw_passes : int;  (** fixpoint iterations of the rewrite driver *)
  mutable rw_rules : (string * int ref) list;  (** first-firing order *)
}

val rewrite_trace : unit -> rewrite_trace
val fire : rewrite_trace -> string -> unit
val rule_count : rewrite_trace -> string -> int
val total_firings : rewrite_trace -> int

(** {1 Collector: one prepared query's worth of statistics} *)

type collector = {
  mutable co_phases : phase list;  (** first-seen order *)
  co_plans : (int, op_stats) Hashtbl.t;
      (** the latest run's per-operator profile, keyed by the planner's
          node ids ([Physical.t.pid], [pstep.ps_id]) *)
  co_rewrite : rewrite_trace;
}

val collector : unit -> collector

val phase : collector -> string -> (unit -> 'a) -> 'a
(** Time the thunk under the named phase, accumulating across runs. *)

val op_stats_of : collector -> int -> op_stats
(** The record of plan node [id], added on first use. *)

val pulled_totals : collector -> int * int
(** Total (tuples, items) pulled through all profiled operators — what
    the early-exit tests assert on. *)

val join_totals : collector -> op_stats
(** The six join counters summed over all profiled operators. *)

(** {1 Reports} *)

val ms : float -> float

val phases_to_string : collector -> string
val rewrite_to_string : rewrite_trace -> string
val join_to_string : op_stats -> string
(** [builds=… (… tuples), probes=…, matches=…] of one join or a total. *)

val join_to_json : op_stats -> json
val rewrite_to_json : rewrite_trace -> json
val phases_to_json : collector -> json

val collector_to_json : ?plans:json -> collector -> json
(** Full machine-readable statistics; [plans], the annotated plan trees
    the plan renderer draws from this collector, goes under ["plans"]. *)

val collector_to_json_string : ?plans:json -> collector -> string

(** {1 Prometheus text exposition} *)

(** Metric families for the Prometheus text format (0.0.4): counters and
    gauges carry (labels, value) samples; summaries carry
    (quantile, value) samples plus the _sum/_count pair. *)
type prom_family =
  | Prom_counter of string * string * ((string * string) list * float) list
  | Prom_gauge of string * string * ((string * string) list * float) list
  | Prom_summary of string * string * (float * float) list * float * int

val prometheus_to_string : prom_family list -> string
(** Render families with their # HELP / # TYPE headers. *)

val histogram_prom_summary :
  histogram -> name:string -> help:string -> prom_family
(** p50/p95/p99 over the retained window, _sum/_count over the
    lifetime. *)
