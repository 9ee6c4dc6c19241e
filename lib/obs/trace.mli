(** Request tracing: a trace is a causally-linked tree of timed spans
    covering one server request (admission → queue wait → deadline
    arming → plan-cache lookup / compile → eval → serialize → reply
    write), identified by a process-unique trace id.

    A trace is mutated by exactly one thread at a time (the admitting
    reader thread, then — after the queue hand-off, which provides the
    happens-before edge — the worker domain), so no locking is done on
    the trace itself.  Finished traces land in bounded per-domain ring
    buffers: storing is a plain slot write plus an atomic cursor bump;
    the ring registry is only locked at ring creation and lookup. *)

type span = {
  sp_id : int;  (** per-trace sequential, root is 1 *)
  sp_parent : int;  (** 0 = no parent (the root span) *)
  sp_name : string;
  sp_start_ms : float;  (** relative to the trace epoch *)
  mutable sp_dur_ms : float;
  mutable sp_attrs : (string * string) list;
}

type t = {
  tr_id : int;
  tr_op : string;
  mutable tr_source : string;
  tr_epoch : float;  (** wall clock at trace start *)
  mutable tr_spans : span list;  (** reverse creation order *)
  mutable tr_stack : span list;  (** open spans, innermost first *)
  mutable tr_next : int;
  mutable tr_outcome : string;  (** "" until finished *)
  mutable tr_total_ms : float;
  mutable tr_finished : bool;
}

(** {1 Trace ids} *)

val set_seed : int -> unit
(** Make subsequent trace ids sequential from [n]: the deterministic
    test mode (also reachable via the [XQC_TRACE_SEED] environment
    variable).  The default seed mixes PID and clock so concurrent
    servers on one host don't collide. *)

(** {1 Recording} *)

val start : ?epoch:float -> op:string -> unit -> t
(** Allocate a trace id and open the root "request" span.  [epoch]
    backdates the trace start (e.g. to when the request line was
    read). *)

val id : t -> int
val set_source : t -> string -> unit

val open_span : t -> ?attrs:(string * string) list -> string -> span
(** Open a span under the innermost open span; it becomes the innermost
    open span. *)

val close_span : t -> span -> unit
(** Close the span (and any straggler opened after it). *)

val span : t -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span; an escaping exception is recorded as an
    ["error"] attribute. *)

val add_span :
  t -> ?attrs:(string * string) list -> t0:float -> t1:float -> string -> unit
(** Retrospective span for the absolute-clock interval [t0, t1]
    (e.g. queue wait measured across the hand-off), parented under the
    innermost open span. *)

val event : t -> ?attrs:(string * string) list -> string -> unit
(** Zero-duration span at the current instant. *)

val annotate : t -> (string * string) list -> unit
(** Append attributes to the innermost open span. *)

val finish : t -> outcome:string -> float
(** Close all open spans, stamp the outcome and total, and store the
    trace in the calling domain's ring.  Returns the total duration in
    milliseconds.  Idempotent. *)

(** {1 Ambient current trace}

    The worker installs the request's trace as the domain's current
    trace so lower layers (plan cache, document resolver) can record
    spans with no API threading.  All helpers are no-ops without a
    current trace. *)

val current : unit -> t option
val with_current : t -> (unit -> 'a) -> 'a
val in_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
val annotate_current : (string * string) list -> unit

val opt_span :
  t option -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
val opt_event : t option -> ?attrs:(string * string) list -> string -> unit

(** {1 Retrieval} *)

val find : int -> t option
(** Look a finished trace up by id across all domain rings. *)

val recent : int -> t list
(** The [n] most recently started finished traces, newest first. *)

val stored_count : unit -> int

val reset : ?seed:int -> unit -> unit
(** Clear every ring in place and optionally reseed the id counter
    (tests). *)

(** {1 Rendering} *)

val spans : t -> span list
(** In creation order (root first). *)

val span_to_json : span -> Obs.json
val spans_to_json : t -> Obs.json
val to_json : t -> Obs.json
val summary_to_json : t -> Obs.json

(** {1 Well-formedness} *)

val well_formed : t -> (unit, string) result
(** Check that exactly one root exists, every parent exists and precedes
    its child, and every span's interval nests within its parent's. *)
