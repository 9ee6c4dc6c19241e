(** The dynamic evaluation context — the paper's implicit "algebra
    context": the schema in force, global/external variable bindings,
    compiled user functions, the document cache behind Parse/fn:doc, and
    the current function-parameter frame. *)

open Xqc_xml
open Xqc_types

exception Dynamic_error of string

exception Timeout
(** Raised by {!check_deadline} when the context's deadline has passed.
    The query server maps it to a structured ["timeout"] error. *)

val dynamic_error : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Dynamic_error} with a formatted message. *)

type xvalue = Item.sequence

(** A user-defined function; [func_impl] is patched after all functions
    of a query are compiled, enabling (mutual) recursion. *)
type func = {
  func_params : string list;
  mutable func_impl : t -> xvalue list -> xvalue;
}

and t = {
  schema : Schema.t;
  globals : (string, xvalue) Hashtbl.t;
  functions : (string, func) Hashtbl.t;
  documents : (string, Node.t) Hashtbl.t;
  collections : (string, Node.t list) Hashtbl.t;
      (** named document collections behind fn:collection, in bind order *)
  resolver : (string -> Node.t) option;
  mutable params : (string * xvalue) list;  (** current function frame *)
  mutable deadline : float option;
      (** absolute wall-clock time after which evaluation aborts *)
  mutable trace : Xqc_obs.Trace.t option;
      (** request trace to record context-level spans into (deadline
          arming, document parses); [None] = untraced *)
}

val create : ?schema:Schema.t -> ?resolver:(string -> Node.t) -> unit -> t

val set_trace : t -> Xqc_obs.Trace.t option -> unit
(** Attach the request's trace so [set_deadline] and
    [resolve_document] record spans into it. *)

val set_deadline : t -> float option -> unit
(** Arm (or clear) the evaluation deadline, as an absolute [Obs.now]
    wall-clock time.  Arming is recorded as a "deadline-armed" event in
    the attached trace, if any. *)

val check_deadline : t -> unit
(** Cooperative cancellation point: raise {!Timeout} when the deadline
    has passed.  The physical evaluator calls this at operator
    invocation boundaries — for dependent sub-plans, once per tuple —
    so with no deadline set the cost is one field load. *)

val bind_global : t -> string -> xvalue -> unit
val bind_document : t -> string -> Node.t -> unit

val bind_collection : t -> string -> Node.t list -> unit
(** Bind a named collection for [fn:collection]; the member order is
    the sequence order the function returns. *)

val resolve_collection : t -> string -> Node.t list
(** @raise Dynamic_error when no collection is bound under the name. *)

val lookup_variable : t -> string -> xvalue
(** Parameter frame first, then globals.
    @raise Dynamic_error when unbound. *)

val resolve_document : t -> string -> Node.t
(** Cache lookup, falling back to the resolver (which is then cached),
    making [fn:doc] idempotent per URI for the context's lifetime.
    Hits and resolver calls are recorded in the [doc_cache_hits] /
    [doc_parses] obs global counters.
    @raise Dynamic_error when the URI cannot be resolved. *)

val clear_doc_cache : t -> unit
(** Drop every cached document so the next [fn:doc] re-resolves —
    the escape hatch for long-lived contexts whose backing files
    change.  The structural indexes of the evicted trees are freed
    with the trees once nothing else reaches them. *)

val with_params : t -> (string * xvalue) list -> (unit -> 'a) -> 'a
(** Run with a parameter frame, restoring the caller's frame on exit
    (including on exceptions). *)

val clone_for_task : t -> t
(** Context for one intra-query partition task running on another
    domain.  Schema, globals, functions and the current parameter frame
    are shared (read-only for the task's lifetime — the frame is an
    immutable list, so the clone's own [with_params] never touches the
    owner's); the document cache is copied because [resolve_document]
    mutates it; the deadline is carried over; the trace is dropped
    (traces are single-owner). *)
