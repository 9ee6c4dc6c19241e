(* The dynamic evaluation context (the paper's implicit "algebra context"):
   schema in force, global/external variable bindings, compiled user
   functions, the document cache behind Parse/fn:doc, and the current
   function-parameter frame. *)

open Xqc_xml
open Xqc_types
module Obs = Xqc_obs.Obs
module Trace = Xqc_obs.Trace

exception Dynamic_error of string

exception Timeout
(* Raised by [check_deadline] when the context's deadline has passed;
   the query server maps it to a structured "timeout" error response. *)

let dynamic_error fmt = Printf.ksprintf (fun s -> raise (Dynamic_error s)) fmt

type xvalue = Item.sequence

type func = {
  func_params : string list;
  mutable func_impl : t -> xvalue list -> xvalue;
      (** patched after all functions are compiled, enabling recursion *)
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
      (** absolute wall-clock time (Obs.now) after which evaluation must
          abort with [Timeout]; [None] disables the checks *)
  mutable trace : Trace.t option;
      (** request trace to record context-level spans into (deadline
          arming, document parses); [None] = untraced *)
}

let create ?(schema = Schema.empty) ?resolver () =
  {
    schema;
    globals = Hashtbl.create 16;
    functions = Hashtbl.create 16;
    documents = Hashtbl.create 4;
    collections = Hashtbl.create 4;
    resolver;
    params = [];
    deadline = None;
    trace = None;
  }

let set_trace ctx tro = ctx.trace <- tro

let set_deadline ctx d =
  ctx.deadline <- d;
  (* the deadline-arming instant shows up in the request's span tree *)
  match d with
  | Some dl ->
      Trace.opt_event ctx.trace
        ~attrs:
          [ ("budget_ms", Printf.sprintf "%.1f" ((dl -. Obs.now ()) *. 1000.0)) ]
        "deadline-armed"
  | None -> ()

(* Cooperative cancellation: the evaluator calls this at operator
   invocation boundaries (which for dependent sub-plans means once per
   tuple), so a runaway query unwinds within a bounded amount of work
   of its deadline.  With no deadline set the check is one field load. *)
let check_deadline ctx =
  match ctx.deadline with
  | None -> ()
  | Some t -> if Obs.now () > t then raise Timeout

let bind_global ctx name value = Hashtbl.replace ctx.globals name value

let bind_document ctx uri doc = Hashtbl.replace ctx.documents uri doc

let bind_collection ctx name docs = Hashtbl.replace ctx.collections name docs

let resolve_collection ctx name : Node.t list =
  match Hashtbl.find_opt ctx.collections name with
  | Some docs -> docs
  | None -> dynamic_error "no collection bound under %S" name

let lookup_variable ctx name : xvalue =
  match List.assoc_opt name ctx.params with
  | Some v -> v
  | None -> (
      match Hashtbl.find_opt ctx.globals name with
      | Some v -> v
      | None -> dynamic_error "unbound variable $%s" name)

let c_doc_hits = Obs.global_counter "doc_cache_hits"
let c_doc_parses = Obs.global_counter "doc_parses"

let resolve_document ctx uri : Node.t =
  match Hashtbl.find_opt ctx.documents uri with
  | Some d ->
      Obs.incr_counter c_doc_hits;
      d
  | None -> (
      match ctx.resolver with
      | Some f ->
          let d =
            Trace.opt_span ctx.trace ~attrs:[ ("uri", uri) ] "doc-parse"
              (fun () -> f uri)
          in
          Obs.incr_counter c_doc_parses;
          Hashtbl.replace ctx.documents uri d;
          d
      | None -> dynamic_error "cannot resolve document %S" uri)

(* Escape hatch for long-lived contexts: drop every cached document so
   the next fn:doc re-resolves (e.g. after the file changed on disk).
   The structural indexes of the evicted trees go away with the trees
   once nothing else reaches them. *)
let clear_doc_cache ctx = Hashtbl.reset ctx.documents

(* Context for one intra-query partition task, running on another
   domain while the owner keeps evaluating.  Shared read-only during
   the task's lifetime: schema, globals (fully bound before the main
   plan runs), compiled functions, and the current [params] frame (an
   immutable list — the clone sees the frame at spawn and its own
   [with_params] pushes never touch the owner's).  Copied: the document
   cache, because [resolve_document] mutates it on miss (a racing task
   may re-parse a document the owner is also parsing; both store
   identical trees into disjoint tables).  Dropped: the trace — traces
   are single-owner ring writers, so partition tasks go untraced rather
   than corrupt the owner's spans.  The deadline is carried over so
   partition work respects the request budget. *)
let clone_for_task (ctx : t) : t =
  {
    schema = ctx.schema;
    globals = ctx.globals;
    functions = ctx.functions;
    documents = Hashtbl.copy ctx.documents;
    collections = ctx.collections;
    resolver = ctx.resolver;
    params = ctx.params;
    deadline = ctx.deadline;
    trace = None;
  }

(* Run [f] with a fresh parameter frame, restoring the caller's frame —
   needed for recursive user-defined functions. *)
let with_params ctx frame f =
  let saved = ctx.params in
  ctx.params <- frame;
  match f () with
  | v ->
      ctx.params <- saved;
      v
  | exception e ->
      ctx.params <- saved;
      raise e
