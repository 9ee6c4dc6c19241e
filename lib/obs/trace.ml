(* Request tracing: every admitted server request gets a trace — a
   causally-linked tree of timed spans (admission → queue wait →
   deadline arming → plan-cache lookup / compile → eval → serialize →
   reply write) identified by a process-unique trace id.

   Ownership model: a trace is mutated by exactly one thread at a time —
   the reader thread that admits the request, then (after the queue
   hand-off, which provides the happens-before edge) the worker domain
   that serves it.  No lock is ever taken on the trace itself.

   Storage: finished traces are kept in bounded per-domain ring buffers.
   Each domain owns its ring (domain-local state), so storing a trace is
   a plain slot write plus an atomic cursor bump — no locking on the hot
   path.  The global registry of rings is only locked when a ring is
   created (once per domain) and when a reader scans for a trace id.

   Determinism: trace ids come from one atomic counter, seeded from the
   PID and clock so concurrent servers on one host don't collide, and
   re-seedable ([set_seed], or the XQC_TRACE_SEED environment variable)
   so tests can assert exact ids.  Span ids are per-trace sequential
   (the root span is always 1), deterministic by construction. *)

module Obs = Obs

type span = {
  sp_id : int;
  sp_parent : int;  (* 0 = no parent (the root span) *)
  sp_name : string;
  sp_start_ms : float;  (* relative to the trace epoch *)
  mutable sp_dur_ms : float;
  mutable sp_attrs : (string * string) list;
}

type t = {
  tr_id : int;
  tr_op : string;
  mutable tr_source : string;  (* query text / statement name, "" if unset *)
  tr_epoch : float;  (* wall clock at trace start (Obs.now) *)
  mutable tr_spans : span list;  (* reverse creation order *)
  mutable tr_stack : span list;  (* open spans, innermost first *)
  mutable tr_next : int;  (* next span id *)
  mutable tr_outcome : string;  (* "" until finished *)
  mutable tr_total_ms : float;
  mutable tr_finished : bool;
}

(* ------------------------------------------------------------------ *)
(* Trace ids                                                           *)
(* ------------------------------------------------------------------ *)

let default_seed () =
  match Sys.getenv_opt "XQC_TRACE_SEED" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None ->
      (* PID and clock mixed into a positive id base; only relevant when
         several servers log trace ids to a shared place. *)
      (((Unix.getpid () * 2654435761) lxor int_of_float (Unix.gettimeofday () *. 1e3))
      land 0x3FFFFFFF)
      lor 1

let next_id = Atomic.make (default_seed ())
let set_seed (n : int) : unit = Atomic.set next_id n

(* ------------------------------------------------------------------ *)
(* Span recording                                                      *)
(* ------------------------------------------------------------------ *)

let rel (tr : t) (time : float) : float = (time -. tr.tr_epoch) *. 1000.0

let start ?epoch ~(op : string) () : t =
  let ep = match epoch with Some e -> e | None -> Obs.now () in
  let id = Atomic.fetch_and_add next_id 1 in
  let root =
    {
      sp_id = 1;
      sp_parent = 0;
      sp_name = "request";
      sp_start_ms = 0.0;
      sp_dur_ms = 0.0;
      sp_attrs = [ ("op", op) ];
    }
  in
  {
    tr_id = id;
    tr_op = op;
    tr_source = "";
    tr_epoch = ep;
    tr_spans = [ root ];
    tr_stack = [ root ];
    tr_next = 2;
    tr_outcome = "";
    tr_total_ms = 0.0;
    tr_finished = false;
  }

let id (tr : t) : int = tr.tr_id
let set_source (tr : t) (s : string) : unit = tr.tr_source <- s

let parent_id (tr : t) : int =
  match tr.tr_stack with s :: _ -> s.sp_id | [] -> 0

let open_span (tr : t) ?(attrs = []) (name : string) : span =
  let sp =
    {
      sp_id = tr.tr_next;
      sp_parent = parent_id tr;
      sp_name = name;
      sp_start_ms = rel tr (Obs.now ());
      sp_dur_ms = 0.0;
      sp_attrs = attrs;
    }
  in
  tr.tr_next <- tr.tr_next + 1;
  tr.tr_spans <- sp :: tr.tr_spans;
  tr.tr_stack <- sp :: tr.tr_stack;
  sp

(* Close [sp] and any span opened after it that was left open (a
   straggler closes at the same instant as its enclosing span). *)
let close_span (tr : t) (sp : span) : unit =
  let now_ms = rel tr (Obs.now ()) in
  let rec pop = function
    | [] -> []
    | s :: rest ->
        s.sp_dur_ms <- now_ms -. s.sp_start_ms;
        if s == sp then rest else pop rest
  in
  if List.memq sp tr.tr_stack then tr.tr_stack <- pop tr.tr_stack

let span (tr : t) ?attrs (name : string) (f : unit -> 'a) : 'a =
  let sp = open_span tr ?attrs name in
  match f () with
  | v ->
      close_span tr sp;
      v
  | exception e ->
      sp.sp_attrs <- sp.sp_attrs @ [ ("error", Printexc.to_string e) ];
      close_span tr sp;
      raise e

(* Retrospective span: an interval [t0, t1] (absolute clock values,
   e.g. measured across the queue hand-off) recorded after the fact,
   parented under the innermost open span. *)
let add_span (tr : t) ?(attrs = []) ~(t0 : float) ~(t1 : float)
    (name : string) : unit =
  let sp =
    {
      sp_id = tr.tr_next;
      sp_parent = parent_id tr;
      sp_name = name;
      sp_start_ms = rel tr t0;
      sp_dur_ms = (t1 -. t0) *. 1000.0;
      sp_attrs = attrs;
    }
  in
  tr.tr_next <- tr.tr_next + 1;
  tr.tr_spans <- sp :: tr.tr_spans

let event (tr : t) ?attrs (name : string) : unit =
  let n = Obs.now () in
  add_span tr ?attrs ~t0:n ~t1:n name

let annotate (tr : t) (attrs : (string * string) list) : unit =
  match tr.tr_stack with
  | s :: _ -> s.sp_attrs <- s.sp_attrs @ attrs
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* Per-domain ring storage                                             *)
(* ------------------------------------------------------------------ *)

let ring_capacity = 256

type ring = { rg_slots : t option array; rg_cursor : int Atomic.t }

let rings : ring list ref = ref []
let rings_lock = Mutex.create ()

let ring_key : ring Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let r =
        { rg_slots = Array.make ring_capacity None; rg_cursor = Atomic.make 0 }
      in
      Mutex.protect rings_lock (fun () -> rings := r :: !rings);
      r)

(* Store into the calling domain's ring.  The slot write is plain (the
   domain is the only writer; option slots are word-sized pointers, so
   concurrent readers cannot observe a torn value) and the cursor bump
   publishes it. *)
let store_trace (tr : t) : unit =
  let r = Domain.DLS.get ring_key in
  let i = Atomic.fetch_and_add r.rg_cursor 1 in
  r.rg_slots.(i mod ring_capacity) <- Some tr

let finish (tr : t) ~(outcome : string) : float =
  if not tr.tr_finished then begin
    let now_ms = rel tr (Obs.now ()) in
    List.iter (fun s -> s.sp_dur_ms <- now_ms -. s.sp_start_ms) tr.tr_stack;
    tr.tr_stack <- [];
    tr.tr_outcome <- outcome;
    tr.tr_total_ms <- now_ms;
    tr.tr_finished <- true;
    store_trace tr
  end;
  tr.tr_total_ms

let all_stored () : t list =
  let rs = Mutex.protect rings_lock (fun () -> !rings) in
  List.concat_map
    (fun r ->
      Array.to_list r.rg_slots
      |> List.filter_map (fun slot ->
             match slot with Some tr when tr.tr_finished -> Some tr | _ -> None))
    rs

let find (trace_id : int) : t option =
  List.find_opt (fun tr -> tr.tr_id = trace_id) (all_stored ())

let recent (n : int) : t list =
  let all = all_stored () in
  let sorted = List.sort (fun a b -> compare b.tr_epoch a.tr_epoch) all in
  List.filteri (fun i _ -> i < n) sorted

let stored_count () : int = List.length (all_stored ())

(* Reset for tests: clear every ring in place (rings stay registered —
   a domain's ring is reachable through its domain-local key forever)
   and reseed the id counter. *)
let reset ?seed () : unit =
  let rs = Mutex.protect rings_lock (fun () -> !rings) in
  List.iter
    (fun r ->
      Array.fill r.rg_slots 0 ring_capacity None;
      Atomic.set r.rg_cursor 0)
    rs;
  match seed with Some n -> set_seed n | None -> ()

(* ------------------------------------------------------------------ *)
(* Ambient current trace                                               *)
(* ------------------------------------------------------------------ *)

(* The worker domain installs the request's trace as its current trace
   for the duration of the request, so lower layers (plan cache,
   document resolver) can add spans without any API threading.  All
   helpers are no-ops when no trace is current — the untraced hot path
   costs one domain-local read. *)

let current_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () : t option = !(Domain.DLS.get current_key)

let with_current (tr : t) (f : unit -> 'a) : 'a =
  let cell = Domain.DLS.get current_key in
  let saved = !cell in
  cell := Some tr;
  Fun.protect ~finally:(fun () -> cell := saved) f

let in_span ?attrs (name : string) (f : unit -> 'a) : 'a =
  match current () with None -> f () | Some tr -> span tr ?attrs name f

let annotate_current (attrs : (string * string) list) : unit =
  match current () with None -> () | Some tr -> annotate tr attrs

(* Variants taking an explicit [t option] for layers that carry the
   trace in their own context record. *)
let opt_span (tro : t option) ?attrs (name : string) (f : unit -> 'a) : 'a =
  match tro with None -> f () | Some tr -> span tr ?attrs name f

let opt_event (tro : t option) ?attrs (name : string) : unit =
  match tro with None -> () | Some tr -> event tr ?attrs name

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let spans (tr : t) : span list = List.rev tr.tr_spans

let span_to_json (sp : span) : Obs.json =
  Obs.Obj
    ([
       ("id", Obs.Int sp.sp_id);
       ("parent", Obs.Int sp.sp_parent);
       ("name", Obs.Str sp.sp_name);
       ("start_ms", Obs.Float sp.sp_start_ms);
       ("dur_ms", Obs.Float sp.sp_dur_ms);
     ]
    @
    match sp.sp_attrs with
    | [] -> []
    | attrs ->
        [ ("attrs", Obs.Obj (List.map (fun (k, v) -> (k, Obs.Str v)) attrs)) ])

let spans_to_json (tr : t) : Obs.json =
  Obs.Arr (List.map span_to_json (spans tr))

let to_json (tr : t) : Obs.json =
  Obs.Obj
    ([ ("trace_id", Obs.Int tr.tr_id); ("op", Obs.Str tr.tr_op) ]
    @ (if String.equal tr.tr_source "" then []
       else [ ("source", Obs.Str tr.tr_source) ])
    @ [
        ("outcome", Obs.Str tr.tr_outcome);
        ("complete", Obs.Bool tr.tr_finished);
        ("total_ms", Obs.Float tr.tr_total_ms);
        ("spans", spans_to_json tr);
      ])

let summary_to_json (tr : t) : Obs.json =
  Obs.Obj
    [
      ("trace_id", Obs.Int tr.tr_id);
      ("op", Obs.Str tr.tr_op);
      ("outcome", Obs.Str tr.tr_outcome);
      ("total_ms", Obs.Float tr.tr_total_ms);
      ("spans", Obs.Int (List.length tr.tr_spans));
      ("age_s", Obs.Float (Obs.now () -. tr.tr_epoch));
    ]

(* ------------------------------------------------------------------ *)
(* Well-formedness (used by tests and CI)                              *)
(* ------------------------------------------------------------------ *)

(* A trace is well-formed when exactly one root exists, every other
   span's parent exists and was created before it, and every span's
   interval nests within its parent's (with a small tolerance for
   clock granularity). *)
let well_formed (tr : t) : (unit, string) result =
  let sps = spans tr in
  let eps = 0.001 in
  let roots = List.filter (fun s -> s.sp_parent = 0) sps in
  match roots with
  | [] -> Error "no root span"
  | _ :: _ :: _ -> Error "multiple root spans"
  | [ root ] ->
      let rec check = function
        | [] -> Ok ()
        | sp :: rest when sp == root -> check rest
        | sp :: rest -> (
            match List.find_opt (fun p -> p.sp_id = sp.sp_parent) sps with
            | None ->
                Error
                  (Printf.sprintf "span %d (%s): parent %d does not exist"
                     sp.sp_id sp.sp_name sp.sp_parent)
            | Some p ->
                if p.sp_id >= sp.sp_id then
                  Error
                    (Printf.sprintf
                       "span %d (%s): parent %d was created after it" sp.sp_id
                       sp.sp_name p.sp_id)
                else if sp.sp_start_ms +. eps < p.sp_start_ms then
                  Error
                    (Printf.sprintf
                       "span %d (%s) starts before its parent %d" sp.sp_id
                       sp.sp_name p.sp_id)
                else if
                  tr.tr_finished
                  && sp.sp_start_ms +. sp.sp_dur_ms
                     > p.sp_start_ms +. p.sp_dur_ms +. eps
                then
                  Error
                    (Printf.sprintf
                       "span %d (%s) ends after its parent %d" sp.sp_id
                       sp.sp_name p.sp_id)
                else check rest)
      in
      check sps
