(* Slow-query log: a bounded ring of the N worst requests whose total
   time exceeded a threshold.  Each entry is the request's finished
   trace — source, outcome, total time and span timeline all read from
   it — plus, for a query, the EXPLAIN ANALYZE of that very run, rows
   counted up to where it finished, timed out or failed.

   The ring is kept sorted worst-first; once full, a new entry must beat
   the current minimum to be admitted (so the final contents are the
   global top-N regardless of arrival order — the property the racing-
   domains test asserts).  All mutation happens under one instrumented
   mutex, so the log's own contention shows up in the lock table. *)

module Obs = Obs

type entry = { en_trace : Trace.t; en_explain : string option }

type t = {
  sl_lock : Obs.tmutex;
  sl_capacity : int;
  sl_threshold_ms : float;
  mutable sl_entries : entry list;  (* sorted by total time, worst first *)
  mutable sl_seen : int;  (* requests over threshold, admitted or not *)
}

let create ?(capacity = 16) ?(threshold_ms = 100.0) () : t =
  {
    sl_lock = Obs.tmutex "slow_log";
    sl_capacity = max 1 capacity;
    sl_threshold_ms = threshold_ms;
    sl_entries = [];
    sl_seen = 0;
  }

let threshold_ms (t : t) : float = t.sl_threshold_ms

let ms (e : entry) : float = e.en_trace.Trace.tr_total_ms

(* Insert keeping worst-first order; ties keep the earlier entry first. *)
let rec insert_sorted (e : entry) = function
  | [] -> [ e ]
  | x :: rest when ms x >= ms e -> x :: insert_sorted e rest
  | rest -> e :: rest

(* Would an entry of [total] ms enter the ring now?  Under the lock. *)
let admits (t : t) (total : float) : bool =
  match List.nth_opt t.sl_entries (t.sl_capacity - 1) with
  | None -> true
  | Some worst_kept -> total > ms worst_kept

(* Offer a finished trace, with the renderer of its run's EXPLAIN
   ANALYZE.  Admission is decided first, so only a trace that enters
   the ring is rendered; the rendering runs outside the lock, and the
   insert checks admission again, since another request may have
   entered meanwhile.  Returns the entry when it entered the ring. *)
let note (t : t) ?(explain : (unit -> string) option) (tr : Trace.t) : entry option =
  let total = tr.Trace.tr_total_ms in
  if total < t.sl_threshold_ms then None
  else if
    not
      (Obs.with_lock t.sl_lock (fun () ->
           t.sl_seen <- t.sl_seen + 1;
           admits t total))
  then None
  else
    let e = { en_trace = tr; en_explain = Option.map (fun f -> f ()) explain } in
    Obs.with_lock t.sl_lock (fun () ->
        if not (admits t total) then None
        else begin
          (* evict the least-slow entry of a full ring *)
          t.sl_entries <- insert_sorted e (List.filteri (fun i _ -> i < t.sl_capacity - 1) t.sl_entries);
          Some e
        end)

let entries (t : t) : entry list =
  Obs.with_lock t.sl_lock (fun () -> t.sl_entries)

let seen (t : t) : int = Obs.with_lock t.sl_lock (fun () -> t.sl_seen)

let entry_to_json (e : entry) : Obs.json =
  let tr = e.en_trace in
  Obs.Obj
    ([
       ("op", Obs.Str tr.Trace.tr_op);
       ("source", Obs.Str tr.Trace.tr_source);
       ("outcome", Obs.Str tr.Trace.tr_outcome);
       ("ms", Obs.Float (ms e));
       ("at", Obs.Float (tr.Trace.tr_epoch +. (ms e /. 1000.)));
       ("trace_id", Obs.Int tr.Trace.tr_id);
       ("spans", Trace.spans_to_json tr);
     ]
    @
    match e.en_explain with
    | None -> []
    | Some text -> [ ("explain", Obs.Str text) ])

let to_json (t : t) : Obs.json =
  Obs.with_lock t.sl_lock (fun () ->
      Obs.Obj
        [
          ("threshold_ms", Obs.Float t.sl_threshold_ms);
          ("capacity", Obs.Int t.sl_capacity);
          ("seen", Obs.Int t.sl_seen);
          ("entries", Obs.Arr (List.map entry_to_json t.sl_entries));
        ])
