(* Slow-query log: a bounded ring of the N worst requests whose total
   time exceeded a threshold.  Each entry is the request's finished
   trace — source, outcome, total time and span timeline all read from
   it — plus, filled in by the server after admission, an EXPLAIN
   ANALYZE of a re-run.

   The ring is kept sorted worst-first; once full, a new entry must beat
   the current minimum to be admitted (so the final contents are the
   global top-N regardless of arrival order — the property the racing-
   domains test asserts).  All mutation happens under one instrumented
   mutex, so the log's own contention shows up in the lock table. *)

module Obs = Obs

type entry = { en_trace : Trace.t; mutable en_explain : string option }

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

(* Offer a finished trace.  Returns its entry when it entered the ring
   (the caller then spends the effort of attaching an EXPLAIN ANALYZE). *)
let note (t : t) (tr : Trace.t) : entry option =
  let e = { en_trace = tr; en_explain = None } in
  if ms e < t.sl_threshold_ms then None
  else
    Obs.with_lock t.sl_lock (fun () ->
        t.sl_seen <- t.sl_seen + 1;
        let n = List.length t.sl_entries in
        if n < t.sl_capacity then begin
          t.sl_entries <- insert_sorted e t.sl_entries;
          Some e
        end
        else
          let worst_kept = List.nth t.sl_entries (n - 1) in
          if ms e > ms worst_kept then begin
            (* evict the least-slow entry *)
            t.sl_entries <-
              insert_sorted e (List.filteri (fun i _ -> i < n - 1) t.sl_entries);
            Some e
          end
          else None)

let set_explain (t : t) (e : entry) (text : string) : unit =
  Obs.with_lock t.sl_lock (fun () -> e.en_explain <- Some text)

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
