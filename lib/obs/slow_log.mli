(** Slow-query log: a bounded ring of the N worst requests over a
    threshold, kept sorted worst-first.  Once full, a new entry must
    beat the current minimum, so the final contents are the global
    top-N regardless of arrival order.  Mutation happens under one
    instrumented mutex ("slow_log" in the lock table). *)

type entry = {
  en_trace : Trace.t;  (** the finished request; ranked by [tr_total_ms] *)
  en_explain : string option;  (** the EXPLAIN ANALYZE of that run *)
}

type t

val create : ?capacity:int -> ?threshold_ms:float -> unit -> t
(** Defaults: capacity 16, threshold 100 ms. *)

val threshold_ms : t -> float

val note : t -> ?explain:(unit -> string) -> Trace.t -> entry option
(** Offer a finished trace; [Some entry] when it entered the ring.
    [explain] renders the EXPLAIN ANALYZE of the request's own run; it
    is called, outside the lock, only for a trace the ring admits.
    Traces under the threshold are always rejected. *)

val entries : t -> entry list
(** Worst first. *)

val seen : t -> int
(** Requests ever seen over the threshold (admitted or not). *)

val to_json : t -> Obs.json
