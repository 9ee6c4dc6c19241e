(** Slow-query log: a bounded ring of the N worst requests over a
    threshold, kept sorted worst-first.  Once full, a new entry must
    beat the current minimum, so the final contents are the global
    top-N regardless of arrival order.  Mutation happens under one
    instrumented mutex ("slow_log" in the lock table). *)

type entry = {
  en_trace : Trace.t;  (** the finished request; ranked by [tr_total_ms] *)
  mutable en_explain : string option;
}

type t

val create : ?capacity:int -> ?threshold_ms:float -> unit -> t
(** Defaults: capacity 16, threshold 100 ms. *)

val threshold_ms : t -> float

val note : t -> Trace.t -> entry option
(** Offer a finished trace; [Some entry] when it entered the ring
    (worth spending the effort of attaching an EXPLAIN ANALYZE).
    Traces under the threshold are always rejected. *)

val set_explain : t -> entry -> string -> unit

val entries : t -> entry list
(** Worst first. *)

val seen : t -> int
(** Requests ever seen over the threshold (admitted or not). *)

val to_json : t -> Obs.json
