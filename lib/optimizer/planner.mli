(** Cost-based physical planning: translate a (rewritten) logical plan
    into the execution-strategy-carrying physical algebra.

    The planner makes every physical decision the evaluator dispatches
    on — join algorithm (hash / sort / nested loop) and hash build side,
    step fusion and streaming-order analysis, streaming builtin calls,
    and the explicit materialization of join/product build sides — and
    annotates every operator with an estimated output cardinality and
    cumulative cost.

    Cardinality estimates are fed by the {!Xqc_store.Store} statistics
    API (exact per-qname counts from the interval-encoded name indexes,
    averaged over the indexed document roots), with fixed fan-out and
    selectivity defaults when no index has been built.  Planning is
    therefore statistics-sensitive: the same logical plan may get a
    different physical plan once documents have been indexed. *)

open Xqc_algebra

type config = {
  force_join : Physical.join_algorithm option;
      (** override the cost-based algorithm choice for split join
          predicates (benchmarks, the nested-loop-only strategy, and
          the planner-agreement property tests); an incompatible force —
          e.g. [Sort] on an equality predicate — falls back to the
          always-sound nested loop *)
}

val default_config : config

val plan : ?config:config -> Algebra.plan -> Physical.t

(** {1 Estimation internals} — exposed for tests and EXPLAIN tooling. *)

val step_rows : Xqc_frontend.Ast.axis -> Xqc_frontend.Ast.node_test -> float -> float
(** Estimated output cardinality of one axis step over the given number
    of context nodes. *)

val ordered_chain : (Xqc_frontend.Ast.axis * Xqc_frontend.Ast.node_test) list -> bool
(** The static condition under which a step chain preserves document
    order when streamed item by item. *)

val fuse_steps :
  (Xqc_frontend.Ast.axis * Xqc_frontend.Ast.node_test) list ->
  (Xqc_frontend.Ast.axis * Xqc_frontend.Ast.node_test) list
(** descendant-or-self::node()/child::t -> descendant::t fusion. *)
