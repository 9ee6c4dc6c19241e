(** Plan printer in the paper's notation —
    [Op\[params\]{dependents}(inputs)] — indented one operator per line as
    in the paper's plan listings (P1, P1', P2, ...).

    Every text rendering here, logical or physical, is one walk into one
    buffer that writes each line once.  A subtree more than
    {!max_depth} levels down prints as one [… N more operators] line,
    and so do the children of one node past its first {!max_depth}. *)

val max_depth : int
(** 64: a node this many levels below the root prints as that line, and
    so do a node's children after the first 64. *)

val to_string : Algebra.plan -> string

val size : Algebra.plan -> int
(** Number of operators in the plan. *)

val operator_names : Algebra.plan -> string list
(** The multiset of operator names, preorder — used by tests to assert
    plan shapes (e.g. one GroupBy, one LOuterJoin, no MapConcat). *)

(** {1 Physical plans} *)

val pstep_label : Physical.pstep -> string
(** [IndexScan\[descendant::item\]] / [TreeWalk\[child::name\]]. *)

val physical_label : Physical.t -> string
(** One-line label of a physical operator.  Mirror operators reuse the
    logical labels; strategy-carrying operators name their choice
    ([PHashJoin<eq>\[build=left\]], ...). *)

(** One rendered plan node: an operator, or a step of a [Steps] chain
    (no cost, no mode). *)
type row = {
  label : string;  (** {!physical_label} or {!pstep_label} *)
  est_rows : float;  (** the planner's estimated output cardinality *)
  cost : float option;  (** cumulative estimated cost; [None] on steps *)
  mode : string option;  (** ["streamed"] / ["blocking"], from the operator *)
  join : bool;  (** one of the three join operators *)
  stats : Xqc_obs.Obs.op_stats option;
      (** with a profile: the node's statistics, zero if it never ran;
          [None] on a leaf read ({!Physical.is_leaf_read}) *)
}

val rows : ?profile:Xqc_obs.Obs.profile -> Physical.t -> row list
(** The plan's rows in preorder, [Physical.children] order, each Steps
    node followed by its steps — the order every rendering uses.  Not
    cut at {!max_depth}. *)

val plan_to_string : ?profile:Xqc_obs.Obs.profile -> Physical.t -> string
(** One operator per line, indented: label, [est_rows], [cost], and the
    steps under their Steps node.  With a profile (EXPLAIN ANALYZE) each
    line adds [calls], [time] (timed profiles only), [out] (tuples plus
    items), the streaming mode and, on joins,
    [\[builds=… probes=… matches=…\]]; leaf reads are not profiled
    and print as in EXPLAIN. *)

val plan_to_json : Xqc_obs.Obs.profile -> Physical.t -> Xqc_obs.Obs.json
(** The same rows as a tree: [op], [calls], [time_ms] (timed profiles
    only), [tuples], [items], [estimated_rows], [actual_rows], [mode],
    [join], [children]; a leaf read has no counters.  Cut at {!max_depth} levels and children as the
    text is: a deeper subtree, or a node's children after its first
    {!max_depth}, is one [{"op": "…", "elided_operators": N}] node, [N]
    their size. *)

val query_plans : Physical.query -> (string * Physical.t) list
(** Every plan of a query under its report name: ["function f"],
    ["global $v"], then ["main"]. *)

val query_to_string : Physical.query -> string
(** Static EXPLAIN of all plans; each is headed by its name unless the
    query has only a main plan. *)

val plans_to_json : Xqc_obs.Obs.profile -> Physical.query -> Xqc_obs.Obs.json
(** [\[{name, plan}, …\]] over {!query_plans}. *)
