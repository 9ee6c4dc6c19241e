(** The physical algebra: the execution-strategy-carrying counterpart of
    the logical algebra of Table 1.

    A logical plan says {e what} to compute; a physical plan additionally
    says {e how}: which join algorithm runs a Join and on which side it
    builds, whether an axis step is answered by the structural name index
    or by walking, where positional selections become streamed take-while
    prefixes, where builtin calls stream or probe the index instead of
    materializing their argument, and where pipelines are cut by explicit
    materialization.  Every node carries the planner's cardinality and
    cost estimate so EXPLAIN can render estimated-vs-actual.

    Produced from the logical plan by [Planner.plan]; the evaluator
    dispatches on this tree and re-makes no physical decision. *)

open Xqc_xml
open Xqc_types
open Xqc_frontend

type field = Algebra.field

(** The three join algorithms of Section 6.  [Nested_loop] is always
    sound; [Hash] executes equality split predicates (Figure 6); [Sort]
    executes inequality split predicates. *)
type join_algorithm = Nested_loop | Hash | Sort

type build_side = Build_left | Build_right

(** How an axis step resolves: through the per-root structural name
    index, or by walking.  [Index_scan] still degrades to a walk at run
    time when no index serves the tree. *)
type step_impl = Index_scan | Tree_walk

(** Planner estimates: output cardinality (tuples or items) and
    cumulative cost in abstract work units. *)
type est = { est_rows : float; est_cost : float }

(** One step of a fused navigation chain (the planner performs the
    [//]-fusion, so these steps are what executes). *)
type pstep = {
  ps_axis : Ast.axis;
  ps_test : Ast.node_test;
  ps_impl : step_impl;
  ps_est : float;
}

(** Streaming execution of a builtin over a navigation chain:
    [SExists true] is fn:empty. *)
type stream_call = SExists of bool | SCount | SSubseq

type t = { pop : pop; pest : est }

and ppred =
  | PWholePred of t
  | PSplitPred of { op : Promotion.cmp_op; left_key : t; right_key : t }

and psort_spec = { pskey : t; psdir : Ast.sort_dir; psempty : Ast.empty_order }

and pgroup_spec = {
  pg_agg : field;
  pg_indices : field list;
  pg_nulls : field list;
  pg_post : t;
  pg_pre : t;
}

and pop =
  | PInput
  | PSeq of t * t
  | PEmpty
  | PScalar of Atomic.t
  | PElement of string * t
  | PAttribute of string * t
  | PText of t
  | PComment of t
  | PPi of string * t
  | PSteps of { steps : pstep list; ordered : bool; par : int; input : t }
      (** a maximal fused TreeJoin chain; [ordered] = streaming the chain
          item by item preserves document order; [par > 1] = the strict
          evaluator may split the context set into up to [par] contiguous
          pre-order partitions evaluated in parallel (runtime-gated on
          actual width) *)
  | PTreeProject of (Ast.axis * Ast.node_test) list list * t
  | PCastable of Atomic.type_name * bool * t
  | PCast of Atomic.type_name * bool * t
  | PValidate of t
  | PTypeMatches of Seqtype.t * t
  | PTypeAssert of Seqtype.t * t
  | PVar of string
  | PCall of string * t list
  | PCallStream of stream_call * string * t list
      (** args.(0) is a [PSteps] chain; the name is kept so a run-time
          user redefinition still takes the generic call path *)
  | PCond of t * t * t
  | PQuantified of Ast.quantifier * string * t * t
  | PParse of t
  | PSerialize of string * t
  | PTupleConstruct of (field * t) list
  | PFieldAccess of field
  | PSelect of t * t
  | PStreamSelect of { pred : t; bound : int; input : t }
      (** positional selection: cut the input cursor after [bound]
          tuples, then filter the prefix with [pred] *)
  | PProduct of t * t
  | PNestedLoop of { outer : field option; pred : ppred; left : t; right : t }
      (** [outer = Some q]: left outer join with null-flag field [q] *)
  | PHashJoin of {
      outer : field option;
      build : build_side;
      par : int;
          (** [> 1]: hash-partition the build side and probe contiguous
              chunks of the probe side in parallel, merging in probe
              order *)
      left_key : t;
      right_key : t;
      left : t;
      right : t;
    }
  | PSortJoin of {
      outer : field option;
      op : Promotion.cmp_op;
      left_key : t;
      right_key : t;
      left : t;
      right : t;
    }
  | PMaterialize of t  (** explicit pipeline breaker (join build sides) *)
  | PMap of t * t
  | POMap of field * t
  | PMapConcat of t * t
  | POMapConcat of field * t * t
  | PMapIndex of field * t
  | PMapIndexStep of field * t
  | POrderBy of psort_spec list * t
  | PGroupBy of pgroup_spec * t
  | PMapFromItem of t * t
  | PMapToItem of t * t
  | PMapSome of t * t
  | PMapEvery of t * t

(** A full planned query: the physical counterpart of
    [Compile.compiled_query]. *)
type pfunction = { pf_name : string; pf_params : string list; pf_body : t }

type query = {
  pfunctions : pfunction list;
  pglobals : (string * t) list;
  pmain : t;
}

val join_algorithm_name : join_algorithm -> string
val build_side_name : build_side -> string
val step_impl_name : step_impl -> string

val children : t -> t list
val size : t -> int
val fold : ('a -> t -> 'a) -> 'a -> t -> 'a

val max_par : t -> int
(** Largest partition budget annotated anywhere in the plan (1 = fully
    sequential) — consulted by the fused execution tier, whose lowering
    erases the operator boundaries the annotation sits on. *)
