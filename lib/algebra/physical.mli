(** The physical algebra: the execution-strategy-carrying counterpart of
    the logical algebra of Table 1.

    A logical plan says {e what} to compute; a physical plan additionally
    says {e how}: which join algorithm runs a Join and on which side it
    builds, where builtin calls stream or probe the index instead of
    materializing their argument.  Every node carries the planner's cardinality and
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

(** The one step shape the structural name index answers: a name test
    on the descendant ([Some (name, false)]) or descendant-or-self
    ([Some (name, true)]) axis.  Every other step walks.  The planner's
    step cost, EXPLAIN's label and the evaluator all read this; at run
    time the lookup still walks a tree the store does not index. *)
val index_step : Ast.axis -> Ast.node_test -> (string * bool) option

(** Planner estimates: output cardinality (tuples or items) and
    cumulative cost in abstract work units. *)
type est = { est_rows : float; est_cost : float }

(** One step of a fused navigation chain (the planner performs the
    [//]-fusion, so these steps are what executes). *)
type pstep = {
  ps_id : int;  (** unique among all planned nodes, as [pid] *)
  ps_axis : Ast.axis;
  ps_test : Ast.node_test;
  ps_est : float;
}

(** A chain [fn:count]/[fn:exists] can answer from the index's range
    bounds: exactly one step, of the {!index_step} shape. *)
val index_probe : pstep list -> (string * bool) option

(** Streaming execution of a builtin over a navigation chain:
    [SExists true] is fn:empty. *)
type stream_call = SExists of bool | SCount | SSubseq

(** [pid] is unique among all planned nodes: every run keys its
    per-operator statistics ([Obs.profile.pf_ops]) on it. *)
type t = { pid : int; pop : pop; pest : est }

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
  | PSeq of t list
  | PEmpty
  | PScalar of Atomic.t
  | PElement of string * t
  | PAttribute of string * t
  | PText of t
  | PComment of t
  | PPi of string * t
  | PSteps of { steps : pstep list; ordered : bool; input : t }
      (** a maximal fused TreeJoin chain; [ordered] = streaming the chain
          item by item preserves document order *)
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
  | PProduct of t * t
  | PNestedLoop of { outer : field option; pred : ppred; left : t; right : t }
      (** [outer = Some q]: left outer join with null-flag field [q] *)
  | PHashJoin of {
      outer : field option;
      build : build_side;
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

val build_side_name : build_side -> string

val is_leaf_read : t -> bool
(** [PInput], [PEmpty], [PScalar], [PVar], [PFieldAccess]: constant-time
    reads the evaluator neither counts nor times. *)

val children : t -> t list
val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
