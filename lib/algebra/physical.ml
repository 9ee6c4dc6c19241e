(* The physical algebra: the execution-strategy-carrying counterpart of
   the logical algebra of Table 1.

   A logical plan says *what* to compute; a physical plan additionally
   says *how*: which join algorithm runs a Join (PNestedLoop /
   PHashJoin / PSortJoin) and which side it builds on, whether an axis
   step is answered by the structural name index or by walking
   (Index_scan / Tree_walk inside PSteps), where positional selections
   become streamed take-while prefixes (PStreamSelect), where
   aggregate/existential calls stream or probe the index instead of
   materializing their argument (PCallStream), and where pipelines are
   cut by explicit materialization (PMaterialize).  Every node carries
   the planner's cardinality and cost estimate, so EXPLAIN can render
   estimated-vs-actual.

   The tree is produced from the logical plan by Planner.plan (a
   cost-based translation fed by the Xqc_store statistics API) and is
   the only thing the evaluator dispatches on: no physical decision is
   re-made at closure-compile or run time. *)

open Xqc_xml
open Xqc_types
open Xqc_frontend

type field = Algebra.field

(* The three join algorithms of Section 6.  Nested_loop is always
   sound; Hash executes equality split predicates (Figure 6); Sort
   executes inequality split predicates. *)
type join_algorithm = Nested_loop | Hash | Sort

type build_side = Build_left | Build_right

(* How one axis step resolves its matches: through the per-root
   structural name index of Xqc_store, or by walking the tree.  The
   index path still degrades to a walk at run time when no index serves
   the tree (store mode off, unindexable root); Index_scan records that
   the planner expects — and costed — the index. *)
type step_impl = Index_scan | Tree_walk

(* Planner estimates: output cardinality (rows for tuple operators,
   items for XML operators) and cumulative cost in abstract work units. *)
type est = { est_rows : float; est_cost : float }

(* One step of a fused navigation chain.  The planner performs the
   descendant-or-self::node()/child::t -> descendant::t fusion, so the
   steps here are what actually executes. *)
type pstep = {
  ps_axis : Ast.axis;
  ps_test : Ast.node_test;
  ps_impl : step_impl;
  ps_est : float;  (** estimated items out of this step *)
}

(* Streaming execution of a builtin over a navigation chain:
   fn:exists / fn:empty stop at the first item (SExists negate=true is
   fn:empty), fn:count is answered from index range bounds where
   possible, fn:subsequence pulls a bounded prefix. *)
type stream_call = SExists of bool | SCount | SSubseq

type t = { pop : pop; pest : est }

and ppred =
  | PWholePred of t  (** arbitrary boolean dependent plan over τ1 ++ τ2 *)
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
  (* XML constructors *)
  | PSeq of t * t
  | PEmpty
  | PScalar of Atomic.t
  | PElement of string * t
  | PAttribute of string * t
  | PText of t
  | PComment of t
  | PPi of string * t
  (* navigation: a maximal TreeJoin chain, fused, each step carrying its
     index-vs-walk decision.  [ordered] states the chain preserves
     document order when streamed item by item (the static condition the
     cursor pipeline needs).  [par > 1] marks the chain eligible for
     partitioned execution: the strict evaluator may split the context
     node set (or the head step's nid range) into up to [par] contiguous
     pre-order partitions evaluated in parallel — contiguity preserves
     per-partition document order by construction, and a closing
     sorted-merge restores the global order on the rare nesting cases.
     The runtime still gates on the actual input width, so [par] is a
     budget, not a command. *)
  | PSteps of { steps : pstep list; ordered : bool; par : int; input : t }
  | PTreeProject of (Ast.axis * Ast.node_test) list list * t
  (* type operators *)
  | PCastable of Atomic.type_name * bool * t
  | PCast of Atomic.type_name * bool * t
  | PValidate of t
  | PTypeMatches of Seqtype.t * t
  | PTypeAssert of Seqtype.t * t
  (* functional operators *)
  | PVar of string
  | PCall of string * t list
  | PCallStream of stream_call * string * t list
      (** args.(0) is a PSteps chain; the callee name is kept so a
          run-time user redefinition of the builtin still takes the
          generic call path *)
  | PCond of t * t * t
  | PQuantified of Ast.quantifier * string * t * t
  (* I/O *)
  | PParse of t
  | PSerialize of string * t
  (* tuple constructors *)
  | PTupleConstruct of (field * t) list
  | PFieldAccess of field
  (* selection, product, joins *)
  | PSelect of t * t
  | PStreamSelect of { pred : t; bound : int; input : t }
      (** positional selection over a MapIndex input: the input cursor is
          cut after [bound] tuples (take-while on the position field),
          then the predicate filters the prefix *)
  | PProduct of t * t
  | PNestedLoop of { outer : field option; pred : ppred; left : t; right : t }
      (** [outer = Some q] is the left outer join with null-flag q *)
  | PHashJoin of {
      outer : field option;
      build : build_side;
      par : int;
          (** partition budget: [> 1] lets the evaluator hash-partition
              the build side and split the probe side into contiguous
              chunks probed in parallel, merged back in probe order *)
      left_key : t;
      right_key : t;
      left : t;
      right : t;
    }  (** equality split predicate; the [build] side is hashed *)
  | PSortJoin of {
      outer : field option;
      op : Promotion.cmp_op;
      left_key : t;
      right_key : t;
      left : t;
      right : t;
    }  (** inequality split predicate; always builds right *)
  | PMaterialize of t
      (** pipeline breaker: the planner marks the build sides of joins
          and products so blocking boundaries are visible in the plan *)
  (* maps *)
  | PMap of t * t
  | POMap of field * t
  | PMapConcat of t * t
  | POMapConcat of field * t * t
  | PMapIndex of field * t
  | PMapIndexStep of field * t
  (* grouping, sorting *)
  | POrderBy of psort_spec list * t
  | PGroupBy of pgroup_spec * t
  (* XML/tuple boundary *)
  | PMapFromItem of t * t
  | PMapToItem of t * t
  | PMapSome of t * t
  | PMapEvery of t * t

(* A full planned query: the physical counterpart of
   Compile.compiled_query. *)
type pfunction = { pf_name : string; pf_params : string list; pf_body : t }

type query = {
  pfunctions : pfunction list;
  pglobals : (string * t) list;
  pmain : t;
}

let join_algorithm_name = function
  | Nested_loop -> "nl"
  | Hash -> "hash"
  | Sort -> "sort"

let build_side_name = function Build_left -> "left" | Build_right -> "right"
let step_impl_name = function Index_scan -> "index" | Tree_walk -> "walk"

let children (p : t) : t list =
  match p.pop with
  | PInput | PEmpty | PScalar _ | PVar _ | PFieldAccess _ -> []
  | PSeq (a, b) -> [ a; b ]
  | PElement (_, a) | PAttribute (_, a) | PText a | PComment a | PPi (_, a) ->
      [ a ]
  | PSteps { input; _ } -> [ input ]
  | PTreeProject (_, a) -> [ a ]
  | PCastable (_, _, a) | PCast (_, _, a) | PValidate a | PTypeMatches (_, a)
  | PTypeAssert (_, a) ->
      [ a ]
  | PCall (_, args) | PCallStream (_, _, args) -> args
  | PCond (c, t, e) -> [ c; t; e ]
  | PQuantified (_, _, s, b) -> [ s; b ]
  | PParse a -> [ a ]
  | PSerialize (_, a) -> [ a ]
  | PTupleConstruct fields -> List.map snd fields
  | PSelect (d, i) -> [ d; i ]
  | PStreamSelect { pred; input; _ } -> [ pred; input ]
  | PProduct (a, b) -> [ a; b ]
  | PNestedLoop { pred = PWholePred d; left; right; _ } -> [ d; left; right ]
  | PNestedLoop { pred = PSplitPred { left_key; right_key; _ }; left; right; _ }
    ->
      [ left_key; right_key; left; right ]
  | PHashJoin { left_key; right_key; left; right; _ }
  | PSortJoin { left_key; right_key; left; right; _ } ->
      [ left_key; right_key; left; right ]
  | PMaterialize a -> [ a ]
  | PMap (d, i) | PMapConcat (d, i) -> [ d; i ]
  | POMap (_, i) -> [ i ]
  | POMapConcat (_, d, i) -> [ d; i ]
  | PMapIndex (_, i) | PMapIndexStep (_, i) -> [ i ]
  | POrderBy (specs, i) -> List.map (fun s -> s.pskey) specs @ [ i ]
  | PGroupBy (g, i) -> [ g.pg_post; g.pg_pre; i ]
  | PMapFromItem (d, i) | PMapToItem (d, i) | PMapSome (d, i) | PMapEvery (d, i)
    ->
      [ d; i ]

let rec size (p : t) : int = 1 + List.fold_left (fun n c -> n + size c) 0 (children p)

let rec fold (f : 'a -> t -> 'a) (acc : 'a) (p : t) : 'a =
  List.fold_left (fold f) (f acc p) (children p)

(* Largest partition budget annotated anywhere in the plan — what the
   fused execution tier consults before splitting a lowered program
   (the lowering erases operator boundaries, so the annotation is
   recovered from the source subplan). *)
let max_par (p : t) : int =
  fold
    (fun acc n ->
      match n.pop with
      | PSteps { par; _ } | PHashJoin { par; _ } -> max acc par
      | _ -> acc)
    1 p
