(* The physical algebra: the execution-strategy-carrying counterpart of
   the logical algebra of Table 1.

   A logical plan says *what* to compute; a physical plan additionally
   says *how*: which join algorithm runs a Join (PNestedLoop /
   PHashJoin / PSortJoin) and which side it builds on, where aggregate,
   existential and fn:subsequence calls stream or probe the index
   instead of materializing their argument (PCallStream).  Every node
   carries the planner's cardinality and cost estimate, so EXPLAIN
   can render estimated-vs-actual.

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

(* The one step shape the per-root structural name index of Xqc_store
   answers: a name test on the descendant or descendant-or-self axis.
   [Some (name, self)], [self] for descendant-or-self.  The planner's
   step cost, EXPLAIN's IndexScan/TreeWalk label and the evaluator's
   index lookups all read this; at run time the lookup still walks a
   tree the store does not index. *)
let index_step (axis : Ast.axis) (test : Ast.node_test) : (string * bool) option =
  match (axis, test) with
  | Ast.Descendant, Ast.Name_test name -> Some (name, false)
  | Ast.Descendant_or_self, Ast.Name_test name -> Some (name, true)
  | _ -> None

(* Planner estimates: output cardinality (rows for tuple operators,
   items for XML operators) and cumulative cost in abstract work units. *)
type est = { est_rows : float; est_cost : float }

(* One step of a fused navigation chain.  The planner performs the
   descendant-or-self::node()/child::t -> descendant::t fusion, so the
   steps here are what actually executes. *)
type pstep = {
  ps_id : int;  (** unique among all planned nodes, as [pid] *)
  ps_axis : Ast.axis;
  ps_test : Ast.node_test;
  ps_est : float;  (** estimated items out of this step *)
}

(* The chains fn:count/fn:exists are answered for from the index's
   range bounds: one step of the [index_step] shape, whose output is
   duplicate-free by construction. *)
let index_probe (steps : pstep list) : (string * bool) option =
  match steps with [ s ] -> index_step s.ps_axis s.ps_test | _ -> None

(* Streaming execution of a builtin over a navigation chain:
   fn:exists / fn:empty stop at the first item (SExists negate=true is
   fn:empty), fn:count is answered from index range bounds where
   possible, fn:subsequence pulls a bounded prefix. *)
type stream_call = SExists of bool | SCount | SSubseq

(* [pid] is unique among all planned nodes (the planner draws it from
   one counter); a profiled run keys its per-operator statistics on it. *)
type t = { pid : int; pop : pop; pest : est }

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
  | PSeq of t list
  | PEmpty
  | PScalar of Atomic.t
  | PElement of string * t
  | PAttribute of string * t
  | PText of t
  | PComment of t
  | PPi of string * t
  (* navigation: a maximal TreeJoin chain, fused; a step reads the
     index when [index_step] says so.  [ordered] states the chain
     preserves document order when streamed item by item (the static
     condition the cursor pipeline needs). *)
  | PSteps of { steps : pstep list; ordered : bool; input : t }
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
  | PProduct of t * t
  | PNestedLoop of { outer : field option; pred : ppred; left : t; right : t }
      (** [outer = Some q] is the left outer join with null-flag q *)
  | PHashJoin of {
      outer : field option;
      build : build_side;
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

let build_side_name = function Build_left -> "left" | Build_right -> "right"

let children (p : t) : t list =
  match p.pop with
  | PInput | PEmpty | PScalar _ | PVar _ | PFieldAccess _ -> []
  | PSeq ps -> ps
  | PElement (_, a) | PAttribute (_, a) | PText a | PComment a | PPi (_, a) ->
      [ a ]
  | PSteps { input; _ } -> [ input ]
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
  | PProduct (a, b) -> [ a; b ]
  | PNestedLoop { pred = PWholePred d; left; right; _ } -> [ d; left; right ]
  | PNestedLoop { pred = PSplitPred { left_key; right_key; _ }; left; right; _ }
    ->
      [ left_key; right_key; left; right ]
  | PHashJoin { left_key; right_key; left; right; _ }
  | PSortJoin { left_key; right_key; left; right; _ } ->
      [ left_key; right_key; left; right ]
  | PMap (d, i) | PMapConcat (d, i) -> [ d; i ]
  | POMap (_, i) -> [ i ]
  | POMapConcat (_, d, i) -> [ d; i ]
  | PMapIndex (_, i) | PMapIndexStep (_, i) -> [ i ]
  | POrderBy (specs, i) -> List.map (fun s -> s.pskey) specs @ [ i ]
  | PGroupBy (g, i) -> [ g.pg_post; g.pg_pre; i ]
  | PMapFromItem (d, i) | PMapToItem (d, i) | PMapSome (d, i) | PMapEvery (d, i)
    ->
      [ d; i ]

let rec fold (f : 'a -> t -> 'a) (acc : 'a) (p : t) : 'a =
  List.fold_left (fold f) (f acc p) (children p)
