(* The complete XQuery logical algebra — Table 1 of the paper, plus the
   distinguished Input leaf (the paper's IN) that dependent sub-operators
   use to refer to their input.

   Operators are written Op[params]{dependents}(inputs).  A dependent
   sub-operator is a plan evaluated once per input tuple (or per input
   item), with Input bound accordingly; an independent input is evaluated
   once.  Input in table position denotes the singleton table containing
   the current input tuple, which is what the (insert join) rewriting
   relies on. *)

open Xqc_xml
open Xqc_types
open Xqc_frontend

type field = string

type sort_spec = { skey : plan; sdir : Ast.sort_dir; sempty : Ast.empty_order }

and group_spec = {
  g_agg : field;  (** output field bound to the post-grouping result *)
  g_indices : field list;  (** grouping criteria *)
  g_nulls : field list;  (** null flags: pre-op skipped when any is true *)
  g_post : plan;  (** applied to each partition's item sequence *)
  g_pre : plan;  (** applied to each non-null input tuple *)
}

and join_pred =
  | Pred of plan  (** arbitrary boolean dependent plan over τ1 ++ τ2 *)
  | Split_pred of {
      op : Promotion.cmp_op;
      left_key : plan;  (** depends only on left-input fields *)
      right_key : plan;  (** depends only on right-input fields *)
    }
      (** a general comparison whose sides touch disjoint inputs — the shape
          the XQuery hash/sort joins of Section 6 can execute *)

and plan =
  | Input  (** IN *)
  (* --- XML operators: constructors --- *)
  | Seq of plan list
  | Empty
  | Scalar of Atomic.t
  | Element of string * plan
  | Attribute of string * plan
  | Text of plan
  | Comment of plan
  | Pi of string * plan
  (* --- navigation --- *)
  | TreeJoin of Ast.axis * Ast.node_test * plan
  (* --- type operators --- *)
  | Castable of Atomic.type_name * bool * plan
  | Cast of Atomic.type_name * bool * plan
  | Validate of plan
  | TypeMatches of Seqtype.t * plan
  | TypeAssert of Seqtype.t * plan
  (* --- functional operators --- *)
  | Var of string  (** function parameter or global/external variable *)
  | Call of string * plan list
  | Cond of plan * plan * plan  (** Cond{then,else}(bool-input) *)
  | Quantified of Ast.quantifier * string * plan * plan
      (** retained item-level quantifier used inside pure XML sub-plans;
          the tuple-level forms are MapSome/MapEvery *)
  (* --- I/O operators --- *)
  | Parse of plan  (** URI -> document node *)
  | Serialize of string * plan
  (* --- tuple operators: constructors --- *)
  | TupleConstruct of (field * plan) list
      (** [q1:Op1;...;qn:Opn] — the singleton table holding that tuple;
          [TupleConstruct []] is the unit table ([] in the paper) *)
  | FieldAccess of field  (** IN#q *)
  (* --- select, project, join --- *)
  | Select of plan * plan  (** Select{pred}(input) *)
  | Product of plan * plan
  | Join of join_pred * plan * plan
  | LOuterJoin of field * join_pred * plan * plan
  (* --- maps --- *)
  | Map of plan * plan  (** Map{dep: τ1 -> τ2}(input) *)
  | OMap of field * plan
  | MapConcat of plan * plan  (** dependent join *)
  | OMapConcat of field * plan * plan
  | MapIndex of field * plan
  | MapIndexStep of field * plan
  (* --- grouping, sorting --- *)
  | OrderBy of sort_spec list * plan
  | GroupBy of group_spec * plan
  (* --- XML/tuple boundary --- *)
  | MapFromItem of plan * plan  (** dep: item -> tuple *)
  | MapToItem of plan * plan  (** dep: tuple -> items *)
  | MapSome of plan * plan
  | MapEvery of plan * plan

(* ------------------------------------------------------------------ *)
(* Traversal helpers                                                   *)
(* ------------------------------------------------------------------ *)

(* Children as (is_dependent, plan) pairs, with a rebuild function.  Used
   by the optimizer's generic bottom-up rewriting driver. *)
let children_of (p : plan) : plan list =
  match p with
  | Input | Empty | Scalar _ | Var _ | FieldAccess _ -> []
  | Seq ps -> ps
  | Element (_, a) | Attribute (_, a) | Text a | Comment a | Pi (_, a) -> [ a ]
  | TreeJoin (_, _, a) -> [ a ]
  | Castable (_, _, a) | Cast (_, _, a) | Validate a | TypeMatches (_, a)
  | TypeAssert (_, a) ->
      [ a ]
  | Call (_, args) -> args
  | Cond (c, t, e) -> [ c; t; e ]
  | Quantified (_, _, s, b) -> [ s; b ]
  | Parse a -> [ a ]
  | Serialize (_, a) -> [ a ]
  | TupleConstruct fields -> List.map snd fields
  | Select (d, i) -> [ d; i ]
  | Product (a, b) -> [ a; b ]
  | Join (Pred d, a, b) -> [ d; a; b ]
  | Join (Split_pred { left_key; right_key; _ }, a, b) -> [ left_key; right_key; a; b ]
  | LOuterJoin (_, Pred d, a, b) -> [ d; a; b ]
  | LOuterJoin (_, Split_pred { left_key; right_key; _ }, a, b) ->
      [ left_key; right_key; a; b ]
  | Map (d, i) | MapConcat (d, i) -> [ d; i ]
  | OMap (_, i) -> [ i ]
  | OMapConcat (_, d, i) -> [ d; i ]
  | MapIndex (_, i) | MapIndexStep (_, i) -> [ i ]
  | OrderBy (specs, i) -> List.map (fun s -> s.skey) specs @ [ i ]
  | GroupBy (g, i) -> [ g.g_post; g.g_pre; i ]
  | MapFromItem (d, i) | MapToItem (d, i) | MapSome (d, i) | MapEvery (d, i) -> [ d; i ]

(* Map a function over every direct child plan, preserving structure. *)
let rec map_children (f : plan -> plan) (p : plan) : plan =
  match p with
  | Input | Empty | Scalar _ | Var _ | FieldAccess _ -> p
  | Seq ps -> Seq (List.map f ps)
  | Element (n, a) -> Element (n, f a)
  | Attribute (n, a) -> Attribute (n, f a)
  | Text a -> Text (f a)
  | Comment a -> Comment (f a)
  | Pi (n, a) -> Pi (n, f a)
  | TreeJoin (ax, t, a) -> TreeJoin (ax, t, f a)
  | Castable (tn, o, a) -> Castable (tn, o, f a)
  | Cast (tn, o, a) -> Cast (tn, o, f a)
  | Validate a -> Validate (f a)
  | TypeMatches (ty, a) -> TypeMatches (ty, f a)
  | TypeAssert (ty, a) -> TypeAssert (ty, f a)
  | Call (n, args) -> Call (n, List.map f args)
  | Cond (c, t, e) -> Cond (f c, f t, f e)
  | Quantified (q, v, s, b) -> Quantified (q, v, f s, f b)
  | Parse a -> Parse (f a)
  | Serialize (u, a) -> Serialize (u, f a)
  | TupleConstruct fields -> TupleConstruct (List.map (fun (q, p) -> (q, f p)) fields)
  | Select (d, i) -> Select (f d, f i)
  | Product (a, b) -> Product (f a, f b)
  | Join (pred, a, b) -> Join (map_pred f pred, f a, f b)
  | LOuterJoin (q, pred, a, b) -> LOuterJoin (q, map_pred f pred, f a, f b)
  | Map (d, i) -> Map (f d, f i)
  | OMap (q, i) -> OMap (q, f i)
  | MapConcat (d, i) -> MapConcat (f d, f i)
  | OMapConcat (q, d, i) -> OMapConcat (q, f d, f i)
  | MapIndex (q, i) -> MapIndex (q, f i)
  | MapIndexStep (q, i) -> MapIndexStep (q, f i)
  | OrderBy (specs, i) ->
      OrderBy (List.map (fun s -> { s with skey = f s.skey }) specs, f i)
  | GroupBy (g, i) -> GroupBy ({ g with g_post = f g.g_post; g_pre = f g.g_pre }, f i)
  | MapFromItem (d, i) -> MapFromItem (f d, f i)
  | MapToItem (d, i) -> MapToItem (f d, f i)
  | MapSome (d, i) -> MapSome (f d, f i)
  | MapEvery (d, i) -> MapEvery (f d, f i)

and map_pred f = function
  | Pred p -> Pred (f p)
  | Split_pred s ->
      Split_pred { s with left_key = f s.left_key; right_key = f s.right_key }

(* Fields read from the dependent input tuple by a plan, *not* descending
   into sub-plans that rebind Input (dependent positions of inner map-like
   operators still see the same IN only in independent inputs).  Used to
   decide whether a dependent plan is independent of IN and which side of a
   join a predicate leg touches. *)
let rec input_fields (p : plan) : field list =
  match p with
  | FieldAccess q -> [ q ]
  | Input -> []
  (* dependent positions of these operators rebind Input: only traverse
     their independent inputs *)
  | Select (_, i)
  | Map (_, i)
  | MapConcat (_, i)
  | OMapConcat (_, _, i)
  | MapFromItem (_, i)
  | MapToItem (_, i)
  | MapSome (_, i)
  | MapEvery (_, i) ->
      input_fields i
  | OrderBy (_, i) -> input_fields i
  | GroupBy (_, i) -> input_fields i
  | Join (_, a, b) | LOuterJoin (_, _, a, b) ->
      input_fields a @ input_fields b
  | other -> List.concat_map input_fields (children_of other)

(* Does the plan refer to its dependent input at all (via Input or #q)?
   The (insert product) rewriting applies when the dependent sub-plan of a
   MapConcat is independent of IN. *)
let rec uses_input (p : plan) : bool =
  match p with
  | Input | FieldAccess _ -> true
  | Select (_, i)
  | Map (_, i)
  | MapConcat (_, i)
  | OMapConcat (_, _, i)
  | MapFromItem (_, i)
  | MapToItem (_, i)
  | MapSome (_, i)
  | MapEvery (_, i)
  | OrderBy (_, i)
  | GroupBy (_, i) ->
      uses_input i
  | Join (_, a, b) | LOuterJoin (_, _, a, b) -> uses_input a || uses_input b
  | other -> List.exists uses_input (children_of other)

(* Does the plan use IN as a whole (the bare Input leaf, e.g. as the
   singleton table of the current tuple), as opposed to reading individual
   fields?  Rewritings that re-route a dependent plan onto a narrower
   input must not fire when the plan captures the whole tuple. *)
let rec uses_bare_input (p : plan) : bool =
  match p with
  | Input -> true
  | FieldAccess _ -> false
  | Select (_, i)
  | Map (_, i)
  | MapConcat (_, i)
  | OMapConcat (_, _, i)
  | MapFromItem (_, i)
  | MapToItem (_, i)
  | MapSome (_, i)
  | MapEvery (_, i)
  | OrderBy (_, i)
  | GroupBy (_, i) ->
      uses_bare_input i
  | Join (_, a, b) | LOuterJoin (_, _, a, b) ->
      uses_bare_input a || uses_bare_input b
  | other -> List.exists uses_bare_input (children_of other)

(* The output tuple fields of a table-producing plan.  Fields are only
   appended by the algebra, so this is a total syntactic function; it is
   the basis of the physical slot resolution. *)
let rec output_fields (p : plan) : field list =
  match p with
  | TupleConstruct fields -> List.map fst fields
  | Select (_, i) | OrderBy (_, i) -> output_fields i
  | Product (a, b) -> output_fields a @ output_fields b
  | Join (_, a, b) -> output_fields a @ output_fields b
  | LOuterJoin (q, _, a, b) -> (q :: output_fields a) @ output_fields b
  | Map (d, _) -> output_fields d
  | OMap (q, i) -> q :: output_fields i
  | MapConcat (d, i) -> output_fields i @ output_fields d
  | OMapConcat (q, d, i) -> (q :: output_fields i) @ output_fields d
  | MapIndex (q, i) | MapIndexStep (q, i) -> q :: output_fields i
  | GroupBy (g, i) -> output_fields i @ [ g.g_agg ]
  | MapFromItem (d, _) -> output_fields d
  | Cond (_, t, _) -> output_fields t
  | Input -> []  (* resolved against the enclosing layout at compile time *)
  | _ -> []
