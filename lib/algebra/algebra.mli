(** The complete XQuery logical algebra — Table 1 of the paper.

    Operators are written [Op\[params\]{dependents}(inputs)].  A dependent
    sub-operator is a plan evaluated once per input tuple (or item) with
    the distinguished {!constructor:Input} leaf (the paper's IN) bound to
    it; an independent input is evaluated once, with IN passed through
    unchanged.  [Input] in table position denotes the singleton table of
    the current tuple, which the (insert join) rewriting relies on. *)

open Xqc_xml
open Xqc_types
open Xqc_frontend

type field = string
(** Tuple field names (the paper's q).  Normalization alpha-renames all
    variables, so fields are globally unique within a plan. *)

type sort_spec = {
  skey : plan;  (** dependent key plan, atomized per tuple *)
  sdir : Ast.sort_dir;
  sempty : Ast.empty_order;
}

(** GroupBy[q_Agg, q_Indices, q_Nulls]{post}{pre}(input) — the paper's
    XQuery-specific group-by (Section 5).  Input tuples are partitioned
    by the [g_indices] fields (an empty list means one partition for the
    whole input); [g_pre] maps each tuple whose [g_nulls] flags are all
    false to an item sequence; the partition's concatenated items feed
    [g_post], whose result is bound to [g_agg]; each partition yields its
    first tuple extended with the aggregate, in first-occurrence order. *)
and group_spec = {
  g_agg : field;
  g_indices : field list;
  g_nulls : field list;
  g_post : plan;  (** item sequence -> item sequence, IN = the partition *)
  g_pre : plan;  (** tuple -> item sequence, IN = the tuple *)
}

(** A join predicate: either an arbitrary boolean dependent plan over the
    concatenated tuple, or a general comparison already split into two
    independent key plans — the shape the Section 6 algorithms execute. *)
and join_pred =
  | Pred of plan
  | Split_pred of {
      op : Promotion.cmp_op;
      left_key : plan;  (** reads only left-input fields *)
      right_key : plan;  (** reads only right-input fields *)
    }

and plan =
  | Input  (** IN — the current dependent input *)
  (* XML operators: constructors (compositional, unlike the serialized
     Xi operator the paper contrasts with) *)
  | Seq of plan list  (** Sequence(s1, ..., sn), n >= 2 *)
  | Empty
  | Scalar of Atomic.t
  | Element of string * plan  (** content sequence -> new element node *)
  | Attribute of string * plan
  | Text of plan
  | Comment of plan
  | Pi of string * plan
  (* navigation *)
  | TreeJoin of Ast.axis * Ast.node_test * plan
      (** set-at-a-time navigation: document-ordered, duplicate-free *)
  (* type operators *)
  | Castable of Atomic.type_name * bool * plan  (** bool: "?" allowed *)
  | Cast of Atomic.type_name * bool * plan
  | Validate of plan
  | TypeMatches of Seqtype.t * plan
  | TypeAssert of Seqtype.t * plan
  (* functional operators *)
  | Var of string  (** function parameter or global/external variable *)
  | Call of string * plan list
  | Cond of plan * plan * plan  (** Cond{then, else}(boolean input) *)
  | Quantified of Ast.quantifier * string * plan * plan
      (** item-level quantifier (the tuple-level forms are
          MapSome/MapEvery); binds its variable in the parameter frame *)
  (* I/O operators *)
  | Parse of plan  (** URI -> document node, through the context's cache *)
  | Serialize of string * plan
  (* tuple constructors *)
  | TupleConstruct of (field * plan) list
      (** \[q1:Op1; ...\] — the singleton table holding that tuple;
          [TupleConstruct \[\]] is the paper's unit table (\[\]) *)
  | FieldAccess of field  (** IN#q — slot-resolved at compile time *)
  (* selection, product, joins *)
  | Select of plan * plan
  | Product of plan * plan  (** left-major pair order *)
  | Join of join_pred * plan * plan
      (** order-preserving: left-major, matches in right order,
          de-duplicated per the existential predicate semantics.  The
          logical operator carries no execution strategy: the join
          algorithm, build side and materialization points are chosen by
          the physical planner (see {!Physical}). *)
  | LOuterJoin of field * join_pred * plan * plan
      (** adds a boolean null-flag field (true on unmatched left rows,
          whose right fields are empty sequences) *)
  (* maps *)
  | Map of plan * plan  (** tuple -> tuple, 1:1 *)
  | OMap of field * plan
      (** null-plug: an empty input table becomes one flagged tuple *)
  | MapConcat of plan * plan  (** dependent join (the D-Join of Natix) *)
  | OMapConcat of field * plan * plan  (** outer dependent join *)
  | MapIndex of field * plan  (** prepends 1-based consecutive positions *)
  | MapIndexStep of field * plan
      (** like MapIndex but only promises distinct ascending integers,
          which is what lets it commute with selections and float through
          rewritings (Section 5) *)
  (* grouping, sorting *)
  | OrderBy of sort_spec list * plan
  | GroupBy of group_spec * plan
  (* XML/tuple boundary *)
  | MapFromItem of plan * plan  (** dep: item -> tuple *)
  | MapToItem of plan * plan  (** dep: tuple -> item sequence *)
  | MapSome of plan * plan
  | MapEvery of plan * plan

(** {1 Traversal helpers} *)

val children_of : plan -> plan list
(** All direct sub-plans (dependents, inputs, predicate legs). *)

val map_children : (plan -> plan) -> plan -> plan
(** Rebuild with every direct sub-plan transformed. *)

val map_pred : (plan -> plan) -> join_pred -> join_pred

val input_fields : plan -> field list
(** Fields read from the {e current} dependent input (IN#q), not
    descending into sub-plans that rebind IN.  Decides which side of a
    join a predicate leg touches. *)

val uses_input : plan -> bool
(** Does the plan depend on IN at all (bare or by field)?  The side
    condition of (insert product). *)

val uses_bare_input : plan -> bool
(** Does the plan use IN as a whole (e.g. as a singleton table)?
    Rewritings that re-route a dependent onto a narrower input must not
    fire in that case. *)

val output_fields : plan -> field list
(** The output tuple fields of a table-producing plan.  Fields are only
    appended by the algebra, so this is a total syntactic function; it is
    the basis of the evaluator's slot resolution. *)
