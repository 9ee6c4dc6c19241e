(** Physical evaluation of planned algebra plans.

    Plans compile to OCaml closures.  Tuples are value arrays and every
    IN#q access resolves to an integer slot at compile time — the paper
    attributes part of the algebra speedup to this "replacement of
    dynamic lookups in the dynamic context by direct compiled memory
    access".

    The evaluator consumes the {e physical} algebra produced by the
    cost-based planner ([Xqc_optimizer.Planner]) and re-makes no strategy
    decision: join algorithm and build side, index-vs-walk per step,
    positional bounds, streaming calls and materialization points all
    arrive encoded in the plan.

    Dependent-input plumbing: every compiled plan receives the current
    dependent input [inp]; operators pass it through to their independent
    children unchanged and rebind it for their dependent children
    (per-tuple predicates, map bodies, group-by pre/post plans, join
    predicate legs, sort keys). *)

open Xqc_xml
open Xqc_frontend
open Xqc_algebra

exception Compile_error of string

val compile_error : ('a, unit, string, 'b) format4 -> 'a

type tuple = Item.sequence array

type dval = Xml of Item.sequence | Tab of tuple Seq.t

type inp = ITuple of tuple | IItems of Item.sequence | INone

type comp = Dynamic_ctx.t -> inp -> dval

val as_items : dval -> Item.sequence

val as_table : dval -> tuple Seq.t
(** The tabular arm is a pull-based cursor: tuples flow only as the
    consumer pulls, and each cursor must be consumed at most once. *)

val table_list : dval -> tuple list
(** [as_table] drained to a list (what blocking consumers do). *)

val ebv : dval -> bool

(** {1 Layouts} *)

type layout = string list

val field_index : layout -> string -> int option

val concat_spec : layout -> layout -> layout * int * (int * int) array
(** Tuple-concatenation spec: merged output layout (left fields keep
    their slots, overlapping right fields overwrite in place), its width,
    and the compile-time move table for the right tuple. *)

val apply_concat : int -> int -> (int * int) array -> tuple -> tuple -> tuple

(** {1 Axes and construction (shared with the interpreter)} *)

val apply_axis : Ast.axis -> Node.t -> Node.t list
val test_matches : Xqc_types.Schema.t -> Ast.axis -> Ast.node_test -> Node.t -> bool
val tree_join : Xqc_types.Schema.t -> Ast.axis -> Ast.node_test -> Item.sequence -> Item.sequence
val construct_element : string -> Item.sequence -> Item.t
(** Build the element from its content, copying every content node, and
    number the finished tree. *)

val construct_attribute : string -> Item.sequence -> Item.t

(** {1 Compilation and execution} *)

type cenv = { layout : layout; adopt : bool; uses : string -> int }
(** [adopt]: the nodes the plan constructs
    flow straight into an enclosing element constructor, which adopts
    them, so they are returned unnumbered; [false] at scope roots.
    [uses]: reads of each tuple field in the whole plan. *)

val top_env : Physical.t -> cenv
(** The environment of a scope root (a query body, a global or a
    function body): empty layout, not adopting, and the
    plan's field use counts. *)

val force_materialize : bool ref
(** Debug knob: when set during compilation, every operator drains its
    cursor eagerly at call time and the cursor-based early-termination
    paths are disabled — restoring fully materialized evaluation of the
    {e same} physical plan.  Used to cross-check streamed against
    materialized results and as the bench early-exit baseline. *)

val compile : cenv -> Physical.t -> comp * layout
(** Compile a physical plan under the layout IN will have when it is a
    tuple; returns the closure and the output layout (meaningful for
    table-producing plans).
    @raise Compile_error on unknown tuple fields or malformed plans. *)

val compile_plan :
  Xqc_obs.Obs.collector option -> string -> cenv -> Physical.t -> comp * layout
(** Compile one plan; with a collector, every operator closure is
    wrapped to record invocation count, cumulative (inclusive) time and
    output cardinality — alongside the planner's estimate — and the
    annotated tree is registered under the given name (replacing any
    previous tree of that name). *)

val install_query :
  ?stats:Xqc_obs.Obs.collector ->
  Dynamic_ctx.t -> Physical.query -> Dynamic_ctx.t -> Item.sequence
(** Register the query's functions (recursion-safe two-phase patching)
    and return a runner evaluating globals then the main plan.  With
    [~stats], compiled closures are instrumented per operator. *)

val run :
  ?stats:Xqc_obs.Obs.collector ->
  Dynamic_ctx.t -> Physical.query -> Item.sequence
(** With [~stats], times the "compile closures" and "eval" phases and
    records per-operator and join statistics into the collector. *)
