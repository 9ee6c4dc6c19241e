(** Physical evaluation of planned algebra plans.

    Plans compile to OCaml closures.  Tuples are value arrays and every
    IN#q access resolves to an integer slot at compile time — the paper
    attributes part of the algebra speedup to this "replacement of
    dynamic lookups in the dynamic context by direct compiled memory
    access".

    The evaluator consumes the {e physical} algebra produced by the
    cost-based planner ([Xqc_optimizer.Planner]) and re-makes no strategy
    decision: join algorithm and build side, positional bounds and
    streaming calls all arrive encoded in the plan, and a step reads the structural index exactly when its
    shape is {!Xqc_algebra.Physical.index_step}.

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

type cenv = {
  layout : layout;
  adopt : bool;
  uses : string -> int;
  profile : Xqc_obs.Obs.profile;
}
(** [adopt]: the nodes the plan constructs
    flow straight into an enclosing element constructor, which adopts
    them, so they are returned unnumbered; [false] at scope roots.
    [uses]: reads of each tuple field in the whole plan.
    [profile]: the run's profile — each operator and step counts its
    calls, output cardinality and join counters into the profile's
    record for its node id, and, in a timed profile only, its inclusive
    time. *)

val top_env : Xqc_obs.Obs.profile -> Physical.t -> cenv
(** The environment of a scope root (a query body, a global or a
    function body): empty layout, not adopting, the plan's field use
    counts, and the run's profile. *)

val force_materialize : bool ref
(** Debug knob: when set during compilation, every operator drains its
    cursor eagerly at call time and every step chain read by a pulling
    consumer runs the strict per-step fold, with no cursor and no index
    probe — restoring fully materialized evaluation of the {e same}
    physical plan.  Used to cross-check streamed against
    materialized results, and as the early-exit baseline of
    [test_equivalence]'s bounded-pull cases. *)

val compile : cenv -> Physical.t -> comp * layout
(** Compile a physical plan under the layout IN will have when it is a
    tuple; returns the closure and the output layout (meaningful for
    table-producing plans).
    @raise Compile_error on unknown tuple fields or malformed plans. *)

val run : ?profile:Xqc_obs.Obs.profile -> Dynamic_ctx.t -> Physical.query -> Item.sequence
(** Register the query's functions (recursion-safe two-phase patching),
    compile every plan to closures, then evaluate the globals and the
    main plan.  The run counts into [profile] (default: a fresh untimed
    one); a timed profile also gets the "compile closures" and "eval"
    phases. *)
