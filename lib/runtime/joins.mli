(** XQuery-aware physical join algorithms — Section 6 of the paper.

    {b Hash join} (Figure 6): the inner input is materialized into a hash
    table keyed on every (value, type) pair each key value promotes to;
    entries record the original type, the tuple and its ordinal position.
    A probe match is accepted only when the pair of {e original} types
    prescribes the matched comparison type under fs:convert-operand
    (Table 2); matches are then sorted on the order field and
    de-duplicated, restoring the inner sequence order and honouring the
    existential semantics of general comparisons.

    {b Sort join}: for inequality predicates the inner keys are
    materialized into two sorted arrays (numeric and string orderings);
    each probe key scans the range(s) Table 2 makes comparable with its
    type.  This serves XMark Q11/Q12-style non-equi joins.

    Both algorithms turn incomparable/uncastable value pairs into
    non-matches (the paper's semantics) and exclude NaN keys. *)

open Xqc_xml
open Xqc_types

type tuple = Item.sequence array

type 'k entry = {
  e_key : 'k;
  e_orig_type : Atomic.type_name;
  e_order : int;  (** 1-based position in the inner input *)
  e_tuple : tuple;
}

(** {1 Hash equi-join} *)

type hash_index = {
  hi_buckets : (Atomic.t, unit entry list ref) Hashtbl.t;
  hi_size : int;
}

val is_nan_atom : Atomic.t -> bool

val build_hash_index : tuple list -> (tuple -> Item.sequence) -> hash_index
(** [materialize] of Figure 6: index the inner input on the atomized key
    expression, one bucket entry per promotion target. *)

val probe_hash_index : hash_index -> Atomic.t list -> tuple list
(** [allMatches] of Figure 6: every inner tuple equal to any probe key,
    in inner input order, without duplicates. *)

val probe_hash_index_orders : hash_index -> Atomic.t list -> int list
(** The sorted distinct build positions ([e_order], 1-based) whose
    entries match any probe key — the build-side-flipped probe used when
    the planner builds the hash join on its left input.  The Table 2
    acceptance check is symmetric, so this matches exactly the pairs
    {!probe_hash_index} would. *)

(** {1 Sort join for inequalities} *)

type sort_index = {
  si_numeric : float entry array;  (** ascending by numeric key *)
  si_string : string entry array;  (** ascending by string key *)
}

val numeric_key : Atomic.t -> float option
val string_key : Atomic.t -> string option

val build_sort_index : tuple list -> (tuple -> Item.sequence) -> sort_index

val probe_sort_index : Promotion.cmp_op -> sort_index -> Atomic.t list -> tuple list
(** All inner tuples with [probe_key op inner_key] for some pair of keys,
    in inner input order, without duplicates.  Only Lt/Le/Gt/Ge are
    meaningful; Eq/Ne raise [Invalid_argument]. *)

val lower_bound : 'k entry array -> ('k -> bool) -> int
val range_for : Promotion.cmp_op -> ('k -> 'k -> int) -> 'k -> 'k entry array -> int * int
