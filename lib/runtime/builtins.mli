(** The built-in function library: fn: (user-visible), op: (operators
    introduced by normalization), fs: (formal-semantics helpers) and the
    clio: helper used by the Figure 1 workload query.  This module is the
    algebra context's function table — the paper notes a number of
    built-ins are required for completeness (fn:data etc.). *)

open Xqc_xml

val table : (string * (Dynamic_ctx.t -> Dynamic_ctx.xvalue list -> Dynamic_ctx.xvalue)) list

val find : string -> (Dynamic_ctx.t -> Dynamic_ctx.xvalue list -> Dynamic_ctx.xvalue) option

val subsequence : float -> float option -> 'a Seq.t -> 'a Seq.t
(** [subsequence start len s]: fn:subsequence's selection, shared by the
    builtin and the streamed call.  Positions are compared as floats
    after rounding [start] and [len] as fn:round does; only the prefix
    of [s] up to the last selected position is pulled. *)

val names : string list
(** All registered function names (used by the coverage meta-test). *)

val deep_node_equal : Node.t -> Node.t -> bool
(** fn:deep-equal on two nodes: same kind and name, equal attribute sets,
    pairwise deep-equal children. *)

val deep_item_equal : Item.t -> Item.t -> bool
