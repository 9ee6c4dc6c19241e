(** Indexed document store: per-root structural name indexes over the
    pre/size interval encoding.

    Every renumbered tree carries preorder ids plus cached subtree
    extents, so the subtree of [n] is exactly the id interval
    [n.nid, n.nid + n.extent).  This module lazily builds, per document
    root, arrays of same-named element/attribute nodes in id order
    (plus a ["*"] entry holding every element); an axis step then
    resolves to two binary searches delimiting the name's range inside
    the context node's interval, and [fn:count]/[fn:exists] over a
    descendant step are answered from the range bounds without touching
    a node.

    An index lives exactly as long as its root is reachable: the cache
    holds each entry in an ephemeron keyed on the root, so dropping the
    last reference to a document frees its index too, with no explicit
    purge.  Statistics come from a per-root count summary and never
    revive a dead root.  Indexes are keyed by the root's nid at build
    time; [Node.renumber] gives the root a fresh nid, so a renumbered
    root rebuilds on its next query.  Trees violating the preorder
    invariant are recorded as unindexable and served by the walking
    fallback.  All query functions return [None] when the caller should
    walk instead (mode off, unindexable tree, below the Auto threshold,
    or the index would be slower — e.g. [child::t] with more same-named
    descendants than children).  Builds, hits and fallbacks are recorded
    in the obs global counters (index_builds / index_build_nodes /
    index_hits / index_fallbacks). *)

open Xqc_xml

(** [Auto] indexes roots with at least [min_index_size] nodes, [Force]
    indexes everything, [Off] disables index lookups.  Seeded from the
    [XQC_INDEX] environment variable ("off"/"force"). *)
type mode = Auto | Off | Force

val mode : mode ref
val min_index_size : int ref

val small_subtree : int ref
(** Context nodes whose subtree is at most this many nodes answer
    [child::]/attribute queries by scanning, not through the index. *)

(** {1 Axis queries} — [None] means: walk instead. *)

val descendants_by_name : Node.t -> string -> Node.t list option
val descendants_by_name_seq : Node.t -> string -> Node.t Seq.t option
val descendant_or_self_by_name : Node.t -> string -> Node.t list option
val descendant_or_self_by_name_seq : Node.t -> string -> Node.t Seq.t option

val count_descendants_by_name : ?self:bool -> Node.t -> string -> int option
(** Cardinality of descendant[-or-self]::name, from the range bounds
    alone. *)

val exists_descendant_by_name : ?self:bool -> Node.t -> string -> bool option

val children_by_name : Node.t -> string -> Node.t list option
(** The descendant range filtered by parent identity; falls back
    ([None]) when the range is larger than the child list. *)

val attributes_by_name : Node.t -> string -> Node.t list option

(** {1 Statistics} — the physical planner's cost-model inputs. *)

type stats = { st_roots : int;  (** indexed document roots *)
               st_nodes : int  (** total nodes covered by those indexes *) }

val stats : unit -> stats
(** Aggregate over every index whose root is still reachable. *)

val element_count : string -> int option
(** Exact number of elements with this qname summed over every live
    index; [None] when no index is live (or mode is [Off]), in which
    case the planner falls back to selectivity defaults. *)

val attribute_count : string -> int option

val total_elements : unit -> int option
(** [element_count "*"]: every element under any indexed root. *)

(** {1 Cache management} *)

val index_nodes : Node.t -> int option
(** Size (in nodes) of the index serving this node's tree, building it
    if needed; [None] when unindexed. *)

val clear : unit -> unit

val purge_nid : int -> unit
(** Drop the entry keyed by this (old) root nid.  Only needed when a
    live indexed root is renumbered: the root stays reachable, so its
    old entry would otherwise keep counting in {!stats}.  Missing
    entries are a no-op. *)

(** {1 Incremental maintenance} — the update subsystem's in-place index
    patching.  Callers guarantee exclusivity: patches run only on a
    document version with no admitted readers (the MVCC writer copies
    otherwise).  Each returns [false] when the root has no live index to
    patch (the next query rebuilds lazily). *)

val patch_insert : Node.t -> Node.t -> bool
(** [patch_insert root sub]: [sub] was just placed (ids assigned) under
    [root]; splice its nodes into the live per-name arrays. *)

val patch_delete : Node.t -> Node.t -> bool
(** [patch_delete root sub]: [sub] is being detached (old ids intact);
    remove its nid interval from every affected per-name array. *)

val patch_rename : Node.t -> Node.t -> old_name:string -> bool
(** The node was renamed in place (same nid): move it between name
    buckets. *)
