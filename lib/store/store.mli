(** Indexed document store: per-root structural name indexes over the
    pre/size interval encoding.

    Every numbered tree carries preorder ids plus cached subtree
    extents, so the subtree of [n] is exactly the id interval
    [n.nid, n.nid + n.extent).  This module keeps, per document root,
    arrays of same-named elements in id order (plus a ["*"] entry
    holding every element) and a count per attribute name.  The index
    answers one kind of step: [descendant::t] and
    [descendant-or-self::t] resolve to two binary searches delimiting
    the name's range inside the context node's interval, and
    [fn:count]/[fn:exists] over such a step are answered from the range
    bounds without touching a node.  Child and attribute steps always
    scan the node's own lists.

    A parsed document brings its index with it: the XML loader fills
    the arrays as it creates the nodes, and {!adopt} publishes them when
    the parse ends.  A tree built at run time is indexed by one walk on
    its first descendant step, through the same appender, if it holds
    at least 64 nodes; a smaller one is walked.

    An index lives exactly as long as its root is reachable: the cache
    holds each entry in an ephemeron keyed on the root, so dropping the
    last reference to a document frees its index too, with no explicit
    purge.  Statistics come from a per-root count summary and never
    revive a dead root.  Indexes are keyed by the root's nid;
    [Node.renumber] and [Node.renumber_gapped] drop the index of the
    root they move, so a renumbered root rebuilds on its next
    descendant step, unless it was renumbered through
    {!renumber_keeping}.  Trees violating the preorder invariant are
    recorded as unindexable and served by the walking fallback.  All
    query functions return [None] when the caller should walk instead
    (unindexable or small run-time tree, or {!walk_only} set).  Builds,
    hits and fallbacks are recorded in the obs global counters
    (index_builds / index_build_nodes / index_hits / index_fallbacks);
    a loader index counts as a build. *)

open Xqc_xml

val walk_only : bool ref
(** For tests: while set, every query returns [None], so every step
    walks — the reference the indexed answers are checked against. *)

(** {1 Descendant queries} — [None] means: walk instead.

    Each query takes a {!resolver} for the step's name.  Make one per
    step invocation and pass it every context node of that invocation:
    it resolves each tree's index once, not once per node.  Do not keep
    one across invocations.  [~self:true] answers
    [descendant-or-self::]. *)

type resolver

val resolver : string -> resolver
(** For the elements called this; ["*"] stands for every element. *)

val descendants : ?self:bool -> resolver -> Node.t -> Node.t list option
val descendants_seq : ?self:bool -> resolver -> Node.t -> Node.t Seq.t option

val count_descendants : ?self:bool -> resolver -> Node.t -> int option
(** Cardinality of descendant[-or-self]::name, from the range bounds
    alone. *)

val exists_descendant : ?self:bool -> resolver -> Node.t -> bool option

(** {1 Statistics} — the physical planner's cost-model inputs. *)

type stats = { st_roots : int;  (** indexed document roots *)
               st_nodes : int  (** total nodes covered by those indexes *) }

val stats : unit -> stats
(** Aggregate over every index whose root is still reachable. *)

val element_count : string -> int option
(** Exact number of elements with this qname summed over every live
    index; [None] when no index is live, in which case the planner
    falls back to selectivity defaults. *)

val attribute_count : string -> int option

val total_elements : unit -> int option
(** [element_count "*"]: every element under any indexed root. *)

(** {1 Cache management} *)

val adopt : Node.t -> Xml_parser.names -> unit
(** [adopt root names]: publish the index the loader built while
    parsing [root] ({!Xml_parser.parse_with_names}), with no walk. *)

val index_nodes : Node.t -> int option
(** Size (in nodes) of the index serving this node's tree, building it
    if needed, whatever the tree's size; [None] when unindexable. *)

val renumber_keeping : (Node.t -> unit) -> Node.t -> unit
(** [renumber_keeping renumber root] runs [renumber root] and moves the
    root's index to its new id instead of dropping it.  Only for a
    renumber that keeps the preorder, such as [Node.renumber_gapped] on
    an unchanged tree. *)

val clear : unit -> unit

(** The index serving a node's tree, as sorted lists (arrays trimmed to
    their length; ["*"] among the elements) — for tests.  Builds it as
    {!index_nodes} does; [None] when unindexable. *)
type contents = {
  c_elements : (string * Node.t array) list;
  c_element_counts : (string * int) list;
  c_attribute_counts : (string * int) list;
  c_nodes : int;
}

val contents : Node.t -> contents option

(** {1 Incremental maintenance} — the update subsystem's in-place index
    patching.  Callers guarantee exclusivity: patches run only on a
    document version with no admitted readers (the MVCC writer copies
    otherwise).  Each returns [false] when the root has no live index to
    patch: the update subsystem indexes every tree it renumbers or
    copies, so that is a tree the store never indexed. *)

val patch_insert : Node.t -> Node.t -> bool
(** [patch_insert root sub]: [sub] was just placed (ids assigned) under
    [root]; splice its elements into the live per-name arrays and add
    its attributes to the counts. *)

val patch_delete : Node.t -> Node.t -> bool
(** [patch_delete root sub]: [sub] is being detached (old ids intact);
    remove its nid interval from every affected per-name array and its
    attributes from the counts. *)

val patch_rename : Node.t -> Node.t -> old_name:string -> bool
(** The node was renamed in place (same nid): move it between name
    buckets. *)
