(** XML node trees with global document order.

    Node identity is physical.  Every node carries a globally unique
    integer id [nid] maintained in document (pre-)order, so document-order
    comparison — including between different documents — is an integer
    comparison.  The parser builds a document top-down and gives every
    node its final preorder id and extent as it goes.  Constructors and
    generators build bottom-up, so each such construction boundary calls
    {!renumber} on the finished subtree to restore the preorder
    invariant. *)

type qname = string

type t = {
  mutable nid : int;
  mutable parent : t option;
  mutable extent : int;
      (** subtree node count (self + attributes + descendants) cached by
          {!renumber} or set by the parser; 0 until computed.  After a
          parse or a renumber of the containing root, the subtree of [n]
          occupies exactly the id interval [n.nid, n.nid + n.extent) —
          the pre/size encoding. *)
  mutable desc : desc;
}

and desc =
  | Document of { mutable dchildren : t list; duri : string option }
  | Element of {
      ename : qname;
      mutable attrs : t list;
      mutable children : t list;
      mutable eannot : string option;  (** type annotation from validation *)
    }
  | Attribute of { aname : qname; avalue : string; mutable aannot : string option }
  | Text of string
  | Comment of string
  | Pi of { target : string; pdata : string }

(** {1 Construction} *)

val document : ?uri:string -> t list -> t
(** A document node owning the given children (parent pointers are set). *)

val element : ?annot:string -> qname -> attrs:t list -> children:t list -> t
val attribute : ?annot:string -> qname -> string -> t
val text : string -> t
val comment : string -> t
val pi : string -> string -> t

val reserve_ids : int -> int
(** [reserve_ids n] draws [n] consecutive ids in one atomic step and
    returns the first.  The parser numbers a document from such a block
    instead of drawing one id per node. *)

val release_ids : from:int -> until:int -> unit
(** Hand back the unused tail [\[from, until)] of the block most recently
    drawn by {!reserve_ids}, where [until] is the end of that block.  One
    compare-and-set: nothing is returned if another domain drew ids
    since. *)

val copy : t -> t
(** Deep copy with fresh node ids — the copy performed by XQuery element
    constructors.  Call {!renumber} on the surrounding tree afterwards if
    preorder ids are required. *)

val renumber : t -> unit
(** Re-assign ids across the subtree in document order (node, then its
    attributes, then its children).  Ids are drawn consecutively, and the
    same pass caches every node's subtree [extent], making {!size} O(1)
    and enabling the interval descendant test
    [anc.nid < n.nid && n.nid < anc.nid + anc.extent]. *)

val renumber_gapped : ?gap:int -> t -> unit
(** Gap-reserving renumber for updatable documents: every insertion
    position (after the attributes, after each child) reserves [gap]
    spare ids, so small inserts draw from the local slack without
    touching any ancestor.  [extent] then caches the interval {e width}
    (gaps included), not the node count — the descendant test and the
    store's range arithmetic are unaffected; use {!count_nodes} for
    exact counts.  Default gap: 8. *)

val count_nodes : t -> int
(** Exact node count (attributes included) by walking — unlike {!size}
    it never reads the cached extent, so it is correct on gap-numbered
    trees where the extent is an interval width. *)

val interval_end : t -> int
(** [n.nid + n.extent]: first id past [n]'s interval.  Only meaningful
    after a renumber of the containing root. *)

(** {1 Observation} *)

type kind = Kdocument | Kelement | Kattribute | Ktext | Kcomment | Kpi

val kind : t -> kind
val kind_name : kind -> string

val name : t -> qname option
(** Element/attribute name, or PI target; [None] for other kinds. *)

val children : t -> t list
val attributes : t -> t list
val parent : t -> t option
val type_annotation : t -> string option
val set_type_annotation : t -> string option -> unit

val string_value : t -> string
(** The data-model string value (concatenated descendant text). *)

val typed_value : t -> Atomic.t
(** fn:data on a node: untypedAtomic for unvalidated nodes, the annotated
    atomic type for validated ones. *)

(** {1 Document order and axes} *)

val doc_order_compare : t -> t -> int

val is_doc_sorted_uniq : t list -> bool
(** One O(n) pass: strictly ascending node ids (sorted, duplicate-free). *)

val sort_doc_order : t list -> t list
(** Sort into document order and drop duplicates — the closure every axis
    step maintains.  Already-sorted input (the common case for child and
    descendant steps) is returned as-is without sorting. *)

val is_ancestor_of : anc:t -> t -> bool
val root : t -> t
val descendants : t -> t list
val descendant_or_self : t -> t list

val descendants_seq : t -> t Seq.t
(** Lazy preorder walk of the descendants (self excluded): streaming
    consumers pull only the prefix they need. *)

val descendant_or_self_seq : t -> t Seq.t
val ancestors : t -> t list
val following_siblings : t -> t list
val preceding_siblings : t -> t list

val size : t -> int
(** Number of nodes in the subtree (attributes included).  O(1) after
    {!renumber} has cached the extent; otherwise a full walk. *)

val subtree_interval : t -> (int * int) option
(** [Some (lo, hi)] when the extent is cached: the subtree occupies
    exactly the ids [lo <= nid < hi] (valid as long as the containing
    root has not been renumbered since). *)
