(** A small, fast, non-validating XML parser.

    Supports elements, attributes, character data with the five predefined
    entities and numeric character references, comments, processing
    instructions, CDATA sections and an optional XML declaration.
    Namespace declarations are kept as plain attributes; a DOCTYPE,
    internal subset included, is skipped.

    One left-to-right scan, O(n), that builds the tree top-down with an
    explicit element stack: every node gets its final preorder id and
    subtree extent as it is scanned, from one block of ids reserved for
    the document, so no renumbering pass follows.  The same scan fills
    the structural store's per-name node arrays ({!parse_with_names}),
    so no indexing pass follows either. *)

exception Parse_error of { position : int; message : string }

val parse_string : ?uri:string -> string -> Node.t
(** Parse a complete document.  The returned document node and its
    descendants carry consecutive ids in document order, and each
    node's subtree occupies [\[nid, nid + extent)], as after
    {!Node.renumber}.  Whitespace around the root element is not kept;
    comments and processing instructions there are.
    @raise Parse_error on malformed input (position is a byte offset):
    character data or CDATA outside the root element, duplicate
    attributes, character references that do not denote an XML [Char],
    and the usual tag, entity and nesting errors. *)

(** {1 Name index}

    Per-qname element arrays in id order: what the structural store
    ([Xqc_store.Store]) answers descendant steps from.  The parser
    appends every element to its name's array and to [all] as it
    creates the node, and counts every attribute under its name; ids
    are preorder, so each array comes out sorted.  The store fills the
    same table with {!index_node} when it indexes a tree built at run
    time. *)

type nodes = { mutable items : Node.t array; mutable len : int }
(** A growable array: the nodes are [items.(0) .. items.(len - 1)];
    slots past [len] are spare capacity. *)

type name = {
  qname : string;
  mutable last_owner : int;  (** parser-internal: duplicate-attribute check *)
  elems : nodes;  (** the elements with this name *)
  mutable attr_count : int;  (** the number of attributes with this name *)
}

type names = { by_name : (string, name) Hashtbl.t; all : nodes  (** every element *) }

val create_names : unit -> names

val intern : names -> string -> name
(** The name's record, added empty if new. *)

val index_node : names -> Node.t -> unit
(** Append an element to its name's array and to [all], or count an
    attribute under its name; other kinds are ignored.  Callers visit
    nodes in id order. *)

val parse_with_names : ?uri:string -> string -> Node.t * names
(** {!parse_string}, also returning the document's name index. *)

(** {1 Internals used by the XQuery lexer}

    The XQuery parser reuses the entity decoder for string literals and
    constructor content. *)

type state = { src : string; mutable pos : int; len : int }

val decode_entity : state -> string
(** Decode one entity or character reference at the cursor (positioned on
    ['&']), advancing past the [';'].  Character references follow XML's
    [CharRef] grammar and are encoded as UTF-8.
    @raise Parse_error on a malformed or unknown reference. *)
