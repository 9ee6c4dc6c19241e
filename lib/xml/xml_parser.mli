(** A small, fast, non-validating XML parser.

    Supports elements, attributes, character data with the five predefined
    entities and numeric character references, comments, processing
    instructions, CDATA sections and an optional XML declaration.
    Namespace declarations are kept as plain attributes; a DOCTYPE,
    internal subset included, is skipped.

    One left-to-right scan, O(n), that builds the tree top-down with an
    explicit element stack: every node gets its final preorder id and
    subtree extent as it is scanned, from one block of ids reserved for
    the document, so no renumbering pass follows. *)

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

val parse_file : string -> Node.t

(** {1 Internals used by the XQuery lexer}

    The XQuery parser reuses the entity decoder for string literals and
    constructor content. *)

type state = { src : string; mutable pos : int; len : int }

val decode_entity : state -> string
(** Decode one entity or character reference at the cursor (positioned on
    ['&']), advancing past the [';'].  Character references follow XML's
    [CharRef] grammar and are encoded as UTF-8.
    @raise Parse_error on a malformed or unknown reference. *)
