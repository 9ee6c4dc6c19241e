(** Tree mutation under the gapped pre/size encoding.

    The physical layer of the update subsystem: structural splices that
    preserve the preorder-id invariant without renumbering.  Inserts
    number their content into the target position's free id interval —
    the slack reserved by {!Xqc_xml.Node.renumber_gapped} — and patch
    the live structural indexes ([Xqc_store.Store]) in place; only gap
    exhaustion falls back to a full renumber of the document, which
    moves the root id and invalidates every cache keyed on it.

    Successful in-place index patches are counted in the
    [incremental_index_patches] global counter, full-renumber fallbacks
    in [full_renumbers].

    All functions here assume the caller holds exclusive write access to
    the document (see [Version.with_write]). *)

open Xqc_xml

exception Update_error of string
(** Dynamic errors of the update facility: invalid targets, conflicting
    primitives, vanished anchors. *)

(** Where an insert places its content. *)
type position =
  | P_first of Node.t  (** as first into p *)
  | P_last of Node.t  (** [as last] into p *)
  | P_before of Node.t  (** before anchor *)
  | P_after of Node.t  (** after anchor *)
  | P_attr of Node.t  (** attributes into p *)

val insert : Node.t -> position -> Node.t list -> unit
(** [insert root pos nodes] places the fresh, parentless [nodes] at
    [pos] in the document rooted at [root].  Content that fits the
    position's free interval is numbered into the slack (gapped first,
    dense as fallback) and index-patched; otherwise the whole document
    is renumbered. *)

val delete : Node.t -> Node.t -> unit
(** Detach the node (already-detached targets are a no-op).  The freed
    id interval becomes slack; no ancestor extent changes. *)

val replace_node : Node.t -> Node.t -> Node.t list -> unit
(** [replace_node root old news]: [old] is detached and [news] take its
    place (attribute targets are replaced in the attribute list). *)

val replace_value : Node.t -> Node.t -> string -> unit
(** New string value in place: text/comment/pi/attribute nodes swap
    their payload (same id, same row); an element target gets the XQUF
    replaceElementContent treatment — children deleted, one text node
    inserted. *)

val rename : Node.t -> Node.t -> string -> unit
(** In-place rename of an element, attribute or processing-instruction;
    the node keeps its id and the per-name index buckets are patched. *)

val full_renumber : Node.t -> unit
(** Renumber the whole document with fresh gaps, purging the caches
    keyed on the old root id.  Exposed for the update driver's
    recovery path; counted in [full_renumbers]. *)
