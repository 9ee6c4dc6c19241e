(** MVCC snapshot isolation for updatable documents.

    Registered documents are read through pinned versions: a reader pins
    the head at admission and keeps that exact tree for the whole
    request.  Writers serialize per document ({!with_write}) and either
    apply in place (no admitted readers — incremental index patches on
    the live caches, admissions briefly gated) or publish a fresh copy
    (readers live — nobody waits, the old version's tree and its
    indexes are freed once its last reader unpins and drops it).

    {!generation} bumps on every publish; execution-mode fingerprints
    include it so cached plans die with the document state they were
    costed against. *)

open Xqc_xml

exception Unknown_document of string

type version = {
  v_root : Node.t;
  mutable v_id : int;  (** bumped on every publish, including in-place *)
  mutable v_readers : int;
  mutable v_retired : bool;
}

val register : string -> Node.t -> unit
(** Make [root] the head version of this uri (gap-renumbering it first —
    not counted as a full-renumber fallback).  Replaces and retires any
    previous head. *)

val registered : unit -> string list
(** Registered uris, sorted. *)

val head : string -> version option
(** Current head without pinning (monitoring only — may retire under
    you; use {!pin} to read). *)

val pin : string -> version option
(** Admission: pin the head version ([None] for unknown uris).  Waits
    only while an in-place apply is publishing.  Every [pin] must be
    matched by an {!unpin}. *)

val unpin : string -> version -> unit
(** Release a pin; after the last unpin of a retired version nothing in
    this module reaches its root any more. *)

val with_write : string -> (Node.t -> in_place:bool -> 'a) -> 'a
(** Run one writer on this document.  The callback receives the tree to
    evaluate/apply the update against: the live head when no readers
    are admitted ([in_place:true]) or a fresh copy published on success
    ([in_place:false]).
    @raise Unknown_document for unregistered uris. *)

val generation : unit -> int
(** Global document-state generation, bumped on every publish. *)

val live_versions : unit -> int
(** Currently reachable versions: heads plus retired-but-pinned
    snapshots (the [snapshot_versions_live] gauge). *)

val clear : unit -> unit
(** Test support: drop every registration. *)
