(** A declarative mini XML Schema substrate.

    The algebra only consumes {e type annotations}: Validate assigns them,
    TypeMatches/TypeAssert test them with derives-from, fn:data uses them
    for typed values.  A schema is therefore a set of element/attribute
    declarations plus a type-derivation relation; XSD surface syntax is
    out of scope (see DESIGN.md, Substitutions). *)

open Xqc_xml

type element_decl = {
  elem_name : string;  (** ["*"] matches any element name *)
  parent_name : string option;  (** restrict to children of this element *)
  when_attr : (string * string) option;  (** only when the attribute has this value *)
  type_name : string;  (** the assigned type annotation *)
}

type attribute_decl = {
  attr_name : string;
  owner_name : string option;
  attr_type : string;
}

type t = {
  element_decls : element_decl list;
  attribute_decls : attribute_decl list;
  derivations : (string * string) list;  (** (type, base-type) pairs *)
  simple_types : (string * Atomic.type_name) list;
}

val empty : t

val declare_element :
  ?parent:string -> ?when_attr:string * string -> name:string -> type_name:string -> t -> t
(** Add an element declaration; declarations are matched in order, first
    match wins, so put conditional declarations before catch-alls. *)

val declare_attribute : ?owner:string -> name:string -> type_name:string -> t -> t

val derive : sub:string -> base:string -> t -> t
(** Record that type [sub] derives from type [base]. *)

val bind_simple_type : name:string -> atomic:Atomic.type_name -> t -> t
(** Bind a schema type name to an atomic type for typed-value purposes. *)

val derives_from : t -> sub:string -> base:string -> bool
(** Reflexive-transitive closure of the derivation relation (plus the
    built-in integer-derives-from-decimal edge). *)

val atomic_type_of : t -> string -> Atomic.type_name option

exception Validation_error of string

val annotate : t -> Node.t -> unit
(** Assign type annotations in place across the subtree. *)

val validate : t -> Node.t -> Node.t
(** The Validate operator: a numbered deep copy, annotated — input nodes
    are never mutated. *)

val matching_element_decl : t -> Node.t -> element_decl option
val matching_attribute_decl : t -> string option -> string -> attribute_decl option
