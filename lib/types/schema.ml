(* A declarative mini XML Schema substrate.

   The algebra only consumes *type annotations*: Validate assigns them,
   TypeMatches/TypeAssert test them with derives-from, and fn:data uses
   them to produce typed values.  We therefore model a schema as a set of
   element/attribute declarations plus a type-derivation relation, skipping
   XSD surface syntax (see DESIGN.md, Substitutions).

   An element declaration optionally constrains the parent element name
   (local declarations) and can be conditioned on an attribute value, which
   is how the demo schema distinguishes USSeller/EUSeller the way the
   paper's XMark variant assumes. *)

open Xqc_xml

type element_decl = {
  elem_name : string;  (** "*" matches any element name *)
  parent_name : string option;  (** restrict to children of this element *)
  when_attr : (string * string) option;  (** only when attr has this value *)
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
      (** schema types whose typed value is the given atomic type *)
}

let empty =
  { element_decls = []; attribute_decls = []; derivations = []; simple_types = [] }

let declare_element ?parent ?when_attr ~name ~type_name schema =
  {
    schema with
    element_decls =
      schema.element_decls
      @ [ { elem_name = name; parent_name = parent; when_attr; type_name } ];
  }

let declare_attribute ?owner ~name ~type_name schema =
  {
    schema with
    attribute_decls =
      schema.attribute_decls
      @ [ { attr_name = name; owner_name = owner; attr_type = type_name } ];
  }

let derive ~sub ~base schema =
  { schema with derivations = (sub, base) :: schema.derivations }

let bind_simple_type ~name ~atomic schema =
  { schema with simple_types = (name, atomic) :: schema.simple_types }

(* derives-from: reflexive-transitive closure of the derivation relation,
   also consulting the built-in atomic hierarchy (integer -> decimal). *)
let rec derives_from schema ~sub ~base =
  String.equal sub base
  || (String.equal sub "xs:integer" && String.equal base "xs:decimal")
  || List.exists
       (fun (s, b) -> String.equal s sub && derives_from schema ~sub:b ~base)
       schema.derivations

let atomic_type_of schema ty =
  match List.assoc_opt ty schema.simple_types with
  | Some a -> Some a
  | None -> Atomic.type_name_of_string ty

exception Validation_error of string

let matching_element_decl schema node =
  let ename = match Node.name node with Some n -> n | None -> "" in
  let parent_elem_name =
    match Node.parent node with
    | Some p -> Node.name p
    | None -> None
  in
  let attr_value name =
    List.find_map
      (fun a ->
        match a.Node.desc with
        | Node.Attribute at when String.equal at.aname name -> Some at.avalue
        | Node.Attribute _ | Node.Document _ | Node.Element _ | Node.Text _
        | Node.Comment _ | Node.Pi _ ->
            None)
      (Node.attributes node)
  in
  List.find_opt
    (fun d ->
      (String.equal d.elem_name "*" || String.equal d.elem_name ename)
      && (match d.parent_name with
         | None -> true
         | Some p -> parent_elem_name = Some p)
      && match d.when_attr with
         | None -> true
         | Some (a, v) -> attr_value a = Some v)
    schema.element_decls

let matching_attribute_decl schema owner_name aname =
  List.find_opt
    (fun d ->
      String.equal d.attr_name aname
      && match d.owner_name with None -> true | Some o -> Some o = owner_name)
    schema.attribute_decls

(* Validation: walk the tree and assign type annotations in place.  The
   Validate operator of Table 1 deep-copies first so that validation of
   constructed content never mutates shared input nodes. *)
let annotate schema (root : Node.t) : unit =
  let rec go node =
    (match node.Node.desc with
    | Node.Element _ ->
        (match matching_element_decl schema node with
        | Some d -> Node.set_type_annotation node (Some d.type_name)
        | None -> ());
        let owner = Node.name node in
        List.iter
          (fun a ->
            match a.Node.desc with
            | Node.Attribute at -> (
                match matching_attribute_decl schema owner at.aname with
                | Some d -> Node.set_type_annotation a (Some d.attr_type)
                | None -> ())
            | Node.Document _ | Node.Element _ | Node.Text _ | Node.Comment _
            | Node.Pi _ ->
                ())
          (Node.attributes node)
    | Node.Document _ | Node.Attribute _ | Node.Text _ | Node.Comment _
    | Node.Pi _ ->
        ());
    List.iter go (Node.children node)
  in
  go root

let validate schema (node : Node.t) : Node.t =
  let copy = Node.copy node in
  annotate schema copy;
  copy
