(* Abstract syntax of the XQuery surface language (the subset documented in
   README.md: FLWOR, paths with predicates, quantifiers, typeswitch,
   constructors, user-defined functions, the full operator grammar). *)

open Xqc_xml
open Xqc_types

type axis =
  | Child
  | Descendant
  | Descendant_or_self
  | Attribute_axis
  | Self
  | Parent
  | Ancestor
  | Ancestor_or_self
  | Following_sibling
  | Preceding_sibling

let axis_to_string = function
  | Child -> "child"
  | Descendant -> "descendant"
  | Descendant_or_self -> "descendant-or-self"
  | Attribute_axis -> "attribute"
  | Self -> "self"
  | Parent -> "parent"
  | Ancestor -> "ancestor"
  | Ancestor_or_self -> "ancestor-or-self"
  | Following_sibling -> "following-sibling"
  | Preceding_sibling -> "preceding-sibling"

type node_test =
  | Name_test of string  (** "*" is the wildcard *)
  | Kind_test of Seqtype.item_type

let node_test_to_string = function
  | Name_test n -> n
  | Kind_test k -> Seqtype.item_type_to_string k

type general_op = Gen_eq | Gen_ne | Gen_lt | Gen_le | Gen_gt | Gen_ge
type value_op = Val_eq | Val_ne | Val_lt | Val_le | Val_gt | Val_ge
type node_op = Node_is | Node_before | Node_after
type arith_op = Add | Sub | Mul | Div | Idiv | Mod
type quantifier = Some_quant | Every_quant
type sort_dir = Ascending | Descending
type empty_order = Empty_greatest | Empty_least

type expr =
  | Literal of Atomic.t
  | Var of string
  | Context_item  (** "." *)
  | Sequence_expr of expr list  (** comma; [] is "()" *)
  | Flwor of flwor_clause list * order_spec list * expr
  | If_expr of expr * expr * expr
  | Quantified of quantifier * (string * expr) list * expr
  | Typeswitch of expr * ts_case list * (string option * expr)
  | Or_expr of expr * expr
  | And_expr of expr * expr
  | General_comp of general_op * expr * expr
  | Value_comp of value_op * expr * expr
  | Node_comp of node_op * expr * expr
  | Range of expr * expr  (** e1 to e2 *)
  | Arith of arith_op * expr * expr
  | Unary_minus of expr
  | Union_expr of expr * expr
  | Intersect_expr of expr * expr
  | Except_expr of expr * expr
  | Path of expr * step list  (** origin then steps; origin may be Root *)
  | Root  (** leading "/" — the root of the context node's tree *)
  | Filter of expr * expr list  (** primary[pred1][pred2] *)
  | Call of string * expr list
  | Elem_constructor of string * (string * attr_value) list * expr list
      (** direct: <name a="..">content</name>; content items are literal
          text ([Literal (String _)] wrapped in [Text_content]) or
          enclosed expressions *)
  | Enclosed of expr  (** { e } inside constructor content *)
  | Text_content of string  (** literal text inside constructor content *)
  | Text_constructor of expr  (** text { e } *)
  | Comment_constructor of expr
  | Pi_constructor of string * expr  (** processing-instruction name { e } *)
  | Document_constructor of expr  (** document { e } *)
  | Computed_element of string * expr  (** element name { e } *)
  | Computed_attribute of string * expr  (** attribute name { e } *)
  | Instance_of of expr * Seqtype.t
  | Treat_as of expr * Seqtype.t
  | Castable_as of expr * Atomic.type_name * bool  (** bool: "?" allowed *)
  | Cast_as of expr * Atomic.type_name * bool
  | Validate_expr of expr

and attr_value = Attr_parts of attr_part list
and attr_part = Attr_text of string | Attr_expr of expr

and flwor_clause =
  | For_clause of {
      var : string;
      at_var : string option;
      astype : Seqtype.t option;
      source : expr;
    }
  | Let_clause of { var : string; astype : Seqtype.t option; value : expr }
  | Where_clause of expr

and order_spec = { key : expr; dir : sort_dir; empty : empty_order }

and step = { axis : axis; test : node_test; predicates : expr list }

and ts_case = { case_var : string option; case_type : Seqtype.t; case_body : expr }

type function_def = {
  fname : string;
  params : (string * Seqtype.t option) list;
  return_type : Seqtype.t option;
  body : expr;
}

type prolog_decl =
  | Function_decl of function_def
  | Variable_decl of string * expr

type query = { prolog : prolog_decl list; main : expr }

(* ------------------------------------------------------------------ *)
(* Update scripts (XQuery Update Facility subset)                      *)
(* ------------------------------------------------------------------ *)

(* Where an [insert] places its source relative to the target. *)
type insert_pos =
  | Into  (** default: as last into *)
  | As_first_into
  | As_last_into
  | Before
  | After

(* One updating statement.  Source/target positions hold ordinary
   (evaluating) expressions; the W3C "updating expression" stratification
   reduces in this subset to: updates appear only at statement level. *)
type update_stmt =
  | Insert of expr * insert_pos * expr  (** insert node(s) SRC pos TGT *)
  | Delete of expr  (** delete node(s) TGT *)
  | Replace_node of expr * expr  (** replace node TGT with SRC *)
  | Replace_value of expr * expr  (** replace value of node TGT with SRC *)
  | Rename of expr * expr  (** rename node TGT as NAME *)

(* A comma-separated sequence of updating statements sharing one prolog:
   all statements are evaluated against the same snapshot, their pending
   updates merged and applied atomically (snapshot semantics). *)
type update_script = { uprolog : prolog_decl list; stmts : update_stmt list }
