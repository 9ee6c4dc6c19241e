(* Type promotion and fs:convert-operand — Section 6 / Table 2 of the paper.

   The key observation exploited by the hash join is that
   fs:convert-operand(x, y) depends only on the *type* of y, never its
   value, so both join inputs can be materialized independently: each key
   is stored under every (value, type) pair it can be promoted to, and a
   probe match is accepted only when the pair of *original* types prescribes
   that comparison type. *)

open Xqc_xml

(* The numeric tower: integer < decimal < float < double. *)
let numeric_rank = function
  | Atomic.T_integer -> Some 0
  | Atomic.T_decimal -> Some 1
  | Atomic.T_float -> Some 2
  | Atomic.T_double -> Some 3
  | Atomic.T_untyped | Atomic.T_string | Atomic.T_boolean | Atomic.T_any_uri
  | Atomic.T_qname | Atomic.T_date | Atomic.T_time | Atomic.T_date_time
  | Atomic.T_duration | Atomic.T_g_year | Atomic.T_g_month | Atomic.T_g_day
  | Atomic.T_g_year_month | Atomic.T_g_month_day | Atomic.T_hex_binary
  | Atomic.T_base64_binary | Atomic.T_notation ->
      None

let of_numeric_rank = function
  | 0 -> Atomic.T_integer
  | 1 -> Atomic.T_decimal
  | 2 -> Atomic.T_float
  | _ -> Atomic.T_double

(* All types a value of type [tn] can be promoted to, itself included,
   in increasing order.  anyURI promotes to string per XPath 2.0. *)
let promotion_targets (tn : Atomic.type_name) : Atomic.type_name list =
  match numeric_rank tn with
  | Some r ->
      List.filter_map
        (fun r' -> if r' >= r then Some (of_numeric_rank r') else None)
        [ 0; 1; 2; 3 ]
  | None -> (
      match tn with
      | Atomic.T_any_uri -> [ Atomic.T_any_uri; Atomic.T_string ]
      | Atomic.T_untyped ->
          (* Table 2: an untyped operand compares as xs:string against
             strings/untyped, and as xs:double against numerics. *)
          [ Atomic.T_string; Atomic.T_double ]
      | other -> [ other ])

(* [a] promoted to [target], or None when it has no value there.  An
   untyped key — the common case of a join on text nodes — is read as a
   double without raising and catching a cast error when it is not a
   number. *)
let promote (target : Atomic.type_name) (a : Atomic.t) : Atomic.t option =
  match (a, target) with
  | Atomic.Untyped s, Atomic.T_double ->
      Option.map (fun f -> Atomic.Double f) (Atomic.double_of_lexical s)
  | _ -> (
      match Atomic.cast target a with
      | v -> Some v
      | exception Atomic.Cast_error _ -> None)

(* The (value, type) pairs under which a join key is materialized —
   [promoteToSimpleTypes] in Figure 6 of the paper.  An untyped value that
   does not parse as a number simply has no double entry. *)
let promote_to_simple_types (a : Atomic.t) : (Atomic.t * Atomic.type_name) list =
  List.filter_map
    (fun target -> Option.map (fun v -> (v, target)) (promote target a))
    (promotion_targets (Atomic.type_of a))

(* The comparison type prescribed by Table 2 for two *original* operand
   types, or None when the operands are incomparable (err:XPTY0004). *)
let comparison_type (t1 : Atomic.type_name) (t2 : Atomic.type_name) :
    Atomic.type_name option =
  let numeric t = numeric_rank t <> None in
  match (t1, t2) with
  | Atomic.T_untyped, Atomic.T_untyped -> Some Atomic.T_string
  | Atomic.T_untyped, t when numeric t -> Some Atomic.T_double
  | t, Atomic.T_untyped when numeric t -> Some Atomic.T_double
  | Atomic.T_untyped, t -> Some t
  | t, Atomic.T_untyped -> Some t
  | t1, t2 when numeric t1 && numeric t2 ->
      let r1 = Option.get (numeric_rank t1) and r2 = Option.get (numeric_rank t2) in
      Some (of_numeric_rank (max r1 r2))
  | (Atomic.T_string | Atomic.T_any_uri), (Atomic.T_string | Atomic.T_any_uri) ->
      Some Atomic.T_string
  | t1, t2 when t1 = t2 -> Some t1
  | _, _ -> None

exception Type_mismatch of Atomic.type_name * Atomic.type_name

(* fs:convert-operand, Table 2: convert [x] based on the type of [other]. *)
let convert_operand (x : Atomic.t) (other : Atomic.t) : Atomic.t =
  let tx = Atomic.type_of x and to_ = Atomic.type_of other in
  match comparison_type tx to_ with
  | Some target -> Atomic.cast target x
  | None -> raise (Type_mismatch (tx, to_))

type cmp_op = Eq | Ne | Lt | Le | Gt | Ge

let cmp_op_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

(* op:equal / op:less-than etc. between two atomics, applying
   fs:convert-operand to both sides first. *)
let atomic_compare (op : cmp_op) (x : Atomic.t) (y : Atomic.t) : bool =
  let x' = convert_operand x y and y' = convert_operand y x in
  match op with
  | Eq -> Atomic.equal_same_type x' y'
  | Ne -> not (Atomic.equal_same_type x' y')
  | Lt -> Atomic.compare_same_type x' y' < 0
  | Le -> Atomic.compare_same_type x' y' <= 0
  | Gt -> Atomic.compare_same_type x' y' > 0
  | Ge -> Atomic.compare_same_type x' y' >= 0

(* General comparison between two item sequences: existentially quantified
   over the atomized operands (the normalization shown in Section 2). *)
let general_compare (op : cmp_op) (xs : Item.sequence) (ys : Item.sequence) :
    bool =
  let axs = Item.atomize xs and ays = Item.atomize ys in
  List.exists (fun x -> List.exists (fun y -> atomic_compare op x y) ays) axs

(* Value comparison (eq/lt/...): both operands must atomize to singletons. *)
let value_compare (op : cmp_op) (xs : Item.sequence) (ys : Item.sequence) :
    bool option =
  match (Item.atomize xs, Item.atomize ys) with
  | [], _ | _, [] -> None
  | [ x ], [ y ] -> Some (atomic_compare op x y)
  | _, _ -> Atomic.cast_error "value comparison requires singleton operands"

(* ------------------------------------------------------------------ *)
(* Typed order keys (OrderBy)                                          *)
(* ------------------------------------------------------------------ *)

(* Sort keys classified once, by type.  Pairwise fs:convert-operand is
   not a total order over mixed-type keys (untyped compares as string
   against strings but as double against numerics, which is not
   transitive), so OrderBy instead classifies each key into one of these
   comparison classes up front: the numeric tower collapses to one class
   (integers kept exact until a fractional key appears), untyped/anyURI
   keys compare as strings per the XQuery ordering rules, and calendar /
   binary types compare lexically within the same type only.  Comparing
   across classes raises [Type_mismatch] (err:XPTY0004). *)
type order_key =
  | K_int of int
  | K_float of float
  | K_string of string
  | K_bool of bool
  | K_cal of Atomic.type_name * string

let order_key (a : Atomic.t) : order_key =
  match a with
  | Atomic.Integer i -> K_int i
  | Atomic.Decimal f | Atomic.Float f | Atomic.Double f -> K_float f
  | Atomic.Untyped s | Atomic.String s | Atomic.Any_uri s -> K_string s
  | Atomic.Boolean b -> K_bool b
  | Atomic.Other (t, s) -> K_cal (t, s)
  | Atomic.Qname _ ->
      (* xs:QName has no order relation *)
      raise (Type_mismatch (Atomic.T_qname, Atomic.T_qname))

let order_key_type = function
  | K_int _ -> Atomic.T_integer
  | K_float _ -> Atomic.T_double
  | K_string _ -> Atomic.T_string
  | K_bool _ -> Atomic.T_boolean
  | K_cal (t, _) -> t

let compare_order_keys (k1 : order_key) (k2 : order_key) : int =
  match (k1, k2) with
  | K_int a, K_int b -> Int.compare a b
  | K_int a, K_float b -> Float.compare (float_of_int a) b
  | K_float a, K_int b -> Float.compare a (float_of_int b)
  | K_float a, K_float b -> Float.compare a b
  | K_string a, K_string b -> String.compare a b
  | K_bool a, K_bool b -> Bool.compare a b
  | K_cal (t1, a), K_cal (t2, b) when t1 = t2 -> String.compare a b
  | _ -> raise (Type_mismatch (order_key_type k1, order_key_type k2))
