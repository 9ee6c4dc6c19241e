(* Lightweight static type inference over logical plans.

   Section 6 of the paper observes that "static type analysis can improve
   our algorithm" — knowing operand types lets the compiler drop dynamic
   type tests and specialize joins.  This module infers a small abstract
   type (an item-kind approximation plus an occurrence range) for
   item-valued plans, without tracking tuple-field types (a field access
   infers to the unknown type).  The optimizer uses it to

   - remove TypeAssert operators whose input provably matches,
   - fold TypeMatches to a constant, pruning dead typeswitch branches,
   - fold Castable to a constant where decidable. *)

open Xqc_xml
open Xqc_types
open Xqc_frontend
open Xqc_algebra
open Algebra

(* Item-kind approximation, a join-semilattice with top = AK_item. *)
type kind =
  | AK_integer
  | AK_decimal
  | AK_double  (** includes float *)
  | AK_string
  | AK_boolean
  | AK_untyped
  | AK_atomic  (** any atomic value *)
  | AK_element
  | AK_attribute
  | AK_text
  | AK_comment
  | AK_pi
  | AK_document
  | AK_node  (** any node *)
  | AK_item  (** anything *)

type occ = { lo : int; hi : int option }  (** cardinality range; hi None = unbounded *)

type t = { kind : kind; occ : occ }

let exactly_one = { lo = 1; hi = Some 1 }
let zero_or_one = { lo = 0; hi = Some 1 }
let zero_or_more = { lo = 0; hi = None }
let empty_occ = { lo = 0; hi = Some 0 }

let unknown = { kind = AK_item; occ = zero_or_more }

let is_atomic_kind = function
  | AK_integer | AK_decimal | AK_double | AK_string | AK_boolean | AK_untyped
  | AK_atomic ->
      true
  | AK_element | AK_attribute | AK_text | AK_comment | AK_pi | AK_document
  | AK_node | AK_item ->
      false

let is_node_kind = function
  | AK_element | AK_attribute | AK_text | AK_comment | AK_pi | AK_document
  | AK_node ->
      true
  | _ -> false

(* Least upper bound of two kinds. *)
let join_kind a b =
  if a = b then a
  else if is_atomic_kind a && is_atomic_kind b then
    match (a, b) with
    | (AK_integer | AK_decimal), (AK_integer | AK_decimal) -> AK_decimal
    | _ -> AK_atomic
  else if is_node_kind a && is_node_kind b then AK_node
  else AK_item

let join_occ a b =
  {
    lo = min a.lo b.lo;
    hi = (match (a.hi, b.hi) with Some x, Some y -> Some (max x y) | _ -> None);
  }

let add_occ a b =
  {
    lo = a.lo + b.lo;
    hi = (match (a.hi, b.hi) with Some x, Some y -> Some (x + y) | _ -> None);
  }

let join a b = { kind = join_kind a.kind b.kind; occ = join_occ a.occ b.occ }

let kind_of_atomic (a : Atomic.t) =
  match Atomic.type_of a with
  | Atomic.T_integer -> AK_integer
  | Atomic.T_decimal -> AK_decimal
  | Atomic.T_double -> AK_double
  | Atomic.T_string -> AK_string
  | Atomic.T_boolean -> AK_boolean
  | Atomic.T_untyped -> AK_untyped
  | _ -> AK_atomic

(* Builtins with statically known result types. *)
let call_type (f : string) : t option =
  match f with
  | "fn:count" | "fn:string-length" -> Some { kind = AK_integer; occ = exactly_one }
  | "fn:boolean" | "fn:not" | "fn:empty" | "fn:exists" | "fn:true" | "fn:false"
  | "fn:contains" | "fn:starts-with" | "fn:ends-with" | "fn:matches"
  | "fn:deep-equal" | "op:general-eq" | "op:general-ne" | "op:general-lt"
  | "op:general-le" | "op:general-gt" | "op:general-ge"
  | "fs:predicate-truth" ->
      Some { kind = AK_boolean; occ = exactly_one }
  | "op:eq" | "op:ne" | "op:lt" | "op:le" | "op:gt" | "op:ge"
  | "op:is-same-node" | "op:node-before" | "op:node-after" ->
      Some { kind = AK_boolean; occ = zero_or_one }
  | "fn:string" | "fn:concat" | "fn:string-join" | "fn:normalize-space"
  | "fn:upper-case" | "fn:lower-case" | "fn:substring" | "fn:translate"
  | "fn:replace" | "fn:substring-before" | "fn:substring-after" | "fn:name"
  | "fn:local-name" | "fs:item-sequence-to-string" ->
      Some { kind = AK_string; occ = exactly_one }
  | "fn:tokenize" -> Some { kind = AK_string; occ = zero_or_more }
  | "fn:number" | "fn:avg" -> Some { kind = AK_double; occ = zero_or_one }
  | "op:to" | "fn:index-of" | "fn:string-to-codepoints" ->
      Some { kind = AK_integer; occ = zero_or_more }
  | "op:union" | "op:intersect" | "op:except" ->
      Some { kind = AK_node; occ = zero_or_more }
  | "fn:data" | "fn:distinct-values" -> Some { kind = AK_atomic; occ = zero_or_more }
  | _ -> None

(* Environment: static types of the dependent input's tuple fields and of
   the dependent item input (IN), threaded the same way the evaluator
   threads layouts. *)
type env = { fields : (field * t) list; input_item : t option }

let top_env = { fields = []; input_item = None }

(* The static type of an item-valued plan.  Conservative: anything not
   understood infers to [unknown]. *)
let rec infer (env : env) (p : plan) : t =
  match p with
  | Empty | Seq [] -> { kind = AK_item; occ = empty_occ }
  | Scalar a -> { kind = kind_of_atomic a; occ = exactly_one }
  | Seq (p :: ps) ->
      List.fold_left
        (fun acc p ->
          let t = infer env p in
          { kind = join_kind acc.kind t.kind; occ = add_occ acc.occ t.occ })
        (infer env p) ps
  | Element _ -> { kind = AK_element; occ = exactly_one }
  | Attribute _ -> { kind = AK_attribute; occ = exactly_one }
  | Text _ -> { kind = AK_text; occ = zero_or_one }
  | Comment _ -> { kind = AK_comment; occ = exactly_one }
  | Pi _ -> { kind = AK_pi; occ = exactly_one }
  | TreeJoin (_, test, _) ->
      let kind =
        match test with
        | Ast.Kind_test Seqtype.It_text -> AK_text
        | Ast.Kind_test Seqtype.It_comment -> AK_comment
        | Ast.Kind_test Seqtype.It_pi -> AK_pi
        | Ast.Kind_test (Seqtype.It_element _) -> AK_element
        | Ast.Kind_test (Seqtype.It_attribute _) -> AK_attribute
        | Ast.Kind_test Seqtype.It_document -> AK_document
        | Ast.Kind_test (Seqtype.It_node | Seqtype.It_item | Seqtype.It_atomic _) ->
            AK_node
        | Ast.Name_test _ -> AK_node (* element or attribute, depending on axis *)
      in
      { kind; occ = zero_or_more }
  | Castable _ | TypeMatches _ | MapSome _ | MapEvery _ ->
      { kind = AK_boolean; occ = exactly_one }
  | Cast (tn, optional, _) ->
      let kind =
        match tn with
        | Atomic.T_integer -> AK_integer
        | Atomic.T_decimal -> AK_decimal
        | Atomic.T_double -> AK_double
        | Atomic.T_string -> AK_string
        | Atomic.T_boolean -> AK_boolean
        | Atomic.T_untyped -> AK_untyped
        | _ -> AK_atomic
      in
      { kind; occ = (if optional then zero_or_one else exactly_one) }
  | Validate _ -> { kind = AK_node; occ = exactly_one }
  | TypeAssert (_, inner) -> infer env inner
  | Cond (_, t, e) -> join (infer env t) (infer env e)
  | Call (f, _) -> ( match call_type f with Some t -> t | None -> unknown)
  | Parse _ -> { kind = AK_document; occ = exactly_one }
  | MapToItem (dep, input) ->
      let td = infer { env with fields = infer_fields env input @ env.fields } dep in
      { td with occ = zero_or_more }
  | Input -> ( match env.input_item with Some t -> t | None -> unknown)
  | FieldAccess q -> (
      match List.assoc_opt q env.fields with Some t -> t | None -> unknown)
  | Var _ | Serialize _ | Quantified _ -> unknown
  | TupleConstruct _ | Select _ | Product _ | Join _ | LOuterJoin _ | Map _
  | OMap _ | MapConcat _ | OMapConcat _ | MapIndex _ | MapIndexStep _
  | OrderBy _ | GroupBy _ | MapFromItem _ ->
      unknown

(* Static types of the output tuple fields of a table-producing plan,
   mirroring the layout inference of the evaluator.  Unknown operators
   contribute nothing (absent fields infer to [unknown]). *)
and infer_fields (env : env) (p : plan) : (field * t) list =
  match p with
  | TupleConstruct fields -> List.map (fun (q, fp) -> (q, infer env fp)) fields
  | Select (_, i) | OrderBy (_, i) -> infer_fields env i
  | Product (a, b) | Join (_, a, b) -> infer_fields env a @ infer_fields env b
  | LOuterJoin (q, _, a, b) ->
      ignore q;
      (* the null flag and the weakening of the right side's occurrences
         are ignored: a right field's kind is unchanged, and occurrences
         only weaken towards zero, which all match-judgments treat
         conservatively below through join with empty *)
      infer_fields env a
      @ List.map
          (fun (f, t) -> (f, { t with occ = { t.occ with lo = 0 } }))
          (infer_fields env b)
  | Map (d, i) -> infer_fields { env with fields = infer_fields env i @ env.fields } d
  | OMap (_, i) -> infer_fields env i
  | MapConcat (d, i) ->
      let fi = infer_fields env i in
      fi @ infer_fields { env with fields = fi @ env.fields } d
  | OMapConcat (_, d, i) ->
      let fi = infer_fields env i in
      fi
      @ List.map
          (fun (f, t) -> (f, { t with occ = { t.occ with lo = 0 } }))
          (infer_fields { env with fields = fi @ env.fields } d)
  | MapIndex (q, i) | MapIndexStep (q, i) ->
      (q, { kind = AK_integer; occ = exactly_one }) :: infer_fields env i
  | GroupBy (g, i) ->
      (* the aggregate field's type is the post-plan's, with IN unknown *)
      infer_fields env i @ [ (g.g_agg, unknown) ]
  | MapFromItem (d, i) ->
      let item =
        let ti = infer env i in
        { ti with occ = exactly_one }
      in
      infer_fields { env with input_item = Some item } d
  | Cond (_, t, _) -> infer_fields env t
  | _ -> []

(* Does static type [t] prove membership in sequence type [ty]?  Only
   schema-independent judgments are made (nominal element types need the
   schema and stay dynamic). *)
let definitely_matches (t : t) (ty : Seqtype.t) : bool =
  let kind_matches kind (it : Seqtype.item_type) =
    match (kind, it) with
    | _, Seqtype.It_item -> true
    | k, Seqtype.It_node -> is_node_kind k
    | AK_element, Seqtype.It_element (None, None) -> true
    | AK_attribute, Seqtype.It_attribute (None, None) -> true
    | AK_text, Seqtype.It_text -> true
    | AK_comment, Seqtype.It_comment -> true
    | AK_pi, Seqtype.It_pi -> true
    | AK_document, Seqtype.It_document -> true
    | AK_integer, Seqtype.It_atomic (Atomic.T_integer | Atomic.T_decimal) -> true
    | AK_decimal, Seqtype.It_atomic Atomic.T_decimal -> true
    | AK_double, Seqtype.It_atomic Atomic.T_double -> true
    | AK_string, Seqtype.It_atomic Atomic.T_string -> true
    | AK_boolean, Seqtype.It_atomic Atomic.T_boolean -> true
    | AK_untyped, Seqtype.It_atomic Atomic.T_untyped -> true
    | _ -> false
  in
  let occ_matches occ (o : Seqtype.occurrence) =
    match o with
    | Seqtype.Exactly_one -> occ.lo >= 1 && occ.hi = Some 1
    | Seqtype.Zero_or_one -> ( match occ.hi with Some h -> h <= 1 | None -> false)
    | Seqtype.Zero_or_more -> true
    | Seqtype.One_or_more -> occ.lo >= 1
  in
  match ty with
  | Seqtype.Empty_sequence -> t.occ.hi = Some 0
  | Seqtype.Occ (it, o) ->
      (occ_matches t.occ o && (t.occ.hi = Some 0 || kind_matches t.kind it))

(* Can [t] definitely NOT match [ty]?  Used to prune typeswitch branches.
   Sound only for kind-level disjointness with wildcard tests. *)
let definitely_mismatches (t : t) (ty : Seqtype.t) : bool =
  let disjoint kind (it : Seqtype.item_type) =
    match (kind, it) with
    | _, Seqtype.It_item -> false
    | k, Seqtype.It_node -> is_atomic_kind k
    | k, Seqtype.It_element _ when is_atomic_kind k -> true
    | k, Seqtype.It_attribute _ when is_atomic_kind k -> true
    | k, Seqtype.It_atomic _ when is_node_kind k -> true
    | AK_text, (Seqtype.It_element _ | Seqtype.It_attribute _ | Seqtype.It_document) -> true
    | AK_element, (Seqtype.It_text | Seqtype.It_attribute _ | Seqtype.It_document | Seqtype.It_comment | Seqtype.It_pi) -> true
    | AK_attribute, (Seqtype.It_text | Seqtype.It_element _ | Seqtype.It_document | Seqtype.It_comment | Seqtype.It_pi) -> true
    | AK_boolean, Seqtype.It_atomic tn -> tn <> Atomic.T_boolean
    | AK_integer, Seqtype.It_atomic tn ->
        not (List.mem tn [ Atomic.T_integer; Atomic.T_decimal ])
    | AK_string, Seqtype.It_atomic tn -> tn <> Atomic.T_string
    | AK_untyped, Seqtype.It_atomic tn -> tn <> Atomic.T_untyped
    | _ -> false
  in
  match ty with
  | Seqtype.Empty_sequence -> t.occ.lo >= 1
  | Seqtype.Occ (it, o) -> (
      (* cardinality contradiction *)
      (match o with
      | Seqtype.Exactly_one | Seqtype.Zero_or_one -> t.occ.lo > 1
      | Seqtype.One_or_more -> t.occ.hi = Some 0
      | Seqtype.Zero_or_more -> false)
      ||
      (* kind contradiction on a provably non-empty value *)
      match o with
      | Seqtype.Exactly_one | Seqtype.One_or_more ->
          t.occ.lo >= 1 && disjoint t.kind it
      | Seqtype.Zero_or_one | Seqtype.Zero_or_more ->
          t.occ.lo >= 1 && disjoint t.kind it)

(* The type-driven simplification pass: remove provable TypeAsserts, fold
   provable TypeMatches/Castable, prune dead Cond branches.  The
   environment is threaded into dependent sub-plans the same way the
   evaluator threads layouts. *)
let rec simplify_in (env : env) (p : plan) : plan =
  let dep_env i = { env with fields = infer_fields env i @ env.fields } in
  let p =
    match p with
    | Select (d, i) -> Select (simplify_in (dep_env i) d, simplify_in env i)
    | Map (d, i) -> Map (simplify_in (dep_env i) d, simplify_in env i)
    | MapConcat (d, i) -> MapConcat (simplify_in (dep_env i) d, simplify_in env i)
    | OMapConcat (q, d, i) ->
        OMapConcat (q, simplify_in (dep_env i) d, simplify_in env i)
    | MapToItem (d, i) -> MapToItem (simplify_in (dep_env i) d, simplify_in env i)
    | MapSome (d, i) -> MapSome (simplify_in (dep_env i) d, simplify_in env i)
    | MapEvery (d, i) -> MapEvery (simplify_in (dep_env i) d, simplify_in env i)
    | MapFromItem (d, i) ->
        let item = { (infer env i) with occ = exactly_one } in
        MapFromItem
          (simplify_in { env with input_item = Some item } d, simplify_in env i)
    | OrderBy (specs, i) ->
        OrderBy
          ( List.map (fun sp -> { sp with skey = simplify_in (dep_env i) sp.skey }) specs,
            simplify_in env i )
    | GroupBy (g, i) ->
        GroupBy
          ( {
              g with
              g_pre = simplify_in (dep_env i) g.g_pre;
              g_post = simplify_in top_env g.g_post;
            },
            simplify_in env i )
    | other -> map_children (simplify_in env) other
  in
  match p with
  | TypeAssert (ty, inner) when definitely_matches (infer env inner) ty -> inner
  | TypeMatches (ty, inner) when definitely_matches (infer env inner) ty ->
      Scalar (Atomic.Boolean true)
  | TypeMatches (ty, inner) when definitely_mismatches (infer env inner) ty ->
      Scalar (Atomic.Boolean false)
  | Cond (Scalar (Atomic.Boolean true), t, _) -> t
  | Cond (Scalar (Atomic.Boolean false), _, e) -> e
  | Call ("fn:boolean", [ inner ])
    when (infer env inner).kind = AK_boolean && (infer env inner).occ = exactly_one ->
      inner
  | other -> other

let simplify (p : plan) : plan = simplify_in top_env p
