(* The XQuery Core: the normalized expression language that the algebraic
   compiler consumes (Section 4 of the paper).

   Differences from the W3C Core, following the paper: FLWOR expressions
   are kept as whole blocks (not decomposed into single for/let bindings),
   so that order-by has a tuple stream to act on and tuple operators can be
   introduced directly; typeswitch uses one common variable across all
   branches; path steps appear as the set-at-a-time TreeJoin form.

   All variables are alpha-renamed to unique names during normalization so
   that tuple fields in the algebra never collide. *)

open Xqc_xml
open Xqc_types

type cexpr =
  | C_empty
  | C_scalar of Atomic.t
  | C_seq of cexpr list  (** (e1, ..., en), n >= 2 *)
  | C_var of string
  | C_elem of string * cexpr
  | C_attr of string * cexpr
  | C_text of cexpr
  | C_comment of cexpr
  | C_pi of string * cexpr
  | C_if of cexpr * cexpr * cexpr
  | C_flwor of cclause list * corder list * cexpr
  | C_quant of Ast.quantifier * string * cexpr * cexpr
  | C_typeswitch of string * cexpr * (Seqtype.t * cexpr) list * cexpr
      (** typeswitch x := e; (type, branch)...; default branch *)
  | C_call of string * cexpr list
  | C_treejoin of Ast.axis * Ast.node_test * cexpr
  | C_instance_of of cexpr * Seqtype.t
  | C_typeassert of cexpr * Seqtype.t
  | C_cast of cexpr * Atomic.type_name * bool
  | C_castable of cexpr * Atomic.type_name * bool
  | C_validate of cexpr

and cclause =
  | CC_for of { var : string; at_var : string option; astype : Seqtype.t option; source : cexpr }
  | CC_let of { var : string; astype : Seqtype.t option; value : cexpr }
  | CC_where of cexpr

and corder = { ckey : cexpr; cdir : Ast.sort_dir; cempty : Ast.empty_order }

type cfunction = {
  cf_name : string;
  cf_params : (string * Seqtype.t option) list;
  cf_return : Seqtype.t option;
  cf_body : cexpr;
}

type cquery = {
  cq_functions : cfunction list;
  cq_globals : (string * cexpr) list;  (** declare variable, in order *)
  cq_main : cexpr;
}

(* Free variables, needed by the compiler to decide whether a sub-plan is
   independent of the input tuple (the "independent of IN" side conditions
   in the rewritings of Figure 5). *)
let rec free_vars (e : cexpr) : string list =
  let ( @. ) a b = List.rev_append a b in
  match e with
  | C_empty | C_scalar _ -> []
  | C_var v -> [ v ]
  | C_seq es -> List.concat_map free_vars es
  | C_elem (_, c) | C_attr (_, c) | C_text c | C_comment c | C_pi (_, c) -> free_vars c
  | C_if (a, b, c) -> free_vars a @. free_vars b @. free_vars c
  | C_flwor (clauses, orders, ret) ->
      let bound, acc =
        List.fold_left
          (fun (bound, acc) clause ->
            match clause with
            | CC_for { var; at_var; source; _ } ->
                let fv = List.filter (fun v -> not (List.mem v bound)) (free_vars source) in
                let bound = var :: (match at_var with Some a -> a :: bound | None -> bound) in
                (bound, fv @. acc)
            | CC_let { var; value; _ } ->
                let fv = List.filter (fun v -> not (List.mem v bound)) (free_vars value) in
                (var :: bound, fv @. acc)
            | CC_where w ->
                let fv = List.filter (fun v -> not (List.mem v bound)) (free_vars w) in
                (bound, fv @. acc))
          ([], []) clauses
      in
      let in_ret =
        List.filter (fun v -> not (List.mem v bound))
          (List.concat_map (fun o -> free_vars o.ckey) orders @ free_vars ret)
      in
      in_ret @. acc
  | C_quant (_, v, source, body) ->
      free_vars source @. List.filter (fun x -> x <> v) (free_vars body)
  | C_typeswitch (v, scrut, cases, default) ->
      free_vars scrut
      @. List.filter (fun x -> x <> v)
           (List.concat_map (fun (_, b) -> free_vars b) cases @ free_vars default)
  | C_call (_, args) -> List.concat_map free_vars args
  | C_treejoin (_, _, input) -> free_vars input
  | C_instance_of (c, _) | C_typeassert (c, _) | C_cast (c, _, _)
  | C_castable (c, _, _) | C_validate c ->
      free_vars c

(* A compact printer for Core expressions, used in tests and --explain. *)
let rec pp ppf (e : cexpr) =
  let open Format in
  let list = pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf ", ") pp in
  match e with
  | C_empty -> fprintf ppf "()"
  | C_scalar a -> Atomic.pp ppf a
  | C_var v -> fprintf ppf "$%s" v
  | C_seq es -> fprintf ppf "(%a)" list es
  | C_elem (n, c) -> fprintf ppf "element %s {%a}" n pp c
  | C_attr (n, c) -> fprintf ppf "attribute %s {%a}" n pp c
  | C_text c -> fprintf ppf "text {%a}" pp c
  | C_comment c -> fprintf ppf "comment {%a}" pp c
  | C_pi (t, c) -> fprintf ppf "pi %s {%a}" t pp c
  | C_if (c, t, e) -> fprintf ppf "if (%a) then %a else %a" pp c pp t pp e
  | C_flwor (clauses, orders, ret) ->
      List.iter
        (function
          | CC_for { var; at_var; source; _ } ->
              fprintf ppf "for $%s%s in %a " var
                (match at_var with Some a -> " at $" ^ a | None -> "")
                pp source
          | CC_let { var; value; _ } -> fprintf ppf "let $%s := %a " var pp value
          | CC_where w -> fprintf ppf "where %a " pp w)
        clauses;
      if orders <> [] then (
        fprintf ppf "order by ";
        List.iteri
          (fun i o ->
            if i > 0 then fprintf ppf ", ";
            fprintf ppf "%a%s" pp o.ckey
              (match o.cdir with Ast.Ascending -> "" | Ast.Descending -> " descending"))
          orders;
        fprintf ppf " ");
      fprintf ppf "return %a" pp ret
  | C_quant (q, v, s, b) ->
      fprintf ppf "%s $%s in %a satisfies %a"
        (match q with Ast.Some_quant -> "some" | Ast.Every_quant -> "every")
        v pp s pp b
  | C_typeswitch (v, scrut, cases, default) ->
      fprintf ppf "typeswitch $%s := %a" v pp scrut;
      List.iter
        (fun (ty, b) -> fprintf ppf " case %s return %a" (Seqtype.to_string ty) pp b)
        cases;
      fprintf ppf " default return %a" pp default
  | C_call (f, args) -> fprintf ppf "%s(%a)" f list args
  | C_treejoin (axis, test, input) ->
      fprintf ppf "%a/%s::%s" pp input (Ast.axis_to_string axis)
        (Ast.node_test_to_string test)
  | C_instance_of (c, ty) -> fprintf ppf "(%a instance of %s)" pp c (Seqtype.to_string ty)
  | C_typeassert (c, ty) -> fprintf ppf "(%a treat as %s)" pp c (Seqtype.to_string ty)
  | C_cast (c, tn, _) ->
      fprintf ppf "(%a cast as %s)" pp c (Atomic.type_name_to_string tn)
  | C_castable (c, tn, _) ->
      fprintf ppf "(%a castable as %s)" pp c (Atomic.type_name_to_string tn)
  | C_validate c -> fprintf ppf "validate {%a}" pp c

let to_string e = Format.asprintf "%a" pp e
