(* Direct interpretation of the XQuery Core AST.

   This is the paper's "No algebra" baseline (Table 3): the original Galax
   evaluated the normalized abstract syntax tree directly, with variable
   bindings kept in a dynamic environment.  We reproduce that design
   deliberately — association-list environments, re-evaluation of nested
   FLWOR blocks per outer binding, no unnesting, no join algorithms — so
   the benchmark measures the same gap the paper measured.

   The [Indexed] variant (see indexed.ml) adds an automatic hash index on
   equality where-clauses and stands in for Saxon in Table 5. *)

open Xqc_xml
open Xqc_types
open Xqc_frontend
open Xqc_runtime
open Core_ast

type env = (string * Item.sequence) list

type hooks = {
  (* The indexed interpreter overrides this to short-circuit joinable
     for/where combinations; the naive interpreter leaves it as None. *)
  try_for_where :
    (hooks -> Dynamic_ctx.t -> env -> cclause list ->
     (env -> Item.sequence) -> Item.sequence option)
    option;
}

let naive_hooks = { try_for_where = None }

let ebv = Item.effective_boolean_value

(* Every expression checks the deadline, so a runaway query unwinds
   within one expression's worth of work past it (the indexed variant
   too: its hooks evaluate through here). *)
let rec eval (h : hooks) (ctx : Dynamic_ctx.t) (env : env) (e : cexpr) :
    Item.sequence =
  Dynamic_ctx.check_deadline ctx;
  match e with
  | C_empty -> []
  | C_scalar a -> [ Item.Atom a ]
  | C_seq es -> List.concat_map (eval h ctx env) es
  | C_var v -> (
      match List.assoc_opt v env with
      | Some s -> s
      | None -> Dynamic_ctx.lookup_variable ctx v)
  | C_elem (name, content) ->
      [ Eval.construct_element name (eval h ctx env content) ]
  | C_attr (name, content) ->
      [ Eval.construct_attribute name (eval h ctx env content) ]
  | C_text content -> (
      match eval h ctx env content with
      | [] -> []
      | items ->
          [ Item.Node (Node.text (String.concat " " (List.map Item.string_value items))) ])
  | C_comment content ->
      [ Item.Node (Node.comment (String.concat " " (List.map Item.string_value (eval h ctx env content)))) ]
  | C_pi (target, content) ->
      [ Item.Node (Node.pi target (String.concat " " (List.map Item.string_value (eval h ctx env content)))) ]
  | C_if (c, t, e) -> if ebv (eval h ctx env c) then eval h ctx env t else eval h ctx env e
  | C_flwor (clauses, orders, ret) -> eval_flwor h ctx env clauses orders ret
  | C_quant (q, v, source, body) ->
      let items = eval h ctx env source in
      let test it = ebv (eval h ctx ((v, [ it ]) :: env) body) in
      let result =
        match q with
        | Ast.Some_quant -> List.exists test items
        | Ast.Every_quant -> List.for_all test items
      in
      [ Item.Atom (Atomic.Boolean result) ]
  | C_typeswitch (x, scrut, cases, default) ->
      let v = eval h ctx env scrut in
      let env' = (x, v) :: env in
      let rec pick = function
        | [] -> eval h ctx env' default
        | (ty, body) :: rest ->
            if Seqtype.matches ctx.Dynamic_ctx.schema v ty then eval h ctx env' body
            else pick rest
      in
      pick cases
  | C_call (name, args) -> eval_call h ctx env name args
  | C_treejoin (axis, test, input) ->
      Eval.tree_join ctx.Dynamic_ctx.schema axis test (eval h ctx env input)
  | C_instance_of (c, ty) ->
      [ Item.Atom (Atomic.Boolean (Seqtype.matches ctx.Dynamic_ctx.schema (eval h ctx env c) ty)) ]
  | C_typeassert (c, ty) ->
      Seqtype.assert_matches ctx.Dynamic_ctx.schema (eval h ctx env c) ty
  | C_cast (c, tn, optional) -> (
      match Item.atomize (eval h ctx env c) with
      | [] ->
          if optional then []
          else Dynamic_ctx.dynamic_error "cast of an empty sequence"
      | [ a ] -> [ Item.Atom (Atomic.cast tn a) ]
      | _ -> Dynamic_ctx.dynamic_error "cast of a non-singleton sequence")
  | C_castable (c, tn, optional) ->
      let ok =
        match Item.atomize (eval h ctx env c) with
        | [] -> optional
        | [ a ] -> Atomic.castable tn a
        | _ -> false
      in
      [ Item.Atom (Atomic.Boolean ok) ]
  | C_validate c -> (
      match eval h ctx env c with
      | [ Item.Node n ] -> [ Item.Node (Schema.validate ctx.Dynamic_ctx.schema n) ]
      | _ -> Dynamic_ctx.dynamic_error "validate requires a single node")

and eval_call h ctx env name args =
  let vals = List.map (eval h ctx env) args in
  match Hashtbl.find_opt ctx.Dynamic_ctx.functions name with
  | Some f -> f.Dynamic_ctx.func_impl ctx vals
  | None -> (
      match Builtins.find name with
      | Some f -> f ctx vals
      | None -> Dynamic_ctx.dynamic_error "unknown function %s" name)

(* FLWOR evaluation: nested iteration over the clauses; with order-by the
   completed environments are materialized and sorted first. *)
and eval_flwor h ctx env clauses orders ret =
  match orders with
  | [] -> run_clauses h ctx env clauses (fun env -> eval h ctx env ret)
  | _ ->
      let envs = ref [] in
      let _ =
        run_clauses h ctx env clauses (fun env ->
            envs := env :: !envs;
            [])
      in
      let envs = List.rev !envs in
      (* keys are classified once into typed comparison classes — the
         same [Promotion.order_key] ordering the algebraic evaluator
         uses, so all strategies sort mixed-type keys identically *)
      let classify a =
        match Promotion.order_key a with
        | k -> k
        | exception Promotion.Type_mismatch _ ->
            Dynamic_ctx.dynamic_error "order by: incomparable values"
      in
      let keyed =
        List.map
          (fun env ->
            let keys =
              List.map
                (fun o ->
                  match Item.atomize (eval h ctx env o.ckey) with
                  | [] -> None
                  | [ a ] -> Some (classify a)
                  | _ -> Dynamic_ctx.dynamic_error "order by key is not a singleton")
                orders
            in
            (keys, env))
          envs
      in
      let compare_keys k1 k2 =
        let rec go k1 k2 specs =
          match (k1, k2, specs) with
          | [], [], [] -> 0
          | a :: r1, b :: r2, o :: rs ->
              let c =
                match (a, b) with
                | None, None -> 0
                | None, Some _ -> (
                    match o.cempty with Ast.Empty_least -> -1 | Ast.Empty_greatest -> 1)
                | Some _, None -> (
                    match o.cempty with Ast.Empty_least -> 1 | Ast.Empty_greatest -> -1)
                | Some a, Some b -> (
                    match Promotion.compare_order_keys a b with
                    | c -> c
                    | exception Promotion.Type_mismatch _ ->
                        Dynamic_ctx.dynamic_error "order by: incomparable values")
              in
              let c = match o.cdir with Ast.Ascending -> c | Ast.Descending -> -c in
              if c <> 0 then c else go r1 r2 rs
          | _ -> 0
        in
        go k1 k2 orders
      in
      let sorted = List.stable_sort (fun (k1, _) (k2, _) -> compare_keys k1 k2) keyed in
      List.concat_map (fun (_, env) -> eval h ctx env ret) sorted

and run_clauses h ctx env clauses (k : env -> Item.sequence) : Item.sequence =
  (* give the indexed variant a chance to consume a for/where pair *)
  match h.try_for_where with
  | Some f -> (
      match f h ctx env clauses k with
      | Some result -> result
      | None -> run_one h ctx env clauses k)
  | None -> run_one h ctx env clauses k

and run_one h ctx env clauses k =
  match clauses with
  | [] -> k env
  | CC_for { var; at_var; astype; source } :: rest ->
      let items = eval h ctx env source in
      let items =
        match astype with
        | None -> items
        | Some ty ->
            List.concat_map
              (fun it -> Seqtype.assert_matches ctx.Dynamic_ctx.schema [ it ] ty)
              items
      in
      List.concat
        (List.mapi
           (fun i it ->
             let env = (var, [ it ]) :: env in
             let env =
               match at_var with
               | None -> env
               | Some a -> (a, [ Item.Atom (Atomic.Integer (i + 1)) ]) :: env
             in
             run_clauses h ctx env rest k)
           items)
  | CC_let { var; astype; value } :: rest ->
      let v = eval h ctx env value in
      let v =
        match astype with
        | None -> v
        | Some ty -> Seqtype.assert_matches ctx.Dynamic_ctx.schema v ty
      in
      run_clauses h ctx ((var, v) :: env) rest k
  | CC_where w :: rest ->
      if ebv (eval h ctx env w) then run_clauses h ctx env rest k else []

(* ------------------------------------------------------------------ *)
(* Whole-query evaluation                                              *)
(* ------------------------------------------------------------------ *)

let install_query ?(hooks = naive_hooks) (ctx : Dynamic_ctx.t) (q : cquery) :
    Dynamic_ctx.t -> Item.sequence =
  List.iter
    (fun (f : cfunction) ->
      let impl ctx args =
        let frame = List.combine (List.map fst f.cf_params) args in
        let result = eval hooks ctx frame f.cf_body in
        match f.cf_return with
        | None -> result
        | Some ty -> Seqtype.assert_matches ctx.Dynamic_ctx.schema result ty
      in
      Hashtbl.replace ctx.Dynamic_ctx.functions f.cf_name
        { Dynamic_ctx.func_params = List.map fst f.cf_params; func_impl = impl })
    q.cq_functions;
  fun ctx ->
    List.iter
      (fun (v, e) -> Dynamic_ctx.bind_global ctx v (eval hooks ctx [] e))
      q.cq_globals;
    eval hooks ctx [] q.cq_main

let run ?hooks ctx (q : cquery) : Item.sequence = (install_query ?hooks ctx q) ctx
