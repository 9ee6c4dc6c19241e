(* Normalization: surface AST -> XQuery Core (Section 4 of the paper).

   Follows the paper's deviations from the W3C normalization rules:
   - FLWOR expressions are preserved as whole blocks;
   - each path step normalizes into one complete FLWOR with an `at`
     positional variable and a `where` clause for the predicate (rather
     than nested for/if), which is what later allows Select introduction;
   - typeswitch is renormalized so every branch shares one variable.

   All bound variables are alpha-renamed to fresh names ("x~3") so tuple
   fields never collide in the algebra; fs: helpers carry the dynamic
   pieces of the spec semantics (predicate truth, AVT stringification). *)

open Xqc_xml
open Core_ast

exception Norm_error of string

let norm_error fmt = Printf.ksprintf (fun s -> raise (Norm_error s)) fmt

type env = {
  bindings : (string * string) list;  (** surface name -> unique core name *)
  context : string option;  (** core name of $fs:dot, if a context item is in scope *)
  position : string option;  (** core name of $fs:position *)
  last : string option;  (** core name of $fs:last *)
  functions : (string * int) list;  (** declared (name, arity) *)
  items : string list;  (** core names bound to exactly one item: for and quantifier variables *)
  counter : int ref;
}

let initial_env functions =
  { bindings = []; context = None; position = None; last = None; functions; items = []; counter = ref 0 }

let fresh env base =
  incr env.counter;
  Printf.sprintf "%s~%d" base !(env.counter)

let bind env surface core = { env with bindings = (surface, core) :: env.bindings }
let bind_item env surface core = { (bind env surface core) with items = core :: env.items }

let lookup env v =
  match List.assoc_opt v env.bindings with
  | Some core -> core
  | None -> v (* free variable: global or external binding, kept by name *)

let seq_of_list = function [] -> C_empty | [ e ] -> e | es -> C_seq es

let ebv e = C_call ("fn:boolean", [ e ])

let is_whitespace_only s =
  String.for_all (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') s

(* Does a surface expression mention fn:last() / fn:position() outside a
   nested predicate (which rebinds them)?  A conservative syntactic check
   used to avoid materializing the sequence length when not needed. *)
let rec mentions_fn names (e : Ast.expr) : bool =
  let mentions_last = mentions_fn names in
  let open Ast in
  match e with
  | Call (f, []) when List.mem f names -> true
  | Sequence_expr es -> List.exists mentions_last es
  | Flwor (clauses, orders, ret) ->
      List.exists
        (function
          | For_clause { source; _ } -> mentions_last source
          | Let_clause { value; _ } -> mentions_last value
          | Where_clause w -> mentions_last w)
        clauses
      || List.exists (fun o -> mentions_last o.key) orders
      || mentions_last ret
  | If_expr (a, b, c) -> mentions_last a || mentions_last b || mentions_last c
  | Quantified (_, binds, body) ->
      List.exists (fun (_, s) -> mentions_last s) binds || mentions_last body
  | Typeswitch (s, cases, (_, d)) ->
      mentions_last s
      || List.exists (fun c -> mentions_last c.case_body) cases
      || mentions_last d
  | Or_expr (a, b) | And_expr (a, b) | Range (a, b) | Union_expr (a, b)
  | Intersect_expr (a, b) | Except_expr (a, b) ->
      mentions_last a || mentions_last b
  | General_comp (_, a, b) | Value_comp (_, a, b) | Node_comp (_, a, b)
  | Arith (_, a, b) ->
      mentions_last a || mentions_last b
  | Unary_minus a | Enclosed a | Text_constructor a | Comment_constructor a
  | Pi_constructor (_, a) | Document_constructor a | Computed_element (_, a)
  | Computed_attribute (_, a)
  | Instance_of (a, _) | Treat_as (a, _) | Castable_as (a, _, _)
  | Cast_as (a, _, _) | Validate_expr a ->
      mentions_last a
  | Path (origin, _) -> mentions_last origin (* predicates rebind last() *)
  | Filter (p, _) -> mentions_last p
  | Call (_, args) -> List.exists mentions_last args
  | Literal _ | Var _ | Context_item | Root | Text_content _ -> false
  | Elem_constructor (_, attrs, content) ->
      List.exists
        (fun (_, Attr_parts parts) ->
          List.exists (function Attr_expr e -> mentions_last e | Attr_text _ -> false) parts)
        attrs
      || List.exists mentions_last content

let mentions_last = mentions_fn [ "last"; "fn:last" ]
let mentions_position = mentions_fn [ "position"; "fn:position" ]

let rec normalize env (e : Ast.expr) : cexpr =
  let open Ast in
  match e with
  | Literal a -> C_scalar a
  | Var v -> C_var (lookup env v)
  | Context_item -> (
      match env.context with
      | Some dot -> C_var dot
      | None -> norm_error "no context item in scope for '.'")
  | Root -> (
      match env.context with
      | Some dot -> C_call ("fn:root", [ C_var dot ])
      | None -> norm_error "no context item in scope for '/'")
  | Sequence_expr es -> seq_of_list (List.map (normalize env) es)
  | Flwor (clauses, orders, ret) -> normalize_flwor env clauses orders ret
  | If_expr (c, t, e) -> C_if (ebv (normalize env c), normalize env t, normalize env e)
  | Quantified (q, binds, body) ->
      let rec build env = function
        | [] -> ebv (normalize env body)
        | (v, source) :: rest ->
            let source = normalize env source in
            let v' = fresh env v in
            C_quant (q, v', source, build (bind_item env v v') rest)
      in
      build env binds
  | Typeswitch (scrut, cases, (dvar, dbody)) ->
      let scrut = normalize env scrut in
      let x = fresh env "ts" in
      let norm_case c =
        let env' =
          match c.case_var with Some v -> bind env v x | None -> env
        in
        (c.case_type, normalize env' c.case_body)
      in
      let default =
        let env' = match dvar with Some v -> bind env v x | None -> env in
        normalize env' dbody
      in
      C_typeswitch (x, scrut, List.map norm_case cases, default)
  | Or_expr (a, b) ->
      C_if (ebv (normalize env a), C_scalar (Atomic.Boolean true), ebv (normalize env b))
  | And_expr (a, b) ->
      C_if (ebv (normalize env a), ebv (normalize env b), C_scalar (Atomic.Boolean false))
  | General_comp (op, a, b) ->
      let name =
        match op with
        | Gen_eq -> "op:general-eq"
        | Gen_ne -> "op:general-ne"
        | Gen_lt -> "op:general-lt"
        | Gen_le -> "op:general-le"
        | Gen_gt -> "op:general-gt"
        | Gen_ge -> "op:general-ge"
      in
      C_call (name, [ normalize env a; normalize env b ])
  | Value_comp (op, a, b) ->
      let name =
        match op with
        | Val_eq -> "op:eq"
        | Val_ne -> "op:ne"
        | Val_lt -> "op:lt"
        | Val_le -> "op:le"
        | Val_gt -> "op:gt"
        | Val_ge -> "op:ge"
      in
      C_call (name, [ normalize env a; normalize env b ])
  | Node_comp (op, a, b) ->
      let name =
        match op with
        | Node_is -> "op:is-same-node"
        | Node_before -> "op:node-before"
        | Node_after -> "op:node-after"
      in
      C_call (name, [ normalize env a; normalize env b ])
  | Range (a, b) -> C_call ("op:to", [ normalize env a; normalize env b ])
  | Arith (op, a, b) ->
      let name =
        match op with
        | Add -> "op:add"
        | Sub -> "op:subtract"
        | Mul -> "op:multiply"
        | Div -> "op:divide"
        | Idiv -> "op:integer-divide"
        | Mod -> "op:mod"
      in
      C_call (name, [ normalize env a; normalize env b ])
  | Unary_minus a -> C_call ("op:unary-minus", [ normalize env a ])
  | Union_expr (a, b) -> C_call ("op:union", [ normalize env a; normalize env b ])
  | Intersect_expr (a, b) ->
      C_call ("op:intersect", [ normalize env a; normalize env b ])
  | Except_expr (a, b) -> C_call ("op:except", [ normalize env a; normalize env b ])
  | Path (origin, steps) ->
      let origin = normalize env origin in
      List.fold_left (normalize_step env) origin steps
  | Filter (primary, predicates) ->
      let base = normalize env primary in
      List.fold_left (fun acc p -> normalize_predicate env acc p) base predicates
  | Call (name, args) -> normalize_call env name args
  | Elem_constructor (name, attrs, content) ->
      let attr_exprs =
        List.map (fun (aname, av) -> C_attr (aname, normalize_avt env av)) attrs
      in
      let content_exprs =
        List.filter_map
          (fun item ->
            match item with
            | Text_content s ->
                if is_whitespace_only s then None
                else Some (C_text (C_scalar (Atomic.String s)))
            | Enclosed e -> Some (normalize env e)
            | other -> Some (normalize env other))
          content
      in
      C_elem (name, seq_of_list (attr_exprs @ content_exprs))
  | Enclosed e -> normalize env e
  | Text_content s -> C_text (C_scalar (Atomic.String s))
  | Text_constructor e -> C_text (normalize env e)
  | Comment_constructor e -> C_comment (normalize env e)
  | Pi_constructor (t, e) -> C_pi (t, normalize env e)
  | Document_constructor e -> C_call ("fs:document", [ normalize env e ])
  | Computed_element (n, e) -> C_elem (n, normalize env e)
  | Computed_attribute (n, e) -> C_attr (n, C_call ("fs:item-sequence-to-string", [ normalize env e ]))
  | Instance_of (e, ty) -> C_instance_of (normalize env e, ty)
  | Treat_as (e, ty) -> C_typeassert (normalize env e, ty)
  | Castable_as (e, tn, opt) -> C_castable (normalize env e, tn, opt)
  | Cast_as (e, tn, opt) -> C_cast (normalize env e, tn, opt)
  | Validate_expr e -> C_validate (normalize env e)

and normalize_call env name args =
  match (name, args) with
  | ("position" | "fn:position"), [] -> (
      match env.position with
      | Some p -> C_var p
      | None -> norm_error "fn:position() used outside a predicate")
  | ("last" | "fn:last"), [] -> (
      match env.last with
      | Some l -> C_var l
      | None -> norm_error "fn:last() used outside a predicate")
  | _ ->
      let arity = List.length args in
      let resolved =
        if List.mem (name, arity) env.functions then name
        else if String.contains name ':' then name
        else "fn:" ^ name
      in
      C_call (resolved, List.map (normalize env) args)

(* E1/step — one complete FLWOR block per step, per the paper.  A
   predicate that reads the context position counts within the step's
   output from each context node, so over a sequence E1 the step runs
   per node and the results are unioned back into document order:
   op:union(for $c in E1 return $c/step[p], ()).  A for-bound variable
   or the context item is one node, and needs no wrapping. *)
and normalize_step env input (step : Ast.step) =
  let apply input =
    List.fold_left (normalize_predicate env)
      (C_treejoin (step.Ast.axis, step.Ast.test, input))
      step.Ast.predicates
  in
  match input with
  | C_var v when List.mem v env.items || env.context = Some v -> apply input
  | _ when List.for_all position_free step.Ast.predicates -> apply input
  | _ ->
      let c = fresh env "fs_ctx" in
      C_call
        ( "op:union",
          [ C_flwor ([ CC_for { var = c; at_var = None; astype = None; source = input } ], [], apply (C_var c));
            C_empty ] )

(* Is a predicate expression statically known to be boolean-valued (so its
   truth is its effective boolean value, independent of the context
   position)?  Such predicates normalize without the positional variable,
   which is what lets the optimizer unnest joins expressed through path
   predicates (the Q1 variant at the end of Section 4 of the paper). *)
and statically_boolean (pred : Ast.expr) : bool =
  match pred with
  | Ast.General_comp _ | Ast.Value_comp _ | Ast.Node_comp _ | Ast.Quantified _
  | Ast.Or_expr _ | Ast.And_expr _ | Ast.Instance_of _ | Ast.Castable_as _ ->
      true
  | Ast.Call (name, _) ->
      List.mem name
        [ "boolean"; "fn:boolean"; "not"; "fn:not"; "empty"; "fn:empty";
          "exists"; "fn:exists"; "contains"; "fn:contains"; "starts-with";
          "fn:starts-with"; "ends-with"; "fn:ends-with"; "true"; "fn:true";
          "false"; "fn:false" ]
  | _ -> false

(* A predicate whose truth is its effective boolean value alone. *)
and position_free (pred : Ast.expr) : bool =
  statically_boolean pred && not (mentions_last pred) && not (mentions_position pred)

(* E[p]  ~~>  for $fs:dot at $fs:position in E
              where fs:predicate-truth(p', $fs:position)
              return $fs:dot
   with a let-bound fn:count when p uses last(), and without the
   positional machinery when p is statically boolean. *)
and normalize_predicate env input (pred : Ast.expr) =
  if position_free pred then
    let dot = fresh env "fs_dot" in
    let penv = { env with context = Some dot; position = None; last = None } in
    let p' = normalize penv pred in
    C_flwor
      ( [
          CC_for { var = dot; at_var = None; astype = None; source = input };
          CC_where (ebv p');
        ],
        [],
        C_var dot )
  else normalize_predicate_positional env input pred

and normalize_predicate_positional env input (pred : Ast.expr) =
  let dot = fresh env "fs_dot" in
  let pos = fresh env "fs_pos" in
  let uses_last = mentions_last pred in
  let seq_var = fresh env "fs_seq" in
  let len_var = fresh env "fs_last" in
  let penv =
    { env with context = Some dot; position = Some pos;
      last = (if uses_last then Some len_var else None) }
  in
  let p' = normalize penv pred in
  let where =
    (* a literal integer predicate is directly a position test: the Core
       interpreters run this FLWOR as it stands, and Compile.compile
       recognizes exactly this shape (for $d at $p in E where op:eq($p, k)
       return $d) to lower E[k] to fn:subsequence(E, k, 1) — change the
       two together; test_planner's "[k] -> streamed subsequence" case
       fails if they drift apart *)
    match p' with
    | C_scalar (Atomic.Integer _) -> C_call ("op:eq", [ C_var pos; p' ])
    | _ -> C_call ("fs:predicate-truth", [ p'; C_var pos ])
  in
  if uses_last then
    C_flwor
      ( [
          CC_let { var = seq_var; astype = None; value = input };
          CC_let { var = len_var; astype = None; value = C_call ("fn:count", [ C_var seq_var ]) };
          CC_for { var = dot; at_var = Some pos; astype = None; source = C_var seq_var };
          CC_where where;
        ],
        [],
        C_var dot )
  else
    C_flwor
      ( [
          CC_for { var = dot; at_var = Some pos; astype = None; source = input };
          CC_where where;
        ],
        [],
        C_var dot )

and normalize_avt env (Ast.Attr_parts parts) =
  let pieces =
    List.map
      (function
        | Ast.Attr_text s -> C_scalar (Atomic.String s)
        | Ast.Attr_expr e -> C_call ("fs:item-sequence-to-string", [ normalize env e ]))
      parts
  in
  match pieces with
  | [] -> C_scalar (Atomic.String "")
  | [ p ] -> p
  | ps -> C_call ("fn:concat", ps)

and normalize_flwor env clauses orders ret =
  let rec norm_clauses env acc = function
    | [] ->
        let orders' =
          List.map
            (fun o ->
              { ckey = normalize env o.Ast.key;
                cdir = o.Ast.dir;
                cempty = o.Ast.empty })
            orders
        in
        (env, List.rev acc, orders')
    | Ast.For_clause { var; at_var; astype; source } :: rest ->
        let source = normalize env source in
        let var' = fresh env var in
        let env = bind_item env var var' in
        let at_var', env =
          match at_var with
          | None -> (None, env)
          | Some a ->
              let a' = fresh env a in
              (Some a', bind env a a')
        in
        norm_clauses env (CC_for { var = var'; at_var = at_var'; astype; source } :: acc) rest
    | Ast.Let_clause { var; astype; value } :: rest ->
        let value = normalize env value in
        let var' = fresh env var in
        let env = bind env var var' in
        norm_clauses env (CC_let { var = var'; astype; value } :: acc) rest
    | Ast.Where_clause w :: rest ->
        norm_clauses env (CC_where (ebv (normalize env w)) :: acc) rest
  in
  let env', clauses', orders' = norm_clauses env [] clauses in
  C_flwor (clauses', orders', normalize env' ret)

(* ------------------------------------------------------------------ *)

let normalize_query (q : Ast.query) : cquery =
  let declared =
    List.filter_map
      (function
        | Ast.Function_decl f -> Some (f.Ast.fname, List.length f.Ast.params)
        | Ast.Variable_decl _ -> None)
      q.Ast.prolog
  in
  let base_env = initial_env declared in
  let functions =
    List.filter_map
      (function
        | Ast.Function_decl f ->
            let env =
              List.fold_left (fun e (p, _) -> bind e p p) base_env f.Ast.params
            in
            Some
              {
                cf_name = f.Ast.fname;
                cf_params = f.Ast.params;
                cf_return = f.Ast.return_type;
                cf_body = normalize env f.Ast.body;
              }
        | Ast.Variable_decl _ -> None)
      q.Ast.prolog
  in
  let globals =
    List.filter_map
      (function
        | Ast.Variable_decl (v, e) -> Some (v, normalize base_env e)
        | Ast.Function_decl _ -> None)
      q.Ast.prolog
  in
  { cq_functions = functions; cq_globals = globals; cq_main = normalize base_env q.Ast.main }

let normalize_string (src : string) : cquery =
  normalize_query (Xq_parser.parse_query src)

(* ------------------------------------------------------------------ *)
(* Update scripts                                                      *)
(* ------------------------------------------------------------------ *)

(* A normalized update statement: every source/target position is a
   complete core query (sharing the script's prolog), so the update
   driver can run each through any of the engine's execution
   strategies unchanged. *)
type nupdate_stmt =
  | N_insert of cquery * Ast.insert_pos * cquery
  | N_delete of cquery
  | N_replace_node of cquery * cquery  (** target, source *)
  | N_replace_value of cquery * cquery  (** target, source *)
  | N_rename of cquery * cquery  (** target, name expression *)

let normalize_update (u : Ast.update_script) : nupdate_stmt list =
  let q expr = normalize_query { Ast.prolog = u.Ast.uprolog; main = expr } in
  List.map
    (function
      | Ast.Insert (src, pos, tgt) -> N_insert (q src, pos, q tgt)
      | Ast.Delete tgt -> N_delete (q tgt)
      | Ast.Replace_node (tgt, src) -> N_replace_node (q tgt, q src)
      | Ast.Replace_value (tgt, src) -> N_replace_value (q tgt, q src)
      | Ast.Rename (tgt, name) -> N_rename (q tgt, q name))
    u.Ast.stmts
