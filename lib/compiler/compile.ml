(* Algebraic compilation: XQuery Core -> logical algebra (Section 4).

   The compilation environment tracks which variables are tuple fields of
   the enclosing FLWOR blocks (compiled to IN#q accesses) versus function
   parameters / globals (compiled to Var[q]).  FLWOR blocks thread an
   intermediate plan through their clauses exactly as in Figure 2:

     for  ->  MapConcat{MapFromItem{[x : TypeAssert(IN)]}(source)}(Op0)
              (+ MapIndex for "at" variables)
     let  ->  MapConcat{[x : value]}(Op0)
     where -> Select{pred}(Op0)
     order -> OrderBy{keys}(Op0)
     return -> MapToItem{body}(Op0)

   The one exception is a literal positional predicate E[k], which
   normalizes to [for $d at $p in E where op:eq($p, k) return $d] and
   compiles to fn:subsequence(E, k, 1).

   A FLWOR in a tuple context starts from IN (the singleton table of the
   current input tuple), which is what later lets the unnesting rewritings
   see through nested blocks; at query top level it starts from the unit
   table [].  *)

open Xqc_frontend
open Xqc_algebra
open Algebra

type env = {
  fields : string list;  (** variables that are tuple fields of IN *)
  in_tuple_context : bool;
}

let top_env = { fields = []; in_tuple_context = false }

let rec compile (env : env) (e : Core_ast.cexpr) : plan =
  match e with
  | Core_ast.C_empty -> Empty
  | Core_ast.C_scalar a -> Scalar a
  | Core_ast.C_seq es -> Seq (List.map (compile env) es)
  | Core_ast.C_var v ->
      if List.mem v env.fields then FieldAccess v else Var v
  | Core_ast.C_elem (n, c) -> Element (n, compile env c)
  | Core_ast.C_attr (n, c) -> Attribute (n, compile env c)
  | Core_ast.C_text c -> Text (compile env c)
  | Core_ast.C_comment c -> Comment (compile env c)
  | Core_ast.C_pi (n, c) -> Pi (n, compile env c)
  | Core_ast.C_if (c, t, e) -> Cond (compile env c, compile env t, compile env e)
  | Core_ast.C_flwor
      ( [
          Core_ast.CC_for { var = dot; at_var = Some pos; astype = None; source };
          Core_ast.CC_where
            (Core_ast.C_call
              ("op:eq", [ Core_ast.C_var pos'; Core_ast.C_scalar (Xqc_xml.Atomic.Integer k) ]));
        ],
        [],
        Core_ast.C_var dot' )
    when String.equal dot dot' && String.equal pos pos' ->
      (* E[k] for an integer literal k, in exactly the shape
         Normalize.normalize_predicate_positional emits for it: the k-th
         item of E, which the planner streams over an ordered path *)
      Call
        ( "fn:subsequence",
          [ compile env source; Scalar (Xqc_xml.Atomic.Integer k); Scalar (Xqc_xml.Atomic.Integer 1) ] )
  | Core_ast.C_flwor (clauses, orders, ret) -> compile_flwor env clauses orders ret
  | Core_ast.C_quant (q, v, source, body) -> compile_quant env q v source body
  | Core_ast.C_typeswitch (x, scrut, cases, default) ->
      compile_typeswitch env x scrut cases default
  | Core_ast.C_call ("fn:doc", [ uri ]) -> Parse (compile env uri)
  | Core_ast.C_call (f, args) -> Call (f, List.map (compile env) args)
  | Core_ast.C_treejoin (axis, test, input) -> TreeJoin (axis, test, compile env input)
  | Core_ast.C_instance_of (c, ty) -> TypeMatches (ty, compile env c)
  | Core_ast.C_typeassert (c, ty) -> TypeAssert (ty, compile env c)
  | Core_ast.C_cast (c, tn, opt) -> Cast (tn, opt, compile env c)
  | Core_ast.C_castable (c, tn, opt) -> Castable (tn, opt, compile env c)
  | Core_ast.C_validate c -> Validate (compile env c)

(* The initial tuple stream for a FLWOR / quantifier block. *)
and initial_table env = if env.in_tuple_context then Input else TupleConstruct []

and assert_type astype plan =
  match astype with None -> plan | Some ty -> TypeAssert (ty, plan)

and compile_flwor env clauses orders ret =
  let rec clause_loop env op0 = function
    | [] ->
        let op0 =
          match orders with
          | [] -> op0
          | _ ->
              let specs =
                List.map
                  (fun o ->
                    {
                      skey = compile env o.Core_ast.ckey;
                      sdir = o.Core_ast.cdir;
                      sempty = o.Core_ast.cempty;
                    })
                  orders
              in
              OrderBy (specs, op0)
        in
        MapToItem (compile env ret, op0)
    | Core_ast.CC_for { var; at_var; astype; source } :: rest ->
        let source_plan = compile env source in
        let dep =
          MapFromItem (TupleConstruct [ (var, assert_type astype Input) ], source_plan)
        in
        let op = MapConcat (dep, op0) in
        let env = { env with fields = var :: env.fields } in
        let op, env =
          match at_var with
          | None -> (op, env)
          | Some i -> (MapIndex (i, op), { env with fields = i :: env.fields })
        in
        clause_loop env op rest
    | Core_ast.CC_let { var; astype; value } :: rest ->
        let value_plan = assert_type astype (compile env value) in
        let op = MapConcat (TupleConstruct [ (var, value_plan) ], op0) in
        clause_loop { env with fields = var :: env.fields } op rest
    | Core_ast.CC_where w :: rest ->
        clause_loop env (Select (compile env w, op0)) rest
  in
  let inner_env = { env with in_tuple_context = true } in
  clause_loop inner_env (initial_table env) clauses

and compile_quant env q v source body =
  let source_plan = compile env source in
  let dep = MapFromItem (TupleConstruct [ (v, Input) ], source_plan) in
  let stream = MapConcat (dep, initial_table env) in
  let env' = { in_tuple_context = true; fields = v :: env.fields } in
  let body_plan = compile env' body in
  match q with
  | Ast.Some_quant -> MapSome (body_plan, stream)
  | Ast.Every_quant -> MapEvery (body_plan, stream)

and compile_typeswitch env x scrut cases default =
  let scrut_plan = compile env scrut in
  let input = MapConcat (TupleConstruct [ (x, scrut_plan) ], initial_table env) in
  let env' = { in_tuple_context = true; fields = x :: env.fields } in
  let rec build = function
    | [] -> compile env' default
    | (ty, body) :: rest ->
        Cond (TypeMatches (ty, FieldAccess x), compile env' body, build rest)
  in
  MapToItem (build cases, input)

(* ------------------------------------------------------------------ *)

type compiled_function = {
  fn_name : string;
  fn_params : string list;
  fn_body : plan;
}

type compiled_query = {
  cfunctions : compiled_function list;
  cglobals : (string * plan) list;
  cmain : plan;
}

let compile_query (q : Core_ast.cquery) : compiled_query =
  let compile_function (f : Core_ast.cfunction) =
    (* parameters are Var[q] leaves, not tuple fields *)
    let body = compile top_env f.Core_ast.cf_body in
    let body =
      match f.Core_ast.cf_return with
      | None -> body
      | Some ty -> TypeAssert (ty, body)
    in
    { fn_name = f.Core_ast.cf_name;
      fn_params = List.map fst f.Core_ast.cf_params;
      fn_body = body }
  in
  {
    cfunctions = List.map compile_function q.Core_ast.cq_functions;
    cglobals =
      List.map (fun (v, e) -> (v, compile top_env e)) q.Core_ast.cq_globals;
    cmain = compile top_env q.Core_ast.cq_main;
  }

let compile_string (src : string) : compiled_query =
  compile_query (Normalize.normalize_string src)
