(* Cost-based physical planning: Algebra.plan -> Physical.t.

   The planner owns every execution-strategy decision the evaluator used
   to make at closure-compile or run time:

   - join algorithm and build side: a split equality predicate runs as a
     hash join (Figure 6) built on its estimated-smaller side, a split
     inequality as a sort join, anything else as a nested loop; the
     choice minimizes the cost model below, so tiny inputs may still run
     a nested loop even when a split exists;
   - step fusion: descendant-or-self::node()/child::t chains fuse to
     descendant::t, and a maximal TreeJoin chain becomes one [PSteps]
     whose [ordered] flag records the static streaming-order condition;
   - streaming boundaries: fn:exists / fn:empty / fn:count /
     fn:subsequence over suitable chains become streaming /
     index-probing calls ([PCallStream]) — a literal positional
     predicate E[k] arrives here as fn:subsequence(E, k, 1).  A join or
     product drains its build side itself, and its cost counts that
     side's rows once more for it.

   Whether a step reads the structural index is no decision of the
   planner's but the step's shape ([Physical.index_step]: a
   descendant[-or-self] name test); such a step is costed as a range
   lookup, every other step as a walk.

   Cardinalities come from the Xqc_store statistics API — exact
   per-qname element/attribute counts from the interval indexes, spread
   over the number of indexed roots — with fixed fan-out and
   selectivity defaults where no index has been built.  Costs are
   abstract work units: roughly one unit per tuple or item moved, with
   a factor [nl_pair_cost] per nested-loop pair for the per-pair
   predicate closure, and n·log n for sorts. *)

open Xqc_frontend
open Xqc_algebra
open Algebra
module Promotion = Xqc_types.Promotion
module P = Physical
module Store = Xqc_store.Store

type config = {
  force_join : P.join_algorithm option;
      (** override the cost-based algorithm choice for split predicates;
          an incompatible force (e.g. [Sort] on an equality) falls back
          to the always-sound nested loop *)
}

let default_config = { force_join = None }

(* ------------------------------------------------------------------ *)
(* Cost-model constants                                                *)
(* ------------------------------------------------------------------ *)

let sel_select = 0.25  (* generic selection selectivity *)
let sel_eq = 0.1  (* equality join selectivity *)
let sel_ineq = 0.3  (* inequality join selectivity *)
let sel_ne = 0.9  (* != join selectivity *)
let nl_pair_cost = 3.0  (* predicate closure per nested-loop pair *)

let join_selectivity (op : Promotion.cmp_op) : float =
  match op with
  | Promotion.Eq -> sel_eq
  | Promotion.Ne -> sel_ne
  | Promotion.Lt | Promotion.Le | Promotion.Gt | Promotion.Ge -> sel_ineq

(* ------------------------------------------------------------------ *)
(* Statistics-fed step estimation                                      *)
(* ------------------------------------------------------------------ *)

(* Default fan-out per axis when no index statistics apply — also the
   per-input work factor of a walking step. *)
let walk_factor (axis : Ast.axis) : float =
  match axis with
  | Ast.Descendant | Ast.Descendant_or_self -> 10.
  | Ast.Child -> 3.
  | Ast.Attribute_axis | Ast.Self | Ast.Parent -> 1.
  | _ -> 2.

let indexed_roots () = max 1 (Store.stats ()).Store.st_roots

(* Estimated output cardinality of one axis step over [input_rows]
   context nodes.  Name tests consult the store's exact per-qname
   counts; the global count is averaged over the indexed roots (a
   context node holds at most one document's worth) and capped at the
   global total. *)
let step_rows (axis : Ast.axis) (test : Ast.node_test) (input_rows : float) :
    float =
  let counted get name =
    match get name with
    | Some c ->
        let total = float_of_int c in
        let per_root = total /. float_of_int (indexed_roots ()) in
        Some (Float.min total (Float.max 1. (input_rows *. per_root)))
    | None -> None
  in
  match (axis, test) with
  | (Ast.Descendant | Ast.Descendant_or_self), Ast.Name_test name -> (
      match counted Store.element_count name with
      | Some est -> est
      | None -> input_rows *. walk_factor axis)
  | Ast.Child, Ast.Name_test name -> (
      let fanout = input_rows *. walk_factor axis in
      match counted Store.element_count name with
      | Some est -> Float.min est fanout
      | None -> fanout)
  | Ast.Attribute_axis, Ast.Name_test name -> (
      match Store.attribute_count name with
      | Some c -> Float.min input_rows (float_of_int c)
      | None -> input_rows)
  | _ -> input_rows *. walk_factor axis

(* ------------------------------------------------------------------ *)
(* Chain analysis (moved here from the evaluator)                      *)
(* ------------------------------------------------------------------ *)

(* descendant-or-self::node()/child::t ≡ descendant::t — the expansion of
   the // abbreviation.  Fusing the pair leaves a chain the ordered
   cursor can stream (a descendant step is legal in final position, the
   expanded form is not) and skips a full node()-walk either way. *)
let rec fuse_steps (steps : (Ast.axis * Ast.node_test) list) =
  match steps with
  | (Ast.Descendant_or_self, Ast.Kind_test Xqc_types.Seqtype.It_node)
    :: (Ast.Child, t)
    :: rest ->
      fuse_steps ((Ast.Descendant, t) :: rest)
  | s :: rest -> s :: fuse_steps rest
  | [] -> []

(* Decompose a chain of TreeJoin steps down to its source plan; steps are
   returned in application order (innermost first).  The walk starts at
   the outermost step, so each step goes in front of the ones already
   found: linear in the chain's length. *)
let chain_steps (p : plan) : (Ast.axis * Ast.node_test) list * plan =
  let rec go acc = function
    | TreeJoin (axis, test, input) -> go ((axis, test) :: acc) input
    | src -> (acc, src)
  in
  let steps, src = go [] p in
  (fuse_steps steps, src)

(* A step chain is order-preserving when fed sorted, duplicate-free,
   mutually non-nesting nodes: child/attribute/self steps maintain that
   invariant (subtree spans of such nodes are disjoint and ordered, and
   siblings never nest), and a descendant step — whose output may nest —
   is only allowed as the last step, where sortedness and uniqueness
   still follow from the disjoint spans.  A single source node satisfies
   the invariant trivially; the ordered cursor checks that at runtime. *)
let ordered_chain (steps : (Ast.axis * Ast.node_test) list) : bool =
  let rec go = function
    | [] -> true
    | [ (axis, _) ] -> (
        match axis with
        | Ast.Child | Ast.Attribute_axis | Ast.Self | Ast.Descendant
        | Ast.Descendant_or_self ->
            true
        | _ -> false)
    | (axis, _) :: rest -> (
        match axis with
        | Ast.Child | Ast.Attribute_axis | Ast.Self -> go rest
        | _ -> false)
  in
  go steps

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)
(* ------------------------------------------------------------------ *)

let rows (p : P.t) = p.P.pest.P.est_rows
let cost (p : P.t) = p.P.pest.P.est_cost

(* Node ids, unique across every plan of the process (plans are made on
   several server domains at once); [mk] and the step record below are
   the only places planned nodes are made. *)
let next_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_id 1

let mk pop ~rows:r ~cost:c : P.t =
  {
    P.pid = fresh_id ();
    pop;
    pest = { P.est_rows = Float.max 0. r; est_cost = Float.max 0. c };
  }

(* [PCallStream] shapes: the argument chain the streaming implementations
   of Eval accept. *)
let is_steps (a : P.t) =
  match a.P.pop with P.PSteps _ -> true | _ -> false

let is_ordered_steps (a : P.t) =
  match a.P.pop with P.PSteps { ordered; _ } -> ordered | _ -> false

(* fn:count is answered from index range bounds only for a chain
   [P.index_probe] accepts. *)
let countable_steps (a : P.t) =
  match a.P.pop with
  | P.PSteps { steps; _ } -> Option.is_some (P.index_probe steps)
  | _ -> false

let steps_input_cost (a : P.t) =
  match a.P.pop with P.PSteps { input; _ } -> cost input | _ -> cost a

let call_rows (name : string) (pargs : P.t list) : float =
  match (name, pargs) with
  | ("fn:data" | "fn:distinct-values" | "fn:reverse" | "fn:unordered"), [ a ]
    ->
      rows a
  | _ -> 1.

let plan ?(config = default_config) (p : plan) : P.t =
  let rec go (p : plan) : P.t =
    match p with
    | Input -> mk P.PInput ~rows:1. ~cost:0.
    | Empty -> mk P.PEmpty ~rows:0. ~cost:0.
    | Scalar a -> mk (P.PScalar a) ~rows:1. ~cost:0.
    | Seq ps ->
        (* k items cost their sum plus k - 1, one unit per pairwise join *)
        let pps = List.map go ps in
        let sum f = List.fold_left (fun acc p -> acc +. f p) 0. pps in
        mk (P.PSeq pps) ~rows:(sum rows) ~cost:(sum cost +. float_of_int (List.length pps - 1))
    | Element (name, c) -> construct (fun x -> P.PElement (name, x)) c
    | Attribute (name, c) -> construct (fun x -> P.PAttribute (name, x)) c
    | Text c -> construct (fun x -> P.PText x) c
    | Comment c -> construct (fun x -> P.PComment x) c
    | Pi (target, c) -> construct (fun x -> P.PPi (target, x)) c
    | TreeJoin _ ->
        let steps, src = chain_steps p in
        let psrc = go src in
        let rsteps, out_rows, steps_cost =
          List.fold_left
            (fun (acc, r, c) (axis, test) ->
              let out = step_rows axis test r in
              let work =
                match P.index_step axis test with
                | Some _ -> out +. Float.log2 (out +. 2.)
                | None -> (r *. walk_factor axis) +. out
              in
              ( {
                  P.ps_id = fresh_id ();
                  ps_axis = axis;
                  ps_test = test;
                  ps_est = out;
                }
                :: acc,
                out,
                c +. work ))
            ([], rows psrc, 0.) steps
        in
        mk
          (P.PSteps
             {
               steps = List.rev rsteps;
               ordered = ordered_chain steps;
               input = psrc;
             })
          ~rows:out_rows
          ~cost:(cost psrc +. steps_cost)
    | Castable (tn, opt, input) -> scalar_of (fun x -> P.PCastable (tn, opt, x)) input
    | Cast (tn, opt, input) -> scalar_of (fun x -> P.PCast (tn, opt, x)) input
    | Validate input -> scalar_of (fun x -> P.PValidate x) input
    | TypeMatches (ty, input) -> scalar_of (fun x -> P.PTypeMatches (ty, x)) input
    | TypeAssert (ty, input) ->
        let pi = go input in
        mk (P.PTypeAssert (ty, pi)) ~rows:(rows pi) ~cost:(cost pi +. 1.)
    | Var q -> mk (P.PVar q) ~rows:1. ~cost:0.
    | Call (name, args) -> (
        let pargs = List.map go args in
        match (name, pargs) with
        | ("fn:exists" | "fn:empty"), [ a ] when is_steps a ->
            mk
              (P.PCallStream (P.SExists (String.equal name "fn:empty"), name, pargs))
              ~rows:1.
              ~cost:(steps_input_cost a +. 2.)
        | "fn:count", [ a ] when countable_steps a ->
            mk
              (P.PCallStream (P.SCount, name, pargs))
              ~rows:1.
              ~cost:(steps_input_cost a +. 2.)
        | "fn:subsequence", [ a; _; _ ] when is_ordered_steps a ->
            mk
              (P.PCallStream (P.SSubseq, name, pargs))
              ~rows:(Float.min (rows a) 10.)
              ~cost:(steps_input_cost a +. Float.min (rows a) 10.)
        | _ ->
            mk
              (P.PCall (name, pargs))
              ~rows:(call_rows name pargs)
              ~cost:(List.fold_left (fun c a -> c +. cost a) 1. pargs))
    | Cond (c, t, e) ->
        let pc = go c and pt = go t and pe = go e in
        mk (P.PCond (pc, pt, pe))
          ~rows:(Float.max (rows pt) (rows pe))
          ~cost:(cost pc +. Float.max (cost pt) (cost pe))
    | Quantified (q, v, source, body) ->
        let ps = go source and pb = go body in
        mk
          (P.PQuantified (q, v, ps, pb))
          ~rows:1.
          ~cost:((cost ps *. 0.5) +. (rows ps *. 0.5 *. Float.max 1. (cost pb)))
    | Parse uri ->
        let pu = go uri in
        mk (P.PParse pu) ~rows:1. ~cost:(cost pu +. 100.)
    | Serialize (uri, input) ->
        let pi = go input in
        mk (P.PSerialize (uri, pi)) ~rows:0. ~cost:(cost pi +. rows pi)
    | TupleConstruct fields ->
        let pfields = List.map (fun (q, fp) -> (q, go fp)) fields in
        mk (P.PTupleConstruct pfields) ~rows:1.
          ~cost:(List.fold_left (fun c (_, fp) -> c +. cost fp) 1. pfields)
    | FieldAccess q -> mk (P.PFieldAccess q) ~rows:1. ~cost:0.
    | Select (pred, input) ->
        let pi = go input and pp = go pred in
        mk (P.PSelect (pp, pi))
          ~rows:(Float.max 1. (rows pi *. sel_select))
          ~cost:(cost pi +. (rows pi *. Float.max 1. (cost pp)))
    | Product (a, b) ->
        let pa = go a and pb = go b in
        let out = rows pa *. rows pb in
        mk
          (P.PProduct (pa, pb))
          ~rows:out
          ~cost:(cost pa +. cost pb +. rows pb +. out)
    | Join (pred, a, b) -> plan_join None pred a b
    | LOuterJoin (q, pred, a, b) -> plan_join (Some q) pred a b
    | Map (dep, input) ->
        let pd = go dep and pi = go input in
        mk (P.PMap (pd, pi)) ~rows:(rows pi)
          ~cost:(cost pi +. (rows pi *. Float.max 1. (cost pd)))
    | OMap (q, input) ->
        let pi = go input in
        mk (P.POMap (q, pi)) ~rows:(Float.max 1. (rows pi)) ~cost:(cost pi +. rows pi)
    | MapConcat (dep, input) ->
        let pd = go dep and pi = go input in
        mk (P.PMapConcat (pd, pi))
          ~rows:(rows pi *. Float.max 1. (rows pd))
          ~cost:(cost pi +. (rows pi *. Float.max 1. (cost pd)))
    | OMapConcat (q, dep, input) ->
        let pd = go dep and pi = go input in
        mk
          (P.POMapConcat (q, pd, pi))
          ~rows:(Float.max (rows pi) (rows pi *. rows pd))
          ~cost:(cost pi +. (rows pi *. Float.max 1. (cost pd)))
    | MapIndex (q, input) ->
        let pi = go input in
        mk (P.PMapIndex (q, pi)) ~rows:(rows pi) ~cost:(cost pi +. rows pi)
    | MapIndexStep (q, input) ->
        let pi = go input in
        mk (P.PMapIndexStep (q, pi)) ~rows:(rows pi) ~cost:(cost pi +. rows pi)
    | OrderBy (specs, input) ->
        let pi = go input in
        let pspecs =
          List.map
            (fun s -> { P.pskey = go s.skey; psdir = s.sdir; psempty = s.sempty })
            specs
        in
        let n = rows pi in
        mk (P.POrderBy (pspecs, pi)) ~rows:n
          ~cost:(cost pi +. (n *. Float.log2 (n +. 2.)))
    | GroupBy (g, input) ->
        let pi = go input in
        let pg =
          {
            P.pg_agg = g.g_agg;
            pg_indices = g.g_indices;
            pg_nulls = g.g_nulls;
            pg_post = go g.g_post;
            pg_pre = go g.g_pre;
          }
        in
        let out =
          if g.g_indices = [] then 1. else Float.max 1. (rows pi *. 0.5)
        in
        mk (P.PGroupBy (pg, pi)) ~rows:out ~cost:(cost pi +. rows pi +. out)
    | MapFromItem (dep, input) ->
        let pd = go dep and pi = go input in
        mk (P.PMapFromItem (pd, pi)) ~rows:(rows pi) ~cost:(cost pi +. rows pi)
    | MapToItem (dep, input) ->
        let pd = go dep and pi = go input in
        mk (P.PMapToItem (pd, pi)) ~rows:(rows pi)
          ~cost:(cost pi +. (rows pi *. Float.max 1. (cost pd)))
    | MapSome (dep, input) ->
        let pd = go dep and pi = go input in
        mk (P.PMapSome (pd, pi)) ~rows:1.
          ~cost:((cost pi *. 0.5) +. (rows pi *. 0.5 *. Float.max 1. (cost pd)))
    | MapEvery (dep, input) ->
        let pd = go dep and pi = go input in
        mk (P.PMapEvery (pd, pi)) ~rows:1.
          ~cost:((cost pi *. 0.5) +. (rows pi *. 0.5 *. Float.max 1. (cost pd)))
  (* XML node constructors: one node out, content cost in. *)
  and construct wrap content =
    let pc = go content in
    mk (wrap pc) ~rows:1. ~cost:(cost pc +. 1.)
  and scalar_of wrap input =
    let pi = go input in
    mk (wrap pi) ~rows:1. ~cost:(cost pi +. 1.)
  (* Join planning: algorithm and build side. *)
  and plan_join (outer : field option) (pred : join_pred) (a : plan) (b : plan)
      : P.t =
    let pa = go a and pb = go b in
    let l = Float.max 1. (rows pa) and r = Float.max 1. (rows pb) in
    let base = cost pa +. cost pb in
    let out_of sel =
      let out = Float.max 1. (l *. r *. sel) in
      match outer with Some _ -> Float.max l out | None -> out
    in
    match pred with
    | Pred d ->
        let pd = go d in
        let out = out_of 0.5 in
        mk
          (P.PNestedLoop
             { outer; pred = P.PWholePred pd; left = pa; right = pb })
          ~rows:out
          ~cost:(base +. r +. (l *. r *. nl_pair_cost))
    | Split_pred { op; left_key; right_key } -> (
        let lk = go left_key and rk = go right_key in
        let out = out_of (join_selectivity op) in
        let nl_cost = base +. r +. (l *. r *. nl_pair_cost) in
        let hash_cost = base +. l +. r +. out in
        let sort_cost = base +. ((l +. r) *. Float.log2 (l +. r +. 2.)) +. out in
        let algorithm =
          match config.force_join with
          | Some P.Hash when op = Promotion.Eq -> P.Hash
          | Some P.Sort
            when op = Promotion.Lt || op = Promotion.Le || op = Promotion.Gt
                 || op = Promotion.Ge ->
              P.Sort
          | Some _ -> P.Nested_loop
          | None -> (
              match op with
              | Promotion.Eq -> if hash_cost <= nl_cost then P.Hash else P.Nested_loop
              | Promotion.Lt | Promotion.Le | Promotion.Gt | Promotion.Ge ->
                  if sort_cost <= nl_cost then P.Sort else P.Nested_loop
              | Promotion.Ne -> P.Nested_loop)
        in
        match algorithm with
        | P.Hash ->
            let build = if l < r then P.Build_left else P.Build_right in
            mk
              (P.PHashJoin
                 { outer; build; left_key = lk; right_key = rk; left = pa; right = pb })
              ~rows:out ~cost:hash_cost
        | P.Sort ->
            mk
              (P.PSortJoin
                 {
                   outer;
                   op;
                   left_key = lk;
                   right_key = rk;
                   left = pa;
                   right = pb;
                 })
              ~rows:out ~cost:sort_cost
        | P.Nested_loop ->
            mk
              (P.PNestedLoop
                 {
                   outer;
                   pred = P.PSplitPred { op; left_key = lk; right_key = rk };
                   left = pa;
                   right = pb;
                 })
              ~rows:out ~cost:nl_cost)
  in
  go p
