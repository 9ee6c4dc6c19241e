(* Logical optimization: the rewritings of Figure 5.

   Standard rules
     (remove map)      MapConcat{Op1}([])                  => Op1
     (insert product)  MapConcat{Op1}(Op2)                 => Product(Op2, Op1)
                       when Op1 is independent of IN
     (insert join)     Select{p}(Product(Op2, Op3))        => Join{p}(Op2, Op3)

   New rules
     (insert group-by)
       [x : C(MapToItem{Op2}(Op3))]
         => GroupBy[x,[],[null]]{C(IN)}{Op2}(OMap[null](Op3))
       where C is a linear context of item operators; the unary tuple
       constructor is a GroupBy whose whole input forms one partition.
     (map through group-by)
       MapConcat{GroupBy[x,inds,nulls]{Op1}{Op2}(Op3)}(Op4)
         => GroupBy[x,inds+ind1,nulls+null1]{Op1}{Op2}
              (OMapConcat[null1]{Op3}(MapIndexStep[ind1](Op4)))
     (remove duplicate null)
       GroupBy[..,nulls]{..}{..}(OMapConcat[n1]{OMap[n2](Op1)}(Op2))
         => GroupBy[..,nulls-n2]{..}{..}(OMapConcat[n1]{Op1}(Op2))
     (insert outer-join)
       OMapConcat[null]{Join{p}(IN, Op1)}(Op2)
         => LOuterJoin[null]{p}(Op2, Op1)

   The driver applies rules top-down (outer nesting levels first) to a
   fixpoint; see the note at rewrite_pass.  A separate pass
   (split_join_predicates) splits join predicates whose two sides touch
   disjoint inputs into independent key plans — the shape the Section 6
   hash/sort joins can execute.  Which algorithm actually runs (and on
   which build side) is decided later by the cost-based physical planner
   (Planner); the logical plan carries no algorithm annotation.
   Static_type.simplify removes provable dynamic type tests. *)

open Xqc_algebra
open Algebra
module Obs = Xqc_obs.Obs

(* Per-domain gensym state, reset at the start of every [rewrite]:
   generated field names — and therefore explain / EXPLAIN ANALYZE
   output — are deterministic across repeated [prepare]s, and compiles
   running concurrently on server worker domains cannot interleave each
   other's counters (a process-global ref here would make two parallel
   prepares of the same query produce different, possibly colliding,
   field names).  One rewrite runs at a time per domain, so domain-local
   state is exactly per-rewrite state.  Fields only need to be unique
   within one plan; separate plans (main, globals, function bodies)
   never share a layout. *)
let gensym : (int ref * (string, unit) Hashtbl.t) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (ref 0, Hashtbl.create 16))

let fresh_field base =
  let c, _ = Domain.DLS.get gensym in
  incr c;
  Printf.sprintf "%s~%d" base !c

(* Null flags whose defining OMap has been removed by (remove duplicate
   null); the enclosing GroupBy's null list is stripped of them in a
   follow-up step.  Field names are fresh within the rewrite, so a
   simple set is precise. *)
let dead_nulls () : (string, unit) Hashtbl.t = snd (Domain.DLS.get gensym)

(* ------------------------------------------------------------------ *)
(* (insert group-by): locate MapToItem under a linear item-op context.  *)
(* ------------------------------------------------------------------ *)

(* Try to decompose [p] as C(MapToItem{pre}(table_plan)) where the hole
   occurs once under item operators; returns the context as a function
   rebuilding C(hole) plus the MapToItem parts. *)
let rec find_maptoitem (p : plan) : ((plan -> plan) * plan * plan) option =
  match p with
  | MapToItem (pre, table_plan) -> Some ((fun h -> h), pre, table_plan)
  | TypeAssert (ty, inner) ->
      Option.map
        (fun (c, pre, t) -> ((fun h -> TypeAssert (ty, c h)), pre, t))
        (find_maptoitem inner)
  | Cast (tn, o, inner) ->
      Option.map
        (fun (c, pre, t) -> ((fun h -> Cast (tn, o, c h)), pre, t))
        (find_maptoitem inner)
  | Validate inner ->
      Option.map
        (fun (c, pre, t) -> ((fun h -> Validate (c h)), pre, t))
        (find_maptoitem inner)
  | TreeJoin (axis, test, inner) ->
      Option.map
        (fun (c, pre, t) -> ((fun h -> TreeJoin (axis, test, c h)), pre, t))
        (find_maptoitem inner)
  | Call (f, args) ->
      (* descend into the unique argument containing a MapToItem, provided
         the other arguments do not depend on IN *)
      let rec split before = function
        | [] -> None
        | arg :: after -> (
            match find_maptoitem arg with
            | Some (c, pre, t)
              when List.for_all (fun a -> not (uses_input a)) (before @ after) ->
                Some
                  ( (fun h -> Call (f, List.rev_append before (c h :: after))),
                    pre,
                    t )
            | Some _ | None -> split (arg :: before) after)
      in
      split [] args
  | _ -> None

(* ------------------------------------------------------------------ *)
(* (hoist nested flwor): locate a nested FLWOR block (a MapToItem over   *)
(* a table) anywhere under item operators sharing the same IN.  Clio-    *)
(* style queries nest FLWOR blocks inside element constructors in the    *)
(* return clause rather than in a let, so before (insert group-by) can   *)
(* fire the block must be hoisted into a fresh tuple field.              *)
(* ------------------------------------------------------------------ *)

let rec find_nested_flwor (p : plan) : ((plan -> plan) * plan) option =
  match p with
  | MapToItem _ -> Some ((fun h -> h), p)
  | Seq ps ->
      (* the first item, left to right, holding a nested block *)
      let rec first before = function
        | [] -> None
        | p :: after -> (
            match find_nested_flwor p with
            | Some (c, m) -> Some ((fun h -> Seq (List.rev_append before (c h :: after))), m)
            | None -> first (p :: before) after)
      in
      first [] ps
  | Element (n, a) ->
      Option.map (fun (c, m) -> ((fun h -> Element (n, c h)), m)) (find_nested_flwor a)
  | Attribute (n, a) ->
      Option.map (fun (c, m) -> ((fun h -> Attribute (n, c h)), m)) (find_nested_flwor a)
  | Text a -> Option.map (fun (c, m) -> ((fun h -> Text (c h)), m)) (find_nested_flwor a)
  | Comment a ->
      Option.map (fun (c, m) -> ((fun h -> Comment (c h)), m)) (find_nested_flwor a)
  | Pi (n, a) ->
      Option.map (fun (c, m) -> ((fun h -> Pi (n, c h)), m)) (find_nested_flwor a)
  | TreeJoin (ax, t, a) ->
      Option.map
        (fun (c, m) -> ((fun h -> TreeJoin (ax, t, c h)), m))
        (find_nested_flwor a)
  | TypeAssert (ty, a) ->
      Option.map
        (fun (c, m) -> ((fun h -> TypeAssert (ty, c h)), m))
        (find_nested_flwor a)
  | TypeMatches (ty, a) ->
      Option.map
        (fun (c, m) -> ((fun h -> TypeMatches (ty, c h)), m))
        (find_nested_flwor a)
  | Cast (tn, o, a) ->
      Option.map (fun (c, m) -> ((fun h -> Cast (tn, o, c h)), m)) (find_nested_flwor a)
  | Castable (tn, o, a) ->
      Option.map
        (fun (c, m) -> ((fun h -> Castable (tn, o, c h)), m))
        (find_nested_flwor a)
  | Validate a ->
      Option.map (fun (c, m) -> ((fun h -> Validate (c h)), m)) (find_nested_flwor a)
  | Call (f, args) ->
      let rec split before = function
        | [] -> None
        | arg :: after -> (
            match find_nested_flwor arg with
            | Some (c, m) ->
                Some ((fun h -> Call (f, List.rev_append before (c h :: after))), m)
            | None -> split (arg :: before) after)
      in
      split [] args
  | Cond (c0, t, e) -> (
      (* only the condition shares IN unconditionally; hoisting from a
         branch would evaluate it even when the branch is not taken, which
         can turn a guarded expression into an error *)
      match find_nested_flwor c0 with
      | Some (c, m) -> Some ((fun h -> Cond (c h, t, e)), m)
      | None -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* (insert outer-join), generalized: inside an OMapConcat dependent,    *)
(* the Join over IN may be buried under a chain of row- and emptiness-  *)
(* preserving operators (MapIndexStep, GroupBy, the left input of a     *)
(* LOuterJoin) left behind by inner unnesting rounds.  The chain can be *)
(* pulled out of the OMapConcat wholesale: each chain operator is       *)
(* row-wise or partition-wise, and the partition criteria of any chain  *)
(* GroupBy come from a chain MapIndexStep, whose global renumbering     *)
(* keeps partitions of different outer tuples apart (this is the reason *)
(* MapIndexStep, which does not promise consecutive integers, exists).  *)
(* ------------------------------------------------------------------ *)

type chain = {
  ch_context : plan -> plan;  (** rebuild the chain around a replacement *)
  ch_right : plan;  (** the independent right input of the buried join *)
  ch_pred : plan option;  (** predicate collected from the buried Join/Selects *)
  ch_mis_below : field list;  (** MapIndexStep fields introduced below *)
  ch_introduced : field list;  (** all fields the chain adds to tuples *)
}

let and_pred (a : plan option) (b : plan) : plan option =
  match a with
  | None -> Some b
  | Some a -> Some (Cond (a, Call ("fn:boolean", [ b ]), Scalar (Xqc_xml.Atomic.Boolean false)))

let rec find_input_join (d : plan) : chain option =
  match d with
  | Join (Pred jp, Input, x) when not (uses_input x) ->
      Some
        {
          ch_context = (fun h -> h);
          ch_right = x;
          ch_pred = Some jp;
          ch_mis_below = [];
          ch_introduced = [];
        }
  | Product (Input, x) when not (uses_input x) ->
      Some
        {
          ch_context = (fun h -> h);
          ch_right = x;
          ch_pred = None;
          ch_mis_below = [];
          ch_introduced = [];
        }
  | Select (p, inner) -> (
      (* fuse the selection into the join predicate, provided it reads no
         chain-introduced field (so it is evaluable at the join) *)
      match find_input_join inner with
      | Some ch
        when (not (uses_bare_input p))
             && List.for_all
                  (fun f -> not (List.mem f ch.ch_introduced))
                  (input_fields p) ->
          Some { ch with ch_pred = and_pred ch.ch_pred p }
      | Some _ | None -> None)
  | MapIndexStep (q, inner) ->
      Option.map
        (fun ch ->
          {
            ch with
            ch_context = (fun h -> MapIndexStep (q, ch.ch_context h));
            ch_mis_below = q :: ch.ch_mis_below;
            ch_introduced = q :: ch.ch_introduced;
          })
        (find_input_join inner)
  | GroupBy (g, inner) -> (
      match find_input_join inner with
      | Some ch
        when g.g_indices <> []
             && List.for_all (fun q -> List.mem q ch.ch_mis_below) g.g_indices ->
          Some
            {
              ch with
              ch_context = (fun h -> GroupBy (g, ch.ch_context h));
              ch_introduced = g.g_agg :: ch.ch_introduced;
            }
      | Some _ | None -> None)
  | LOuterJoin (q2, pred2, left, right) when not (uses_input right) ->
      Option.map
        (fun ch ->
          {
            ch with
            ch_context = (fun h -> LOuterJoin (q2, pred2, ch.ch_context h, right));
            ch_introduced = (q2 :: output_fields right) @ ch.ch_introduced;
          })
        (find_input_join left)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* One rewriting step at a single node                                  *)
(* ------------------------------------------------------------------ *)

(* Each rule application is labelled with its (Figure 5) rule name so
   the driver can trace firings. *)
let rewrite_at (p : plan) : (string * plan) option =
  match p with
  (* (remove map) — also for the top-level MapToItem over the unit table *)
  | MapConcat (dep, TupleConstruct []) when not (uses_input dep) ->
      Some ("remove map", dep)
  (* (hoist nested flwor) out of a return clause into a tuple field *)
  | MapToItem (dep, input) -> (
      match find_nested_flwor dep with
      | Some (context, m) ->
          let x = fresh_field "hoist" in
          Some
            ( "hoist nested flwor",
              MapToItem
                (context (FieldAccess x), MapConcat (TupleConstruct [ (x, m) ], input)) )
      | None -> None)
  (* (insert group-by) — only for correlated nested blocks; uncorrelated
     ones are better served by (insert product) at the enclosing MapConcat *)
  | TupleConstruct [ (x, field_plan) ] when uses_input field_plan -> (
      match find_maptoitem field_plan with
      | Some (context, pre, table_plan) ->
          let null = fresh_field "null" in
          Some
            ( "insert group-by",
              GroupBy
                ( {
                    g_agg = x;
                    g_indices = [];
                    g_nulls = [ null ];
                    g_post = context Input;
                    g_pre = pre;
                  },
                  OMap (null, table_plan) ) )
      | None -> None)
  (* (hoist nested flwor) out of a GroupBy pre-grouping plan: multi-level
     nesting lands in the pre plan after one round of unnesting *)
  | GroupBy (g, input) when Option.is_some (find_nested_flwor g.g_pre) -> (
      match find_nested_flwor g.g_pre with
      | Some (context, m) ->
          let y = fresh_field "hoist" in
          Some
            ( "hoist nested flwor from group-by pre",
              GroupBy
                ( { g with g_pre = context (FieldAccess y) },
                  MapConcat (TupleConstruct [ (y, m) ], input) ) )
      | None -> None)
  (* (push product through map-concat): lets the product float out of a
     dependent join whose dependent plan only reads right-hand fields *)
  | MapConcat (dep, Product (a, b))
    when (not (uses_bare_input dep))
         && List.for_all (fun f -> List.mem f (output_fields b)) (input_fields dep) ->
      Some ("push product through map-concat", Product (a, MapConcat (dep, b)))
  (* (map through group-by) *)
  | MapConcat (GroupBy (g, op3), op4) ->
      let ind1 = fresh_field "index" in
      let null1 = fresh_field "null" in
      Some
        ( "map through group-by",
          GroupBy
            ( {
                g with
                g_indices = g.g_indices @ [ ind1 ];
                g_nulls = g.g_nulls @ [ null1 ];
              },
              OMapConcat (null1, op3, MapIndexStep (ind1, op4)) ) )
  (* (remove duplicate null), first half: the inner OMap is redundant —
     when its input is empty the enclosing OMapConcat raises its own flag *)
  | OMapConcat (n1, OMap (n2, op1), op2) ->
      Hashtbl.replace (dead_nulls ()) n2 ();
      Some ("remove duplicate null", OMapConcat (n1, op1, op2))
  (* (remove duplicate null), second half: strip removed flags from the
     GroupBy's null list *)
  | GroupBy (g, input)
    when List.exists (fun n -> Hashtbl.mem (dead_nulls ()) n) g.g_nulls ->
      Some
        ( "remove duplicate null",
          GroupBy
            ( { g with
                g_nulls =
                  List.filter (fun n -> not (Hashtbl.mem (dead_nulls ()) n)) g.g_nulls
              },
              input ) )
  (* (insert product) *)
  | MapConcat (dep, input) when not (uses_input dep) ->
      Some ("insert product", Product (input, dep))
  (* (insert join) *)
  | Select (pred, Product (a, b)) ->
      Some ("insert join", Join (Pred pred, a, b))
  (* (select / map-index-step commutation): sound for MapIndexStep, whose
     contract is only distinct ascending integers *)
  | Select (pred, MapIndexStep (q, input))
    when not (List.mem q (input_fields pred)) ->
      Some ("select/map-index-step commutation", MapIndexStep (q, Select (pred, input)))
  (* (insert outer-join), through a chain of row-preserving operators,
     fusing chain selections into the join predicate *)
  | OMapConcat (null, dep, op2) -> (
      match find_input_join dep with
      | Some ch ->
          let pred =
            match ch.ch_pred with
            | Some p -> Pred p
            | None -> Pred (Scalar (Xqc_xml.Atomic.Boolean true))
          in
          Some
            ( "insert outer-join",
              ch.ch_context (LOuterJoin (null, pred, op2, ch.ch_right)) )
      | None -> None)
  | _ -> None

(* Rules are applied top-down: a node is rewritten before its children.
   This matters for multi-level nesting — the outer block must be hoisted
   and grouped first so that inner blocks land in the GroupBy's pre plan,
   from which (hoist nested flwor) lifts them into the join pipeline; a
   bottom-up order would unnest inner levels in place and bury their
   joins inside dependent sub-plans where the outer-join rule cannot see
   them. *)
let rec rewrite_pass ?trace (p : plan) : plan * bool =
  match rewrite_at p with
  | Some (rule, p') ->
      (match trace with Some t -> Obs.fire t rule | None -> ());
      (p', true)
  | None ->
      let changed = ref false in
      let p =
        map_children
          (fun c ->
            let c', ch = rewrite_pass ?trace c in
            if ch then changed := true;
            c')
          p
      in
      (p, !changed)

let max_passes = 400

let rewrite ?trace (p : plan) : plan =
  let c, dn = Domain.DLS.get gensym in
  c := 0;
  Hashtbl.reset dn;
  let rec fix p n =
    if n = 0 then p
    else begin
      let p', changed = rewrite_pass ?trace p in
      (match trace with Some t -> t.Obs.rw_passes <- t.Obs.rw_passes + 1 | None -> ());
      if changed then fix p' (n - 1) else p'
    end
  in
  fix p max_passes

(* ------------------------------------------------------------------ *)
(* Join-predicate splitting (Section 6)                                *)
(* ------------------------------------------------------------------ *)

open Xqc_types

let mirror_op = function
  | Promotion.Eq -> Promotion.Eq
  | Promotion.Ne -> Promotion.Ne
  | Promotion.Lt -> Promotion.Gt
  | Promotion.Le -> Promotion.Ge
  | Promotion.Gt -> Promotion.Lt
  | Promotion.Ge -> Promotion.Le

let op_of_name = function
  | "op:general-eq" -> Some Promotion.Eq
  | "op:general-ne" -> Some Promotion.Ne
  | "op:general-lt" -> Some Promotion.Lt
  | "op:general-le" -> Some Promotion.Le
  | "op:general-gt" -> Some Promotion.Gt
  | "op:general-ge" -> Some Promotion.Ge
  | _ -> None

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

(* Split a Pred into a Split_pred when it is a general comparison whose
   sides read disjoint halves of the concatenated tuple. *)
let split_pred (pred : join_pred) (left : plan) (right : plan) : join_pred option =
  match pred with
  | Split_pred _ -> Some pred
  | Pred p -> (
      let p = match p with Call ("fn:boolean", [ inner ]) -> inner | other -> other in
      match p with
      | Call (name, [ l; r ]) -> (
          match op_of_name name with
          | None -> None
          | Some op ->
              let fl = input_fields l and fr = input_fields r in
              let fa = output_fields left and fb = output_fields right in
              if subset fl fa && subset fr fb then
                Some (Split_pred { op; left_key = l; right_key = r })
              else if subset fl fb && subset fr fa then
                Some (Split_pred { op = mirror_op op; left_key = r; right_key = l })
              else None)
      | _ -> None)

(* The rule names record which Section 6 algorithm the split enables; the
   cost-based planner makes the final call (and may still pick a nested
   loop when the inputs are tiny). *)
let rec split_join_predicates ?trace (p : plan) : plan =
  let p = map_children (split_join_predicates ?trace) p in
  let note op =
    match trace with
    | None -> ()
    | Some t ->
        Obs.fire t
          (match op with
          | Promotion.Eq -> "choose hash join"
          | Promotion.Lt | Promotion.Le | Promotion.Gt | Promotion.Ge ->
              "choose sort join"
          | Promotion.Ne -> "split nested-loop predicate")
  in
  match p with
  | Join ((Pred _ as pred), a, b) -> (
      match split_pred pred a b with
      | Some (Split_pred { op; _ } as pred') ->
          note op;
          Join (pred', a, b)
      | Some _ | None -> p)
  | LOuterJoin (q, (Pred _ as pred), a, b) -> (
      match split_pred pred a b with
      | Some (Split_pred { op; _ } as pred') ->
          note op;
          LOuterJoin (q, pred', a, b)
      | Some _ | None -> p)
  | other -> other

(* ------------------------------------------------------------------ *)

type options = {
  unnest : bool;  (** apply the Figure 5 rewritings *)
  split_preds : bool;  (** split disjoint join predicates (Section 6) *)
  static_types : bool;  (** type-driven simplification (Static_type) *)
}

let default_options = { unnest = true; split_preds = true; static_types = true }

let optimize ?(options = default_options) ?trace (p : plan) : plan =
  let p = if options.unnest then rewrite ?trace p else p in
  let p = if options.static_types then Static_type.simplify p else p in
  let p = if options.split_preds then split_join_predicates ?trace p else p in
  p
