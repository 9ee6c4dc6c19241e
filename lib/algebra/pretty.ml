(* Plan printer in the paper's notation: Op[params]{dependents}(inputs),
   indented one operator per line as in the paper's plan listings; and
   the one renderer of physical plans, which draws EXPLAIN, EXPLAIN
   ANALYZE and the stats-JSON plan trees from the same walk. *)

open Xqc_xml
open Xqc_types
open Xqc_frontend
open Algebra
module Obs = Xqc_obs.Obs

let pred_params = function
  | Pred _ -> ""
  | Split_pred { op; _ } -> Printf.sprintf "<%s>" (Promotion.cmp_op_name op)

let dir_name = function Ast.Ascending -> "asc" | Ast.Descending -> "desc"

let rec pp ?(indent = 0) ppf (p : plan) =
  let open Format in
  let pad = String.make indent ' ' in
  let line fmt = fprintf ppf ("%s" ^^ fmt) pad in
  let sub ppf p = pp ~indent:(indent + 2) ppf p in
  let subs ppf ps =
    List.iteri
      (fun i p ->
        if i > 0 then fprintf ppf ",@,";
        sub ppf p)
      ps
  in
  let op name params deps inputs =
    line "%s" name;
    if params <> "" then fprintf ppf "[%s]" params;
    (match deps with
    | [] -> ()
    | _ ->
        fprintf ppf "@,%s{@,%a@,%s}" pad subs deps pad);
    match inputs with
    | [] -> if deps = [] then fprintf ppf "()"
    | _ -> fprintf ppf "@,%s(@,%a@,%s)" pad subs inputs pad
  in
  match p with
  | Input -> line "IN"
  | Empty -> line "Empty()"
  | Scalar a -> line "Scalar[%s]()" (Atomic.to_string a)
  | Seq (a, b) -> op "Sequence" "" [] [ a; b ]
  | Element (n, c) -> op "Element" n [] [ c ]
  | Attribute (n, c) -> op "Attribute" n [] [ c ]
  | Text c -> op "Text" "" [] [ c ]
  | Comment c -> op "Comment" "" [] [ c ]
  | Pi (n, c) -> op "PI" n [] [ c ]
  | TreeJoin (axis, test, i) ->
      op "TreeJoin"
        (Printf.sprintf "%s::%s" (Ast.axis_to_string axis) (Ast.node_test_to_string test))
        [] [ i ]
  | Castable (tn, _, i) -> op "Castable" (Atomic.type_name_to_string tn) [] [ i ]
  | Cast (tn, _, i) -> op "Cast" (Atomic.type_name_to_string tn) [] [ i ]
  | Validate i -> op "Validate" "" [] [ i ]
  | TypeMatches (ty, i) -> op "TypeMatches" (Seqtype.to_string ty) [] [ i ]
  | TypeAssert (ty, i) -> op "TypeAssert" (Seqtype.to_string ty) [] [ i ]
  | Var q -> line "Var[%s]()" q
  | Call (f, args) -> op "Call" f [] args
  | Cond (c, t, e) -> op "Cond" "" [ t; e ] [ c ]
  | Quantified (q, v, s, b) ->
      op
        (match q with Ast.Some_quant -> "Some" | Ast.Every_quant -> "Every")
        v [ b ] [ s ]
  | Parse i -> op "Parse" "" [] [ i ]
  | Serialize (uri, i) -> op "Serialize" uri [] [ i ]
  | TupleConstruct [] -> line "[]"
  | TupleConstruct fields ->
      line "[%s]" (String.concat ";" (List.map fst fields));
      fprintf ppf "@,%s(@,%a@,%s)" pad subs (List.map snd fields) pad
  | FieldAccess q -> line "IN#%s" q
  | Select (d, i) -> op "Select" "" [ d ] [ i ]
  | Product (a, b) -> op "Product" "" [] [ a; b ]
  | Join (pred, a, b) ->
      op (Printf.sprintf "Join%s" (pred_params pred)) "" (pred_plans pred) [ a; b ]
  | LOuterJoin (q, pred, a, b) ->
      op
        (Printf.sprintf "LOuterJoin%s" (pred_params pred))
        q (pred_plans pred) [ a; b ]
  | Map (d, i) -> op "Map" "" [ d ] [ i ]
  | OMap (q, i) -> op "OMap" q [] [ i ]
  | MapConcat (d, i) -> op "MapConcat" "" [ d ] [ i ]
  | OMapConcat (q, d, i) -> op "OMapConcat" q [ d ] [ i ]
  | MapIndex (q, i) -> op "MapIndex" q [] [ i ]
  | MapIndexStep (q, i) -> op "MapIndexStep" q [] [ i ]
  | OrderBy (specs, i) ->
      op "OrderBy"
        (String.concat "," (List.map (fun s -> dir_name s.sdir) specs))
        (List.map (fun s -> s.skey) specs)
        [ i ]
  | GroupBy (g, i) ->
      op "GroupBy"
        (Printf.sprintf "%s,[%s],[%s]" g.g_agg
           (String.concat ";" g.g_indices)
           (String.concat ";" g.g_nulls))
        [ g.g_post; g.g_pre ] [ i ]
  | MapFromItem (d, i) -> op "MapFromItem" "" [ d ] [ i ]
  | MapToItem (d, i) -> op "MapToItem" "" [ d ] [ i ]
  | MapSome (d, i) -> op "MapSome" "" [ d ] [ i ]
  | MapEvery (d, i) -> op "MapEvery" "" [ d ] [ i ]

and pred_plans = function
  | Pred p -> [ p ]
  | Split_pred { left_key; right_key; _ } -> [ left_key; right_key ]

let to_string (p : plan) : string =
  Format.asprintf "@[<v>%a@]" (pp ~indent:0) p

(* Count of operators in a plan, used in tests and explain output. *)
let rec size (p : plan) : int =
  1 + List.fold_left (fun acc c -> acc + size c) 0 (children_of p)

(* Collect the multiset of operator names, used by rewriting tests to
   assert e.g. that the optimized plan contains a GroupBy and an
   LOuterJoin and no MapConcat. *)
let rec operator_names (p : plan) : string list =
  let name =
    match p with
    | Input -> "IN"
    | Empty -> "Empty"
    | Scalar _ -> "Scalar"
    | Seq _ -> "Sequence"
    | Element _ -> "Element"
    | Attribute _ -> "Attribute"
    | Text _ -> "Text"
    | Comment _ -> "Comment"
    | Pi _ -> "PI"
    | TreeJoin _ -> "TreeJoin"
    | Castable _ -> "Castable"
    | Cast _ -> "Cast"
    | Validate _ -> "Validate"
    | TypeMatches _ -> "TypeMatches"
    | TypeAssert _ -> "TypeAssert"
    | Var _ -> "Var"
    | Call _ -> "Call"
    | Cond _ -> "Cond"
    | Quantified _ -> "Quantified"
    | Parse _ -> "Parse"
    | Serialize _ -> "Serialize"
    | TupleConstruct _ -> "TupleConstruct"
    | FieldAccess _ -> "FieldAccess"
    | Select _ -> "Select"
    | Product _ -> "Product"
    | Join _ -> "Join"
    | LOuterJoin _ -> "LOuterJoin"
    | Map _ -> "Map"
    | OMap _ -> "OMap"
    | MapConcat _ -> "MapConcat"
    | OMapConcat _ -> "OMapConcat"
    | MapIndex _ -> "MapIndex"
    | MapIndexStep _ -> "MapIndexStep"
    | OrderBy _ -> "OrderBy"
    | GroupBy _ -> "GroupBy"
    | MapFromItem _ -> "MapFromItem"
    | MapToItem _ -> "MapToItem"
    | MapSome _ -> "MapSome"
    | MapEvery _ -> "MapEvery"
  in
  name :: List.concat_map operator_names (children_of p)

(* ------------------------------------------------------------------ *)
(* Physical plans                                                      *)
(* ------------------------------------------------------------------ *)

let cmp_tag op = Printf.sprintf "<%s>" (Promotion.cmp_op_name op)

let pstep_label (s : Physical.pstep) : string =
  Printf.sprintf "%s[%s::%s]"
    (match Physical.index_step s.Physical.ps_axis s.Physical.ps_test with
    | Some _ -> "IndexScan"
    | None -> "TreeWalk")
    (Ast.axis_to_string s.Physical.ps_axis)
    (Ast.node_test_to_string s.Physical.ps_test)

let stream_call_tag (sc : Physical.stream_call) : string =
  match sc with
  | Physical.SExists _ -> "early-exit"
  | Physical.SCount -> "index-count"
  | Physical.SSubseq -> "prefix"

let outer_tag = function
  | None -> ""
  | Some q -> Printf.sprintf "[outer %s]" q

(* One-line label of a physical operator.  Mirror operators reuse the
   logical labels (so instrumented cardinality reports stay comparable
   across the two algebras); the strategy-carrying operators name their
   choice: PHashJoin<eq>[build=left], ... *)
let physical_label (p : Physical.t) : string =
  let open Physical in
  match p.pop with
  | PInput -> "IN"
  | PEmpty -> "Empty"
  | PScalar a -> Printf.sprintf "Scalar[%s]" (Atomic.to_string a)
  | PSeq _ -> "Sequence"
  | PElement (n, _) -> Printf.sprintf "Element[%s]" n
  | PAttribute (n, _) -> Printf.sprintf "Attribute[%s]" n
  | PText _ -> "Text"
  | PComment _ -> "Comment"
  | PPi (n, _) -> Printf.sprintf "PI[%s]" n
  | PSteps { steps; ordered; _ } ->
      Printf.sprintf "Steps[%d%s]" (List.length steps)
        (if ordered then ",ordered" else "")
  | PCastable (tn, _, _) ->
      Printf.sprintf "Castable[%s]" (Atomic.type_name_to_string tn)
  | PCast (tn, _, _) -> Printf.sprintf "Cast[%s]" (Atomic.type_name_to_string tn)
  | PValidate _ -> "Validate"
  | PTypeMatches (ty, _) ->
      Printf.sprintf "TypeMatches[%s]" (Seqtype.to_string ty)
  | PTypeAssert (ty, _) -> Printf.sprintf "TypeAssert[%s]" (Seqtype.to_string ty)
  | PVar q -> Printf.sprintf "Var[%s]" q
  | PCall (f, _) -> Printf.sprintf "Call[%s]" f
  | PCallStream (sc, f, _) ->
      Printf.sprintf "StreamCall[%s,%s]" f (stream_call_tag sc)
  | PCond _ -> "Cond"
  | PQuantified (q, v, _, _) ->
      Printf.sprintf "%s[%s]"
        (match q with Ast.Some_quant -> "Some" | Ast.Every_quant -> "Every")
        v
  | PParse _ -> "Parse"
  | PSerialize (uri, _) -> Printf.sprintf "Serialize[%s]" uri
  | PTupleConstruct [] -> "[]"
  | PTupleConstruct fields ->
      Printf.sprintf "[%s]" (String.concat ";" (List.map fst fields))
  | PFieldAccess q -> Printf.sprintf "IN#%s" q
  | PSelect _ -> "Select"
  | PProduct _ -> "Product"
  | PNestedLoop { outer; pred; _ } ->
      Printf.sprintf "PNestedLoop%s%s"
        (match pred with PWholePred _ -> "" | PSplitPred { op; _ } -> cmp_tag op)
        (outer_tag outer)
  | PHashJoin { outer; build; _ } ->
      Printf.sprintf "PHashJoin<eq>[build=%s]%s" (build_side_name build)
        (outer_tag outer)
  | PSortJoin { outer; op; _ } ->
      Printf.sprintf "PSortJoin%s%s" (cmp_tag op) (outer_tag outer)
  | PMaterialize _ -> "Materialize"
  | PMap _ -> "Map"
  | POMap (q, _) -> Printf.sprintf "OMap[%s]" q
  | PMapConcat _ -> "MapConcat"
  | POMapConcat (q, _, _) -> Printf.sprintf "OMapConcat[%s]" q
  | PMapIndex (q, _) -> Printf.sprintf "MapIndex[%s]" q
  | PMapIndexStep (q, _) -> Printf.sprintf "MapIndexStep[%s]" q
  | POrderBy (specs, _) ->
      Printf.sprintf "OrderBy[%s]"
        (String.concat "," (List.map (fun s -> dir_name s.psdir) specs))
  | PGroupBy (g, _) ->
      Printf.sprintf "GroupBy[%s,[%s],[%s]]" g.pg_agg
        (String.concat ";" g.pg_indices)
        (String.concat ";" g.pg_nulls)
  | PMapFromItem _ -> "MapFromItem"
  | PMapToItem _ -> "MapToItem"
  | PMapSome _ -> "MapSome"
  | PMapEvery _ -> "MapEvery"

let est_num (x : float) : string =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.1f" x

(* How an operator moves tuples: streamed operators are lazy cursors
   forwarding tuples as the consumer pulls, blocking ones materialize
   their input or build side before producing output.  Item-level XML
   operators have no mode. *)
let mode_of (pop : Physical.pop) : string option =
  let open Physical in
  match pop with
  | PSelect _ | PMap _ | POMap _ | PMapConcat _
  | POMapConcat _ | PMapIndex _ | PMapIndexStep _ | PMapFromItem _
  | PTupleConstruct _ | PMapSome _ | PMapEvery _ ->
      Some "streamed"
  | POrderBy _ | PGroupBy _ | PNestedLoop _ | PHashJoin _ | PSortJoin _
  | PProduct _ | PMapToItem _ | PMaterialize _ ->
      Some "blocking"
  | _ -> None

type row = {
  label : string;
  est_rows : float;
  cost : float option;
  mode : string option;
  join : bool;
  stats : Obs.op_stats option;
}

(* The one walk over a physical plan, bottom-up in [Physical.children]
   order; a Steps node's steps come first among its children.  With a
   profile every row carries its operator's statistics (a zero record
   for one that never ran). *)
let fold_rows ?(profile : Obs.collector option) (node : row -> 'a list -> 'a)
    (p : Physical.t) : 'a =
  let stats id =
    Option.map
      (fun c -> Option.value (Hashtbl.find_opt c.Obs.co_plans id) ~default:(Obs.op_stats ()))
      profile
  in
  let step (s : Physical.pstep) =
    node
      {
        label = pstep_label s;
        est_rows = s.Physical.ps_est;
        cost = None;
        mode = None;
        join = false;
        stats = stats s.Physical.ps_id;
      }
      []
  in
  let rec go (p : Physical.t) =
    let steps =
      match p.Physical.pop with
      | Physical.PSteps { steps; _ } -> List.map step steps
      | _ -> []
    in
    node
      {
        label = physical_label p;
        est_rows = p.Physical.pest.Physical.est_rows;
        cost = Some p.Physical.pest.Physical.est_cost;
        mode = mode_of p.Physical.pop;
        join =
          (match p.Physical.pop with
          | Physical.PNestedLoop _ | Physical.PHashJoin _ | Physical.PSortJoin _ -> true
          | _ -> false);
        stats = stats p.Physical.pid;
      }
      (steps @ List.map go (Physical.children p))
  in
  go p

let rows ?profile (p : Physical.t) : row list =
  fold_rows ?profile (fun r kids -> r :: List.concat kids) p

let cardinality (st : Obs.op_stats) =
  match (st.Obs.op_tuples, st.Obs.op_items) with
  | 0, 0 -> "out=0"
  | t, 0 -> Printf.sprintf "tuples=%d" t
  | 0, i -> Printf.sprintf "items=%d" i
  | t, i -> Printf.sprintf "tuples=%d items=%d" t i

(* One EXPLAIN line: the label with the planner's estimated output
   cardinality and cumulative cost, plus — profiled — calls, inclusive
   time, actual cardinality, the streaming mode and the join counters. *)
let row_line (r : row) : string =
  let est =
    Printf.sprintf "est_rows=%s%s" (est_num r.est_rows)
      (match r.cost with Some c -> " cost=" ^ est_num c | None -> "")
  in
  match r.stats with
  | None -> Printf.sprintf "%s  (%s)" r.label est
  | Some st ->
      Printf.sprintf "%s  (%s calls=%d time=%.3fms %s%s)%s" r.label est
        st.Obs.op_calls (Obs.ms st.Obs.op_secs) (cardinality st)
        (match r.mode with Some m -> " " ^ m | None -> "")
        (if r.join then "  [" ^ Obs.join_to_string st ^ "]" else "")

let plan_to_string ?profile (p : Physical.t) : string =
  fold_rows ?profile
    (fun r kids -> row_line r :: List.concat_map (List.map (fun l -> "  " ^ l)) kids)
    p
  |> List.map (fun l -> l ^ "\n")
  |> String.concat ""

let plan_to_json (profile : Obs.collector) (p : Physical.t) : Obs.json =
  fold_rows ~profile
    (fun r kids ->
      let st = Option.value r.stats ~default:(Obs.op_stats ()) in
      Obs.Obj
        ([
           ("op", Obs.Str r.label);
           ("calls", Obs.Int st.Obs.op_calls);
           ("time_ms", Obs.Float (Obs.ms st.Obs.op_secs));
           ("tuples", Obs.Int st.Obs.op_tuples);
           ("items", Obs.Int st.Obs.op_items);
           ("estimated_rows", Obs.Float r.est_rows);
           ("actual_rows", Obs.Int (st.Obs.op_tuples + st.Obs.op_items));
         ]
        @ (match r.mode with Some m -> [ ("mode", Obs.Str m) ] | None -> [])
        @ (if r.join then [ ("join", Obs.join_to_json st) ] else [])
        @ match kids with [] -> [] | _ -> [ ("children", Obs.Arr kids) ]))
    p

let query_plans (q : Physical.query) : (string * Physical.t) list =
  List.map (fun f -> ("function " ^ f.Physical.pf_name, f.Physical.pf_body)) q.Physical.pfunctions
  @ List.map (fun (v, p) -> ("global $" ^ v, p)) q.Physical.pglobals
  @ [ ("main", q.Physical.pmain) ]

let query_to_string (q : Physical.query) : string =
  match query_plans q with
  | [ (_, p) ] -> plan_to_string p
  | plans ->
      String.concat "" (List.map (fun (name, p) -> name ^ ":\n" ^ plan_to_string p) plans)

let plans_to_json (profile : Obs.collector) (q : Physical.query) : Obs.json =
  Obs.Arr
    (List.map
       (fun (name, p) -> Obs.Obj [ ("name", Obs.Str name); ("plan", plan_to_json profile p) ])
       (query_plans q))
