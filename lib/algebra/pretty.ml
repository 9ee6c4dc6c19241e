(* Plan printer in the paper's notation: Op[params]{dependents}(inputs),
   indented one operator per line as in the paper's plan listings. *)

open Xqc_xml
open Xqc_types
open Xqc_frontend
open Algebra

let pred_params = function
  | Pred _ -> ""
  | Split_pred { op; _ } -> Printf.sprintf "<%s>" (Promotion.cmp_op_name op)

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
        (String.concat ","
           (List.map
              (fun s ->
                match s.sdir with Ast.Ascending -> "asc" | Ast.Descending -> "desc")
              specs))
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

(* One-line operator label — the first line of [pp] without children;
   used to label the nodes of an instrumented (EXPLAIN ANALYZE) plan. *)
let node_label (p : plan) : string =
  match p with
  | Input -> "IN"
  | Empty -> "Empty"
  | Scalar a -> Printf.sprintf "Scalar[%s]" (Atomic.to_string a)
  | Seq _ -> "Sequence"
  | Element (n, _) -> Printf.sprintf "Element[%s]" n
  | Attribute (n, _) -> Printf.sprintf "Attribute[%s]" n
  | Text _ -> "Text"
  | Comment _ -> "Comment"
  | Pi (n, _) -> Printf.sprintf "PI[%s]" n
  | TreeJoin (axis, test, _) ->
      Printf.sprintf "TreeJoin[%s::%s]" (Ast.axis_to_string axis)
        (Ast.node_test_to_string test)
  | Castable (tn, _, _) -> Printf.sprintf "Castable[%s]" (Atomic.type_name_to_string tn)
  | Cast (tn, _, _) -> Printf.sprintf "Cast[%s]" (Atomic.type_name_to_string tn)
  | Validate _ -> "Validate"
  | TypeMatches (ty, _) -> Printf.sprintf "TypeMatches[%s]" (Seqtype.to_string ty)
  | TypeAssert (ty, _) -> Printf.sprintf "TypeAssert[%s]" (Seqtype.to_string ty)
  | Var q -> Printf.sprintf "Var[%s]" q
  | Call (f, _) -> Printf.sprintf "Call[%s]" f
  | Cond _ -> "Cond"
  | Quantified (q, v, _, _) ->
      Printf.sprintf "%s[%s]"
        (match q with Ast.Some_quant -> "Some" | Ast.Every_quant -> "Every")
        v
  | Parse _ -> "Parse"
  | Serialize (uri, _) -> Printf.sprintf "Serialize[%s]" uri
  | TupleConstruct [] -> "[]"
  | TupleConstruct fields ->
      Printf.sprintf "[%s]" (String.concat ";" (List.map fst fields))
  | FieldAccess q -> Printf.sprintf "IN#%s" q
  | Select _ -> "Select"
  | Product _ -> "Product"
  | Join (pred, _, _) -> Printf.sprintf "Join%s" (pred_params pred)
  | LOuterJoin (q, pred, _, _) ->
      Printf.sprintf "LOuterJoin%s[%s]" (pred_params pred) q
  | Map _ -> "Map"
  | OMap (q, _) -> Printf.sprintf "OMap[%s]" q
  | MapConcat _ -> "MapConcat"
  | OMapConcat (q, _, _) -> Printf.sprintf "OMapConcat[%s]" q
  | MapIndex (q, _) -> Printf.sprintf "MapIndex[%s]" q
  | MapIndexStep (q, _) -> Printf.sprintf "MapIndexStep[%s]" q
  | OrderBy (specs, _) ->
      Printf.sprintf "OrderBy[%s]"
        (String.concat ","
           (List.map
              (fun s ->
                match s.sdir with Ast.Ascending -> "asc" | Ast.Descending -> "desc")
              specs))
  | GroupBy (g, _) ->
      Printf.sprintf "GroupBy[%s,[%s],[%s]]" g.g_agg
        (String.concat ";" g.g_indices)
        (String.concat ";" g.g_nulls)
  | MapFromItem _ -> "MapFromItem"
  | MapToItem _ -> "MapToItem"
  | MapSome _ -> "MapSome"
  | MapEvery _ -> "MapEvery"

(* EXPLAIN ANALYZE rendering of an instrumented plan: the indented
   operator tree annotated with call counts, cumulative (inclusive)
   time, output cardinality (estimated vs actual when the planner
   annotated the operator) and, on joins, build/probe statistics. *)
let analyze_to_string (root : Xqc_obs.Obs.op_node) : string =
  let open Xqc_obs in
  let buf = Buffer.create 1024 in
  let cardinality (st : Obs.op_stats) =
    match (st.Obs.op_tuples, st.Obs.op_items) with
    | 0, 0 -> "out=0"
    | t, 0 -> Printf.sprintf "tuples=%d" t
    | 0, i -> Printf.sprintf "items=%d" i
    | t, i -> Printf.sprintf "tuples=%d items=%d" t i
  in
  let estimate (n : Obs.op_node) =
    match n.Obs.on_est with
    | None -> ""
    | Some e -> Printf.sprintf " est=%.0f" e
  in
  let mode (n : Obs.op_node) =
    match n.Obs.on_stream with
    | Obs.Opaque -> ""
    | k -> " " ^ Obs.stream_kind_name k
  in
  let rec go indent (n : Obs.op_node) =
    let st = n.Obs.on_stats in
    Buffer.add_string buf
      (Printf.sprintf "%s%s  (calls=%d time=%.3fms %s%s%s)" (String.make indent ' ')
         n.Obs.on_label st.Obs.op_calls (Obs.ms st.Obs.op_secs) (cardinality st)
         (estimate n) (mode n));
    (match n.Obs.on_join with
    | Some js -> Buffer.add_string buf ("  [" ^ Obs.join_stats_to_string js ^ "]")
    | None -> ());
    Buffer.add_char buf '\n';
    List.iter (go (indent + 2)) n.Obs.on_children
  in
  go 0 root;
  Buffer.contents buf

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
    (match s.Physical.ps_impl with
    | Physical.Index_scan -> "IndexScan"
    | Physical.Tree_walk -> "TreeWalk")
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
   choice: PHashJoin<eq>[build=left], StreamSelect[limit=1], ... *)
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
  | PStreamSelect { bound; _ } -> Printf.sprintf "StreamSelect[limit=%d]" bound
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
        (String.concat ","
           (List.map
              (fun s ->
                match s.psdir with
                | Ast.Ascending -> "asc"
                | Ast.Descending -> "desc")
              specs))
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

(* The physical plan, one operator per line with the planner's estimated
   output cardinality and cumulative cost; fused navigation chains list
   their steps (with per-step estimates) under the Steps node. *)
let physical_to_string (p : Physical.t) : string =
  let buf = Buffer.create 1024 in
  let rec go indent (p : Physical.t) =
    let e = p.Physical.pest in
    Buffer.add_string buf
      (Printf.sprintf "%s%s  (est_rows=%s cost=%s)\n" (String.make indent ' ')
         (physical_label p) (est_num e.Physical.est_rows)
         (est_num e.Physical.est_cost));
    (match p.Physical.pop with
    | Physical.PSteps { steps; _ } ->
        List.iter
          (fun s ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s  (est_rows=%s)\n"
                 (String.make (indent + 2) ' ')
                 (pstep_label s)
                 (est_num s.Physical.ps_est)))
          steps
    | _ -> ());
    List.iter (go (indent + 2)) (Physical.children p)
  in
  go 0 p;
  Buffer.contents buf

let physical_query_to_string (q : Physical.query) : string =
  let buf = Buffer.create 1024 in
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "function %s(%s):\n%s" f.Physical.pf_name
           (String.concat ", " f.Physical.pf_params)
           (physical_to_string f.Physical.pf_body)))
    q.Physical.pfunctions;
  List.iter
    (fun (v, p) ->
      Buffer.add_string buf
        (Printf.sprintf "global $%s:\n%s" v (physical_to_string p)))
    q.Physical.pglobals;
  Buffer.add_string buf (physical_to_string q.Physical.pmain);
  Buffer.contents buf
