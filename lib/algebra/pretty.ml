(* Plan printer in the paper's notation: Op[params]{dependents}(inputs),
   indented one operator per line as in the paper's plan listings; and
   the one renderer of physical plans, which draws EXPLAIN, EXPLAIN
   ANALYZE and the stats-JSON plan trees from the same nodes.  Every text
   rendering goes through [write]: one walk into one Buffer, each line
   written once with its indentation, and no more than [max_depth]
   levels drawn. *)

open Xqc_xml
open Xqc_types
open Xqc_frontend
open Algebra
module Obs = Xqc_obs.Obs

(* ------------------------------------------------------------------ *)
(* The plan writer                                                     *)
(* ------------------------------------------------------------------ *)

(* Deeper subtrees print as one line: indentation alone would make a
   plan n levels deep O(n^2) bytes. *)
let max_depth = 64

(* Write the tree under [root] into [buf], with no final newline.
   [shape n] is [n]'s first line and its groups of children.  A group
   [(Some (o, c), kids)] writes [o] and [c] on lines of their own at
   [n]'s indentation, around its kids separated by commas (the paper's
   {deps} and (inputs)); a group [(None, kids)] writes its kids one
   level deeper.  A node [max_depth] levels down is written as one
   "… N more operators" line, [N = size n]. *)
let write buf ~shape ~size root =
  let newline depth =
    Buffer.add_char buf '\n';
    for _ = 1 to depth do Buffer.add_string buf "  " done
  in
  let rec go depth n =
    if depth >= max_depth then Printf.bprintf buf "… %d more operators" (size n)
    else
      let text, groups = shape n in
      Buffer.add_string buf text;
      List.iter
        (function
          | None, kids -> List.iter (fun k -> newline (depth + 1); go (depth + 1) k) kids
          | Some (o, c), kids ->
              newline depth;
              Buffer.add_string buf o;
              List.iteri
                (fun i k ->
                  if i > 0 then Buffer.add_char buf ',';
                  newline (depth + 1);
                  go (depth + 1) k)
                kids;
              newline depth;
              Buffer.add_string buf c)
        groups
  in
  go 0 root

(* ------------------------------------------------------------------ *)
(* Logical plans                                                       *)
(* ------------------------------------------------------------------ *)

let pred_params = function
  | Pred _ -> ""
  | Split_pred { op; _ } -> Printf.sprintf "<%s>" (Promotion.cmp_op_name op)

let pred_plans = function
  | Pred p -> [ p ]
  | Split_pred { left_key; right_key; _ } -> [ left_key; right_key ]

let dir_name = function Ast.Ascending -> "asc" | Ast.Descending -> "desc"

(* One logical operator as the printer draws it: Head[params]{deps}(inputs).
   [inputs = None] is a bare leaf (IN, IN#q, the unit table []), which
   prints no "()". *)
type desc = {
  name : string;  (** as [operator_names] lists it *)
  head : string;
  params : string option;
  deps : plan list;
  inputs : plan list option;
}

let describe (p : plan) : desc =
  let op ?head ?params ?(deps = []) name inputs =
    { name; head = Option.value head ~default:name; params; deps; inputs = Some inputs }
  in
  let leaf name head params = { name; head; params; deps = []; inputs = None } in
  match p with
  | Input -> leaf "IN" "IN" None
  | Empty -> op "Empty" []
  | Scalar a -> op "Scalar" ~params:(Atomic.to_string a) []
  | Seq ps -> op "Sequence" ps
  | Element (n, c) -> op "Element" ~params:n [ c ]
  | Attribute (n, c) -> op "Attribute" ~params:n [ c ]
  | Text c -> op "Text" [ c ]
  | Comment c -> op "Comment" [ c ]
  | Pi (n, c) -> op "PI" ~params:n [ c ]
  | TreeJoin (axis, test, i) ->
      op "TreeJoin"
        ~params:(Ast.axis_to_string axis ^ "::" ^ Ast.node_test_to_string test)
        [ i ]
  | Castable (tn, _, i) -> op "Castable" ~params:(Atomic.type_name_to_string tn) [ i ]
  | Cast (tn, _, i) -> op "Cast" ~params:(Atomic.type_name_to_string tn) [ i ]
  | Validate i -> op "Validate" [ i ]
  | TypeMatches (ty, i) -> op "TypeMatches" ~params:(Seqtype.to_string ty) [ i ]
  | TypeAssert (ty, i) -> op "TypeAssert" ~params:(Seqtype.to_string ty) [ i ]
  | Var q -> op "Var" ~params:q []
  | Call (f, args) -> op "Call" ~params:f args
  | Cond (c, t, e) -> op "Cond" ~deps:[ t; e ] [ c ]
  | Quantified (q, v, s, b) ->
      op "Quantified"
        ~head:(match q with Ast.Some_quant -> "Some" | Ast.Every_quant -> "Every")
        ~params:v ~deps:[ b ] [ s ]
  | Parse i -> op "Parse" [ i ]
  | Serialize (uri, i) -> op "Serialize" ~params:uri [ i ]
  | TupleConstruct [] -> leaf "TupleConstruct" "[]" None
  | TupleConstruct fields ->
      op "TupleConstruct" ~head:"" ~params:(String.concat ";" (List.map fst fields))
        (List.map snd fields)
  | FieldAccess q -> leaf "FieldAccess" ("IN#" ^ q) None
  | Select (d, i) -> op "Select" ~deps:[ d ] [ i ]
  | Product (a, b) -> op "Product" [ a; b ]
  | Join (pred, a, b) ->
      op "Join" ~head:("Join" ^ pred_params pred) ~deps:(pred_plans pred) [ a; b ]
  | LOuterJoin (q, pred, a, b) ->
      op "LOuterJoin" ~head:("LOuterJoin" ^ pred_params pred) ~params:q
        ~deps:(pred_plans pred) [ a; b ]
  | Map (d, i) -> op "Map" ~deps:[ d ] [ i ]
  | OMap (q, i) -> op "OMap" ~params:q [ i ]
  | MapConcat (d, i) -> op "MapConcat" ~deps:[ d ] [ i ]
  | OMapConcat (q, d, i) -> op "OMapConcat" ~params:q ~deps:[ d ] [ i ]
  | MapIndex (q, i) -> op "MapIndex" ~params:q [ i ]
  | MapIndexStep (q, i) -> op "MapIndexStep" ~params:q [ i ]
  | OrderBy (specs, i) ->
      op "OrderBy"
        ~params:(String.concat "," (List.map (fun s -> dir_name s.sdir) specs))
        ~deps:(List.map (fun s -> s.skey) specs)
        [ i ]
  | GroupBy (g, i) ->
      op "GroupBy"
        ~params:
          (Printf.sprintf "%s,[%s],[%s]" g.g_agg
             (String.concat ";" g.g_indices)
             (String.concat ";" g.g_nulls))
        ~deps:[ g.g_post; g.g_pre ] [ i ]
  | MapFromItem (d, i) -> op "MapFromItem" ~deps:[ d ] [ i ]
  | MapToItem (d, i) -> op "MapToItem" ~deps:[ d ] [ i ]
  | MapSome (d, i) -> op "MapSome" ~deps:[ d ] [ i ]
  | MapEvery (d, i) -> op "MapEvery" ~deps:[ d ] [ i ]

(* Count of operators in a plan, used in tests and explain output. *)
let rec size (p : plan) : int =
  1 + List.fold_left (fun acc c -> acc + size c) 0 (children_of p)

let logical_shape (p : plan) =
  let d = describe p in
  let params = match d.params with Some ps -> "[" ^ ps ^ "]" | None -> "" in
  let block o c = function [] -> [] | kids -> [ (Some (o, c), kids) ] in
  match d.inputs with
  | None -> (d.head ^ params, [])
  | Some [] when d.deps = [] -> (d.head ^ params ^ "()", [])
  | Some inputs -> (d.head ^ params, block "{" "}" d.deps @ block "(" ")" inputs)

let to_string (p : plan) : string =
  let buf = Buffer.create 1024 in
  write buf ~shape:logical_shape ~size p;
  Buffer.contents buf

(* Collect the multiset of operator names, used by rewriting tests to
   assert e.g. that the optimized plan contains a GroupBy and an
   LOuterJoin and no MapConcat. *)
let rec operator_names (p : plan) : string list =
  (describe p).name :: List.concat_map operator_names (children_of p)

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
  | PProduct _ | PMapToItem _ ->
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

(* A node of the rendered tree: an operator, or one step of a Steps
   chain, drawn as the first children of its Steps node. *)
type node = Op of Physical.t | Step of Physical.pstep

let kids = function
  | Op p ->
      (match p.Physical.pop with
      | Physical.PSteps { steps; _ } -> List.map (fun s -> Step s) steps
      | _ -> [])
      @ List.map (fun c -> Op c) (Physical.children p)
  | Step _ -> []

let rec node_count n = List.fold_left (fun acc k -> acc + node_count k) 1 (kids n)

(* With a profile every row carries its node's statistics (a zero record
   for one that never ran). *)
let row ?(profile : Obs.collector option) (n : node) : row =
  let stats id =
    Option.map
      (fun c -> Option.value (Hashtbl.find_opt c.Obs.co_plans id) ~default:(Obs.op_stats ()))
      profile
  in
  match n with
  | Step s ->
      let stats = stats s.Physical.ps_id in
      { label = pstep_label s; est_rows = s.Physical.ps_est; cost = None; mode = None; join = false; stats }
  | Op ({ Physical.pid; pop; pest } as p) ->
      let join = match pop with Physical.PNestedLoop _ | PHashJoin _ | PSortJoin _ -> true | _ -> false in
      { label = physical_label p; est_rows = pest.Physical.est_rows; cost = Some pest.Physical.est_cost;
        mode = mode_of pop; join; stats = stats pid }

let rows ?profile (p : Physical.t) : row list =
  let rec go acc n = List.fold_left go (row ?profile n :: acc) (kids n) in
  List.rev (go [] (Op p))

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

let add_plan ?profile buf (p : Physical.t) =
  write buf ~shape:(fun n -> (row_line (row ?profile n), [ (None, kids n) ])) ~size:node_count (Op p);
  Buffer.add_char buf '\n'

let plan_to_string ?profile (p : Physical.t) : string =
  let buf = Buffer.create 1024 in
  add_plan ?profile buf p;
  Buffer.contents buf

let plan_to_json (profile : Obs.collector) (p : Physical.t) : Obs.json =
  let rec go n =
    let r = row ~profile n in
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
      @ match kids n with [] -> [] | ks -> [ ("children", Obs.Arr (List.map go ks)) ])
  in
  go (Op p)

let query_plans (q : Physical.query) : (string * Physical.t) list =
  List.map (fun f -> ("function " ^ f.Physical.pf_name, f.Physical.pf_body)) q.Physical.pfunctions
  @ List.map (fun (v, p) -> ("global $" ^ v, p)) q.Physical.pglobals
  @ [ ("main", q.Physical.pmain) ]

let query_to_string (q : Physical.query) : string =
  let buf = Buffer.create 1024 in
  let plans = query_plans q in
  List.iter
    (fun (name, p) ->
      if List.compare_length_with plans 1 > 0 then Buffer.add_string buf (name ^ ":\n");
      add_plan buf p)
    plans;
  Buffer.contents buf

let plans_to_json (profile : Obs.collector) (q : Physical.query) : Obs.json =
  Obs.Arr
    (List.map
       (fun (name, p) -> Obs.Obj [ ("name", Obs.Str name); ("plan", plan_to_json profile p) ])
       (query_plans q))
