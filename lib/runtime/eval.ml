(* Physical evaluation of planned (physical) algebra plans.

   Plans are compiled to OCaml closures.  Tuples are value arrays and every
   IN#q access is resolved to an integer slot at compile time — the paper
   attributes much of the algebra's speedup over the old AST interpreter to
   this "replacement of dynamic lookups in the dynamic context by direct
   compiled memory access".

   The evaluator dispatches on the physical algebra produced by the
   cost-based planner and re-makes no strategy decision: the join
   algorithm and its build side, index-vs-walk per axis step, positional
   take-while bounds, streaming builtin calls and explicit
   materialization points all arrive encoded in the plan.

   The tabular arm of [dval] is a pull-based cursor ([tuple Seq.t]):
   Select/Map/MapConcat/OMapConcat/MapIndex chains fuse into lazy stream
   transformers that never materialize intermediate tables, and tuples
   flow only as the consumer pulls.  Materialization happens at the
   planner's explicit [PMaterialize] cuts (join and product build sides)
   and at the genuinely blocking operators — OrderBy, GroupBy, and the
   item-producing sinks (MapToItem, serialization).  Existential
   consumers (MapSome/MapEvery, streamed fn:exists/fn:empty, bounded
   positional selections, streamed fn:subsequence) stop pulling after
   the prefix they need, turning O(document) scans into O(answer).

   Laziness is confined to within one strict consumer call: every scope
   boundary (function bodies, quantifier tests, globals, all Xml-producing
   operators) forces its value strictly, so a deferred cursor can never
   observe a dynamic context whose bindings have since been restored, and
   every cursor is consumed at most once.

   Evaluation convention for the dependent-input plumbing: every compiled
   plan receives the current dependent input [inp]; operators pass it
   through unchanged to their *independent* children and rebind it for
   their *dependent* children (per-tuple predicates, map bodies, group-by
   pre/post plans, join predicates, sort keys). *)

open Xqc_xml
open Xqc_types
open Xqc_frontend
open Xqc_algebra
open Dynamic_ctx
module Obs = Xqc_obs.Obs
module Store = Xqc_store.Store
module P = Physical

exception Compile_error of string

let compile_error fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

type tuple = Item.sequence array

type dval = Xml of Item.sequence | Tab of tuple Seq.t

type inp = ITuple of tuple | IItems of Item.sequence | INone

type comp = Dynamic_ctx.t -> inp -> dval

let as_items = function
  | Xml s -> s
  | Tab _ -> dynamic_error "expected an XML value, found a table"

let as_table = function
  | Tab t -> t
  | Xml _ -> dynamic_error "expected a table, found an XML value"

(* Blocking consumers (sorts, group-bys, join build sides) drain the
   cursor to a list in one pull run. *)
let table_list v = List.of_seq (as_table v)
let tab_list l = Tab (List.to_seq l)

let ebv (v : dval) : bool = Item.effective_boolean_value (as_items v)

let true_flag : Item.sequence = [ Item.Atom (Atomic.Boolean true) ]
let false_flag : Item.sequence = [ Item.Atom (Atomic.Boolean false) ]

(* ------------------------------------------------------------------ *)
(* Layout management                                                   *)
(* ------------------------------------------------------------------ *)

type layout = string list

let field_index (l : layout) (q : string) : int option =
  let rec go i = function
    | [] -> None
    | f :: _ when String.equal f q -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 l

(* Tuple concatenation spec: output layout merges [l2] into [l1] (fields
   already present on the left are overwritten in place — the two sides
   can only disagree transiently during rewriting, when they are aliases
   of the same value).  Returns the output layout, its width, and the
   compile-time move table for the right tuple. *)
let concat_spec (l1 : layout) (l2 : layout) : layout * int * (int * int) array =
  let extra = List.filter (fun f -> field_index l1 f = None) l2 in
  let out = l1 @ extra in
  let moves =
    List.mapi
      (fun j f ->
        match field_index out f with
        | Some k -> (j, k)
        | None -> assert false)
      l2
  in
  (out, List.length out, Array.of_list moves)

let apply_concat (n1 : int) (width : int) (moves : (int * int) array) (t1 : tuple)
    (t2 : tuple) : tuple =
  let out = Array.make width [] in
  Array.blit t1 0 out 0 n1;
  Array.iter (fun (j, k) -> out.(k) <- t2.(j)) moves;
  out

(* ------------------------------------------------------------------ *)
(* Axes and node tests                                                 *)
(* ------------------------------------------------------------------ *)

let apply_axis (axis : Ast.axis) (n : Node.t) : Node.t list =
  match axis with
  | Ast.Child -> Node.children n
  | Ast.Descendant -> Node.descendants n
  | Ast.Descendant_or_self -> Node.descendant_or_self n
  | Ast.Attribute_axis -> Node.attributes n
  | Ast.Self -> [ n ]
  | Ast.Parent -> Option.to_list (Node.parent n)
  | Ast.Ancestor -> Node.ancestors n
  | Ast.Ancestor_or_self -> n :: Node.ancestors n
  | Ast.Following_sibling -> Node.following_siblings n
  | Ast.Preceding_sibling -> Node.preceding_siblings n

let test_matches schema (axis : Ast.axis) (test : Ast.node_test) (n : Node.t) :
    bool =
  match test with
  | Ast.Kind_test it -> Seqtype.item_matches schema (Item.Node n) it
  | Ast.Name_test name -> (
      (* the principal node kind of the attribute axis is attribute *)
      match (axis, n.Node.desc) with
      | Ast.Attribute_axis, Node.Attribute { aname; _ } ->
          String.equal name "*" || String.equal aname name
      | Ast.Attribute_axis, _ -> false
      | _, Node.Element { ename; _ } -> String.equal name "*" || String.equal ename name
      | _ -> false)

(* Indexed fast path for a single axis step: name tests over the
   downward axes resolve against the document store's interval-encoded
   name indexes (a binary-searched nid range instead of a subtree walk).
   [None] sends the caller to the walking path — non-name tests, axes
   the store does not cover, unindexed trees, or cases where the store
   itself judges the walk cheaper. *)
let indexed_axis_nodes (axis : Ast.axis) (test : Ast.node_test) (n : Node.t) :
    Node.t list option =
  match test with
  | Ast.Name_test name -> (
      match axis with
      | Ast.Descendant -> Store.descendants_by_name n name
      | Ast.Descendant_or_self -> Store.descendant_or_self_by_name n name
      | Ast.Child -> Store.children_by_name n name
      | Ast.Attribute_axis ->
          (* the store has no "*" entry for attributes; @* walks *)
          if String.equal name "*" then None else Store.attributes_by_name n name
      | _ -> None)
  | Ast.Kind_test _ -> None

(* Matches are accumulated in traversal order: child/descendant axis
   output over already-sorted input is itself in document order, so the
   closing [sort_doc_order] hits its O(n) already-sorted fast path on the
   common case and only pays for a sort when an axis actually disturbs
   the order (parent, ancestor, multiple nested sources). *)
let tree_join schema axis test (input : Item.sequence) : Item.sequence =
  let out = ref [] in
  List.iter
    (fun it ->
      match it with
      | Item.Node n -> (
          match indexed_axis_nodes axis test n with
          | Some ms -> List.iter (fun m -> out := m :: !out) ms
          | None ->
              List.iter
                (fun m -> if test_matches schema axis test m then out := m :: !out)
                (apply_axis axis n))
      | Item.Atom _ -> dynamic_error "path step applied to an atomic value")
    input;
  List.map (fun n -> Item.Node n) (Node.sort_doc_order (List.rev !out))

(* One planned step: honours the planner's [ps_impl] — an [Index_scan]
   still degrades to a walk per node when the store cannot serve that
   tree, a [Tree_walk] never consults the index. *)
let step_join schema (s : P.pstep) (input : Item.sequence) : Item.sequence =
  let axis = s.P.ps_axis and test = s.P.ps_test in
  let out = ref [] in
  List.iter
    (fun it ->
      match it with
      | Item.Node n -> (
          let indexed =
            match s.P.ps_impl with
            | P.Index_scan -> indexed_axis_nodes axis test n
            | P.Tree_walk -> None
          in
          match indexed with
          | Some ms -> List.iter (fun m -> out := m :: !out) ms
          | None ->
              List.iter
                (fun m -> if test_matches schema axis test m then out := m :: !out)
                (apply_axis axis n))
      | Item.Atom _ -> dynamic_error "path step applied to an atomic value")
    input;
  List.map (fun n -> Item.Node n) (Node.sort_doc_order (List.rev !out))

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Every output node of a constructor is built once and numbered once.
   A constructor builds its element from fresh (unnumbered) nodes: fresh
   content nodes — the results of constructors compiled in adopt
   position, see [cenv] — are adopted by setting their parent, every
   other content node is copied once into fresh nodes.  Only a
   constructor outside adopt position numbers its finished tree, with
   one id reservation and one walk; the nested constructors below it
   never number or copy what they build.  The No-algebra interpreter
   calls [construct_element], which always numbers: its content is
   always numbered, so it always copies. *)

let c_numbered = Obs.global_counter "construct_nodes_numbered"
let c_copied = Obs.global_counter "construct_nodes_copied"

(* Number a finished constructor result: two counter adds per tree,
   never one per node. *)
let number_constructed (n : Node.t) : Node.t =
  let copies = Node.number_fresh n in
  Obs.add_counter c_numbered n.Node.extent;
  if copies > 0 then Obs.add_counter c_copied copies;
  n

(* A fresh content node is the result of a constructor in adopt
   position, which reaches exactly one enclosing constructor: adopt it.
   Anything numbered may be reachable elsewhere: copy it. *)
let adopt_or_copy (n : Node.t) : Node.t = if Node.is_fresh n then n else Node.copy_fresh n

(* Element content assembly: attribute nodes become attributes, atomic
   values merge into space-separated text, nodes are adopted or copied
   (XQuery constructor copy semantics), document nodes contribute their
   children. *)
let assemble_content (items : Item.sequence) : Node.t list * Node.t list =
  let attrs = ref [] and content = ref [] and atom_buf = ref [] in
  let flush () =
    if !atom_buf <> [] then (
      let s = String.concat " " (List.rev_map Atomic.to_string !atom_buf) in
      atom_buf := [];
      content := Node.fresh (Node.Text s) :: !content)
  in
  List.iter
    (fun it ->
      match it with
      | Item.Atom a -> atom_buf := a :: !atom_buf
      | Item.Node n -> (
          flush ();
          match Node.kind n with
          | Node.Kattribute -> attrs := adopt_or_copy n :: !attrs
          | Node.Kdocument ->
              List.iter (fun c -> content := adopt_or_copy c :: !content) (Node.children n)
          | Node.Kelement | Node.Ktext | Node.Kcomment | Node.Kpi ->
              content := adopt_or_copy n :: !content))
    items;
  flush ();
  (List.rev !attrs, List.rev !content)

(* The unnumbered element, as a constructor in adopt position returns it. *)
let build_element name (items : Item.sequence) : Node.t =
  let attrs, children = assemble_content items in
  Node.fresh (Node.Element { ename = name; attrs; children; eannot = None })

let construct_element name (items : Item.sequence) : Item.t =
  Item.Node (number_constructed (build_element name items))

let build_attribute name (items : Item.sequence) : Node.t =
  let s = String.concat " " (List.map Item.string_value items) in
  Node.fresh (Node.Attribute { aname = name; avalue = s; aannot = None })

let construct_attribute name (items : Item.sequence) : Item.t =
  Item.Node (number_constructed (build_attribute name items))

(* ------------------------------------------------------------------ *)
(* Plan compilation                                                    *)
(* ------------------------------------------------------------------ *)

(* [adopt]: every node this subplan constructs flows, unobserved and
   exactly once, into the content of an enclosing element constructor,
   which will adopt it — so its constructors may return their nodes
   fresh (unnumbered).  Set on an element constructor's content; it
   passes only through PSeq, both PCond branches, PMapToItem's
   dependent, and into a GroupBy's pre plan when the GroupBy's
   aggregate is read in adopt position (see [adopted_group]).  Every
   other operator clears it.

   [uses]: how often each tuple field is read anywhere in the plan
   being compiled. *)
type cenv = { layout : layout; adopt : bool; uses : string -> int }

(* One linear pass per plan: reads of each field, by PFieldAccess or as a
   GroupBy index or null field. *)
let field_uses (p : P.t) : string -> int =
  let counts = Hashtbl.create 16 in
  let bump q = Hashtbl.replace counts q (1 + Option.value ~default:0 (Hashtbl.find_opt counts q)) in
  P.fold
    (fun () n ->
      match n.P.pop with
      | P.PFieldAccess q -> bump q
      | P.PGroupBy (g, _) ->
          List.iter bump g.P.pg_indices;
          List.iter bump g.P.pg_nulls
      | _ -> ())
    () p;
  fun q -> Option.value ~default:0 (Hashtbl.find_opt counts q)

let top_env (p : P.t) : cenv = { layout = []; adopt = false; uses = field_uses p }

(* Does [p], compiled with adopt flag [adopt], read field [q] in adopt
   position?  Follows exactly the propagation of [compile_node]; a
   nested tuple operator evaluates its reads against its own input, so
   the walk stops there. *)
let rec reads_adopted (q : string) (adopt : bool) (p : P.t) : bool =
  match p.P.pop with
  | P.PFieldAccess f -> adopt && String.equal f q
  | P.PSeq (a, b) -> reads_adopted q adopt a || reads_adopted q adopt b
  | P.PCond (_, t, e) -> reads_adopted q adopt t || reads_adopted q adopt e
  | P.PElement (_, content) -> reads_adopted q true content
  | _ -> false

(* [input] is the input of an operator that evaluates [dep] exactly
   once per input tuple: a MapToItem (with [dep] its dependent) or an
   enclosing GroupBy (with [dep] its pre plan).  When [input] is a
   GroupBy, its aggregate may be built fresh if the aggregate reaches
   the tuple unchanged (identity post plan) and its only read in the
   whole plan is in [dep], in adopt position.  The read must be unique
   plan-wide because GroupBy copies the first tuple's fields, an inner
   aggregate included, into its output. *)
let adopted_group (env : cenv) ~(adopt : bool) (dep : P.t) (input : P.t) : bool =
  match input.P.pop with
  | P.PGroupBy (g, _) -> (
      match g.P.pg_post.P.pop with
      | P.PInput -> env.uses g.P.pg_agg = 1 && reads_adopted g.P.pg_agg adopt dep
      | _ -> false)
  | _ -> false

(* Debug knob: when set, every compiled operator drains its cursor eagerly
   at call time and the cursor-based early-termination special cases are
   disabled, restoring the fully materialized evaluation the streaming
   pipeline replaced.  Used by the equivalence tests (streamed and
   materialized runs must agree) and by the bench early-exit baseline.
   Affects plans compiled while the flag is set; the physical plan itself
   is unchanged, only its execution is strict. *)
let force_materialize = ref false

let materialize_comp (c : comp) : comp =
 fun ctx inp ->
  match c ctx inp with
  | Xml _ as v -> v
  | Tab s -> tab_list (List.of_seq s)

(* How each operator moves tuples, for the EXPLAIN ANALYZE annotation. *)
let stream_kind_of (pop : P.pop) : Obs.stream_kind =
  match pop with
  | P.PSelect _ | P.PStreamSelect _ | P.PMap _ | P.POMap _ | P.PMapConcat _
  | P.POMapConcat _ | P.PMapIndex _ | P.PMapIndexStep _ | P.PMapFromItem _
  | P.PTupleConstruct _ | P.PMapSome _ | P.PMapEvery _ ->
      Obs.Streamed
  | P.POrderBy _ | P.PGroupBy _ | P.PNestedLoop _ | P.PHashJoin _
  | P.PSortJoin _ | P.PProduct _ | P.PMapToItem _ | P.PMaterialize _ ->
      Obs.Blocking
  | _ -> Obs.Opaque

(* Instrumentation (EXPLAIN ANALYZE).  While [current_builder] is set,
   every [compile] call mirrors the plan node into an [Obs.op_node] —
   carrying the planner's cardinality estimate — and wraps the compiled
   closure to record invocation count, cumulative (inclusive) time and
   output cardinality.  Tabular results are lazy, so their cardinality is
   counted per pull (a never-pulled tuple is never counted — this is
   exactly the quantity early termination bounds), with each pull timed
   into the operator's inclusive time.  With the builder unset — the
   default — [compile] returns the raw closure: the uninstrumented hot
   path is byte-for-byte the same code as before.

   The builder is domain-local: instrumented runs on one server worker
   domain must not leak op_nodes into plans being compiled concurrently
   on another (the CLI single-domain behaviour is unchanged). *)
let current_builder_key : Obs.builder option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let current_builder () = Domain.DLS.get current_builder_key
let set_current_builder b = Domain.DLS.set current_builder_key b

let instrument (st : Obs.op_stats) (c : comp) : comp =
 fun ctx inp ->
  let t0 = Obs.now () in
  let v = c ctx inp in
  st.Obs.op_secs <- st.Obs.op_secs +. (Obs.now () -. t0);
  st.Obs.op_calls <- st.Obs.op_calls + 1;
  match v with
  | Xml s ->
      st.Obs.op_items <- st.Obs.op_items + List.length s;
      v
  | Tab t -> Tab (Obs.tuple_counted_seq st t)

(* ------------------------------------------------------------------ *)
(* Item-level cursors                                                  *)
(* ------------------------------------------------------------------ *)

(* One walked step from [n], as a cursor: descendant axes walk the
   subtree on demand so an existential consumer visits only the prefix
   it needs; the other axes read a list the node already holds, so it
   is filtered at once. *)
let walk_step_seq schema (axis : Ast.axis) (test : Ast.node_test) (n : Node.t) :
    Item.t Seq.t =
  let keep m = if test_matches schema axis test m then Some (Item.Node m) else None in
  match axis with
  | Ast.Descendant -> Seq.filter_map keep (Node.descendants_seq n)
  | Ast.Descendant_or_self -> Seq.filter_map keep (Node.descendant_or_self_seq n)
  | a -> List.to_seq (List.filter_map keep (apply_axis a n))

(* Indexed single-step cursor: the lazy counterpart of
   [indexed_axis_nodes].  A [Some] sequence already satisfies the node
   test, so no further filtering is needed; [None] falls back to the
   lazy walk. *)
let indexed_axis_seq (axis : Ast.axis) (test : Ast.node_test) (n : Node.t) :
    Node.t Seq.t option =
  match test with
  | Ast.Name_test name -> (
      match axis with
      | Ast.Descendant -> Store.descendants_by_name_seq n name
      | Ast.Descendant_or_self -> Store.descendant_or_self_by_name_seq n name
      | Ast.Child -> Option.map List.to_seq (Store.children_by_name n name)
      | _ -> None)
  | Ast.Kind_test _ -> None

(* Compile the step chain of an item cursor.  Each step registers its own
   op_node (streamed, with the planner's per-step estimate) so pull counts
   surface in EXPLAIN ANALYZE and in the collector's pulled totals.  The
   consuming operator passes the absorbed [PSteps] node as [~parent]: it
   is registered too (counting the chain's final output, exactly as the
   strict arm does), so a fully consumed cursor reports the same pull
   totals as the materialized execution of the same plan. *)
let compile_cursor_steps ?(parent : P.t option) (steps : P.pstep list) :
    Dynamic_ctx.t -> Item.t Seq.t -> Item.t Seq.t =
  let parent_stats =
    match (current_builder (), parent) with
    | Some b, Some p ->
        let n =
          Obs.push_node b ~stream:Obs.Streamed ~est:p.P.pest.P.est_rows
            (Pretty.physical_label p)
        in
        Some n.Obs.on_stats
    | _ -> None
  in
  let comps =
    List.map
      (fun (s : P.pstep) ->
        let stats =
          match current_builder () with
          | Some b ->
              let n =
                Obs.push_node b ~stream:Obs.Streamed ~est:s.P.ps_est
                  (Pretty.pstep_label s)
              in
              Obs.pop_node b;
              Some n.Obs.on_stats
          | None -> None
        in
        (s, stats))
      steps
  in
  (match (current_builder (), parent_stats) with
  | Some b, Some _ -> Obs.pop_node b
  | _ -> ());
  fun ctx s0 ->
    List.fold_left
      (fun s ((ps : P.pstep), stats) ->
        let axis = ps.P.ps_axis and test = ps.P.ps_test in
        let s' =
          Seq.concat_map
            (fun it ->
              match it with
              | Item.Node n -> (
                  let indexed =
                    match ps.P.ps_impl with
                    | P.Index_scan -> indexed_axis_seq axis test n
                    | P.Tree_walk -> None
                  in
                  match indexed with
                  | Some ms -> Seq.map (fun m -> Item.Node m) ms
                  | None -> walk_step_seq ctx.schema axis test n)
              | Item.Atom _ -> dynamic_error "path step applied to an atomic value")
            s
        in
        match stats with Some st -> Obs.item_counted_seq st s' | None -> s')
      s0 comps
    |> fun out ->
    match parent_stats with Some st -> Obs.item_counted_seq st out | None -> out

(* Store probes for a one-step name chain: existence and cardinality of
   descendant[-or-self]::t / child::t answered from the index's range
   bounds without touching nodes.  [None] when the chain shape is not
   probe-able; the probe itself returns [None] per node when the store
   cannot serve that tree (caller streams instead). *)
let step_shapes (steps : P.pstep list) : (Ast.axis * Ast.node_test) list =
  List.map (fun (s : P.pstep) -> (s.P.ps_axis, s.P.ps_test)) steps

let index_exists_probe (steps : P.pstep list) : (Node.t -> bool option) option =
  match step_shapes steps with
  | [ (Ast.Descendant, Ast.Name_test nm) ] ->
      Some (fun n -> Store.exists_descendant_by_name n nm)
  | [ (Ast.Descendant_or_self, Ast.Name_test nm) ] ->
      Some (fun n -> Store.exists_descendant_by_name ~self:true n nm)
  | [ (Ast.Child, Ast.Name_test nm) ] ->
      Some (fun n -> Option.map (fun l -> l <> []) (Store.children_by_name n nm))
  | _ -> None

let index_count_probe (steps : P.pstep list) : (Node.t -> int option) option =
  match step_shapes steps with
  | [ (Ast.Descendant, Ast.Name_test nm) ] ->
      Some (fun n -> Store.count_descendants_by_name n nm)
  | [ (Ast.Descendant_or_self, Ast.Name_test nm) ] ->
      Some (fun n -> Store.count_descendants_by_name ~self:true n nm)
  | [ (Ast.Child, Ast.Name_test nm) ] ->
      Some (fun n -> Option.map List.length (Store.children_by_name n nm))
  | _ -> None

(* Shared scaffolding of the three physical join operators: compiled
   inputs, merged output layout, match/unmatched emitters (outer joins
   prepend the null-flag field) and the left-major streaming driver.
   The probe (left) side streams: each outer tuple is matched as the
   consumer pulls.  The build side arrives wrapped in [PMaterialize] by
   the planner and is drained eagerly at operator call, before any pull. *)
type join_parts = {
  jp_stats : Obs.join_stats option;
  jp_left : comp;
  jp_llayout : layout;
  jp_right : comp;
  jp_rlayout : layout;
  jp_merged : layout;
  jp_n1 : int;
  jp_mwidth : int;
  jp_moves : (int * int) array;
  jp_out : layout;
  jp_run : tuple Seq.t -> (tuple -> tuple list) -> dval;
}

let rec compile (env : cenv) (p : P.t) : comp * layout =
  let c, layout =
    match current_builder () with
    | None -> compile_node env p
    | Some b ->
        let join =
          match p.P.pop with
          | P.PNestedLoop _ | P.PHashJoin _ | P.PSortJoin _ ->
              Some (Obs.join_stats ())
          | _ -> None
        in
        let node =
          Obs.push_node b ?join ~stream:(stream_kind_of p.P.pop)
            ~est:p.P.pest.P.est_rows (Pretty.physical_label p)
        in
        let c, layout =
          match compile_node env p with
          | r ->
              Obs.pop_node b;
              r
          | exception e ->
              Obs.pop_node b;
              raise e
        in
        (instrument node.Obs.on_stats c, layout)
  in
  (* Cooperative cancellation point: dependent sub-plans (per-tuple
     predicates, map bodies, join predicate legs) are invoked once per
     tuple, so a deadline-armed context unwinds within one operator's
     work.  With no deadline — every context except the query server's —
     the check is a single field load. *)
  let c = (fun ctx inp -> check_deadline ctx; c ctx inp) in
  if !force_materialize then (materialize_comp c, layout) else (c, layout)

and compile_node (env : cenv) (p : P.t) : comp * layout =
  let adopt = env.adopt in
  let env = { env with adopt = false } in
  (* a constructor outside adopt position numbers its finished tree *)
  let finish = if adopt then Fun.id else number_constructed in
  match p.P.pop with
  | P.PInput ->
      ( (fun _ctx inp ->
          match inp with
          | ITuple t -> Tab (Seq.return t)
          | IItems s -> Xml s
          | INone -> dynamic_error "IN used outside a dependent context"),
        env.layout )
  | P.PEmpty -> ((fun _ _ -> Xml []), [])
  | P.PScalar a ->
      let v = Xml [ Item.Atom a ] in
      ((fun _ _ -> v), [])
  | P.PSeq (a, b) ->
      let ca, _ = compile { env with adopt } a and cb, _ = compile { env with adopt } b in
      ((fun ctx inp -> Xml (as_items (ca ctx inp) @ as_items (cb ctx inp))), [])
  | P.PElement (name, content) ->
      let cc, _ = compile { env with adopt = true } content in
      ((fun ctx inp -> Xml [ Item.Node (finish (build_element name (as_items (cc ctx inp)))) ]), [])
  | P.PAttribute (name, content) ->
      let cc, _ = compile env content in
      ((fun ctx inp -> Xml [ Item.Node (finish (build_attribute name (as_items (cc ctx inp)))) ]), [])
  | P.PText content ->
      let cc, _ = compile env content in
      ( (fun ctx inp ->
          match as_items (cc ctx inp) with
          | [] -> Xml []
          | items ->
              let s = String.concat " " (List.map Item.string_value items) in
              Xml [ Item.Node (finish (Node.fresh (Node.Text s))) ]),
        [] )
  | P.PComment content ->
      let cc, _ = compile env content in
      ( (fun ctx inp ->
          let s = String.concat " " (List.map Item.string_value (as_items (cc ctx inp))) in
          Xml [ Item.Node (finish (Node.fresh (Node.Comment s))) ]),
        [] )
  | P.PPi (target, content) ->
      let cc, _ = compile env content in
      ( (fun ctx inp ->
          let pdata = String.concat " " (List.map Item.string_value (as_items (cc ctx inp))) in
          Xml [ Item.Node (finish (Node.fresh (Node.Pi { target; pdata }))) ]),
        [] )
  | P.PSteps { steps; input; _ } ->
      (* strict step chain: each planned step runs in turn over the
         accumulated node set, honouring its index-vs-walk choice; the
         per-step op_nodes surface per-step output counts in EXPLAIN
         ANALYZE even in strict mode *)
      let ci, _ = compile env input in
      let comps =
        List.map
          (fun (s : P.pstep) ->
            let stats =
              match current_builder () with
              | Some b ->
                  let n = Obs.push_node b ~est:s.P.ps_est (Pretty.pstep_label s) in
                  Obs.pop_node b;
                  Some n.Obs.on_stats
              | None -> None
            in
            (s, stats))
          steps
      in
      let run_steps ctx items =
        List.fold_left
          (fun items (s, stats) ->
            match stats with
            | None -> step_join ctx.schema s items
            | Some st ->
                let t0 = Obs.now () in
                let out = step_join ctx.schema s items in
                st.Obs.op_secs <- st.Obs.op_secs +. (Obs.now () -. t0);
                st.Obs.op_calls <- st.Obs.op_calls + 1;
                st.Obs.op_items <- st.Obs.op_items + List.length out;
                out)
          items comps
      in
      ((fun ctx inp -> Xml (run_steps ctx (as_items (ci ctx inp)))), [])
  | P.PCastable (tn, optional, input) ->
      let ci, _ = compile env input in
      ( (fun ctx inp ->
          let ok =
            match Item.atomize (as_items (ci ctx inp)) with
            | [] -> optional
            | [ a ] -> Atomic.castable tn a
            | _ -> false
          in
          Xml [ Item.Atom (Atomic.Boolean ok) ]),
        [] )
  | P.PCast (tn, optional, input) ->
      let ci, _ = compile env input in
      ( (fun ctx inp ->
          match Item.atomize (as_items (ci ctx inp)) with
          | [] ->
              if optional then Xml []
              else dynamic_error "cast of an empty sequence to a non-optional type"
          | [ a ] -> Xml [ Item.Atom (Atomic.cast tn a) ]
          | _ -> dynamic_error "cast applied to a sequence of more than one item"),
        [] )
  | P.PValidate input ->
      let ci, _ = compile env input in
      ( (fun ctx inp ->
          match as_items (ci ctx inp) with
          | [ Item.Node n ] -> Xml [ Item.Node (Schema.validate ctx.schema n) ]
          | _ -> dynamic_error "validate requires a single element or document node"),
        [] )
  | P.PTypeMatches (ty, input) ->
      let ci, _ = compile env input in
      ( (fun ctx inp ->
          Xml [ Item.Atom (Atomic.Boolean (Seqtype.matches ctx.schema (as_items (ci ctx inp)) ty)) ]),
        [] )
  | P.PTypeAssert (ty, input) ->
      let ci, _ = compile env input in
      ((fun ctx inp -> Xml (Seqtype.assert_matches ctx.schema (as_items (ci ctx inp)) ty)), [])
  | P.PVar q -> ((fun ctx _ -> Xml (lookup_variable ctx q)), [])
  | P.PCall (name, args) -> (generic_call env name args, [])
  | P.PCallStream (kind, name, args) ->
      (* the planner marked this call streamable; under the materialize
         ablation it still runs, but as the plain generic call *)
      if !force_materialize then (generic_call env name args, [])
      else (compile_stream_call env kind name args, [])
  | P.PCond (c, t, e) ->
      let cc, _ = compile env c in
      let ct, lt = compile { env with adopt } t in
      let ce, _ = compile { env with adopt } e in
      ((fun ctx inp -> if ebv (cc ctx inp) then ct ctx inp else ce ctx inp), lt)
  | P.PQuantified (q, v, source, body) -> (
      (* existence doesn't care about order or duplicates, so a step-chain
         source streams lazily and the quantifier stops at the first
         witness / counterexample *)
      let cursor =
        if !force_materialize then None
        else
          match source.P.pop with
          | P.PSteps { steps; input = src; _ } when steps <> [] ->
              let pipe = compile_cursor_steps ~parent:source steps in
              let csrc, _ = compile env src in
              Some (fun ctx inp -> pipe ctx (List.to_seq (as_items (csrc ctx inp))))
          | _ -> None
      in
      match cursor with
      | Some cur ->
          let cb, _ = compile env body in
          ( (fun ctx inp ->
              let test it =
                with_params ctx ((v, [ it ]) :: ctx.params) (fun () -> ebv (cb ctx inp))
              in
              let items = cur ctx inp in
              let result =
                match q with
                | Ast.Some_quant -> Seq.exists test items
                | Ast.Every_quant -> Seq.for_all test items
              in
              Xml [ Item.Atom (Atomic.Boolean result) ]),
            [] )
      | None ->
          let cs, _ = compile env source in
          let cb, _ = compile env body in
          ( (fun ctx inp ->
              let test it =
                with_params ctx ((v, [ it ]) :: ctx.params) (fun () -> ebv (cb ctx inp))
              in
              let items = as_items (cs ctx inp) in
              let result =
                match q with
                | Ast.Some_quant -> List.exists test items
                | Ast.Every_quant -> List.for_all test items
              in
              Xml [ Item.Atom (Atomic.Boolean result) ]),
            [] ))
  | P.PParse uri_plan ->
      let cu, _ = compile env uri_plan in
      ( (fun ctx inp ->
          match as_items (cu ctx inp) with
          | [ it ] -> Xml [ Item.Node (resolve_document ctx (Item.string_value it)) ]
          | _ -> dynamic_error "fn:doc requires a single URI"),
        [] )
  | P.PSerialize (uri, input) ->
      let ci, _ = compile env input in
      ( (fun ctx inp ->
          Serializer.sequence_to_file uri (as_items (ci ctx inp));
          Xml []),
        [] )
  | P.PTupleConstruct fields ->
      let compiled = List.map (fun (q, fp) -> (q, fst (compile env fp))) fields in
      let n = List.length compiled in
      let comps = Array.of_list (List.map snd compiled) in
      ( (fun ctx inp ->
          let t = Array.make n [] in
          for i = 0 to n - 1 do
            t.(i) <- as_items (comps.(i) ctx inp)
          done;
          Tab (Seq.return t)),
        List.map fst compiled )
  | P.PFieldAccess q -> (
      match field_index env.layout q with
      | Some i ->
          ( (fun _ctx inp ->
              match inp with
              | ITuple t -> Xml t.(i)
              | IItems _ | INone -> dynamic_error "IN#%s outside a tuple context" q),
            [] )
      | None -> compile_error "unknown tuple field #%s (layout: %s)" q (String.concat "," env.layout))
  | P.PSelect (pred, input) ->
      let ci, li = compile env input in
      let cp, _ = compile { env with layout = li } pred in
      ( (fun ctx inp ->
          Tab (Seq.filter (fun t -> ebv (cp ctx (ITuple t))) (as_table (ci ctx inp)))),
        li )
  | P.PStreamSelect { pred; bound; input } ->
      (* positional early termination, decided by the planner: the input
         cursor is cut after [bound] tuples (the index field always sits
         in slot 0 of a MapIndex output), then the prefix is filtered.
         The cut is sound in both streamed and materialized execution:
         the predicate implies the bound. *)
      let ci, li = compile env input in
      let cp, _ = compile { env with layout = li } pred in
      let below (t : tuple) =
        match t.(0) with
        | [ Item.Atom (Atomic.Integer i) ] -> i <= bound
        | _ -> true
      in
      ( (fun ctx inp ->
          Tab
            (Seq.filter
               (fun t -> ebv (cp ctx (ITuple t)))
               (Seq.take_while below (as_table (ci ctx inp))))),
        li )
  | P.PProduct (a, b) ->
      let ca, la = compile env a
      and cb, lb = compile env b in
      let out, width, moves = concat_spec la lb in
      let n1 = List.length la in
      ( (fun ctx inp ->
          let left = as_table (ca ctx inp) in
          let right = table_list (cb ctx inp) in
          Tab
            (Seq.concat_map
               (fun l ->
                 List.to_seq (List.map (fun r -> apply_concat n1 width moves l r) right))
               left)),
        out )
  | P.PNestedLoop { outer; pred; left; right } ->
      compile_nested_loop env outer pred left right
  | P.PHashJoin { outer; build; left_key; right_key; left; right } ->
      compile_hash_join env outer build left_key right_key left right
  | P.PSortJoin { outer; op; left_key; right_key; left; right } ->
      compile_sort_join env outer op left_key right_key left right
  | P.PMaterialize inner ->
      (* explicit pipeline cut: drain the child cursor to a list at call
         time (join/product build sides) *)
      let ci, li = compile env inner in
      ( (fun ctx inp ->
          match ci ctx inp with Xml _ as v -> v | Tab s -> tab_list (List.of_seq s)),
        li )
  | P.PMap (dep, input) ->
      let ci, li = compile env input in
      let cd, ld = compile { env with layout = li } dep in
      ( (fun ctx inp ->
          Tab
            (Seq.concat_map
               (fun t -> as_table (cd ctx (ITuple t)))
               (as_table (ci ctx inp)))),
        ld )
  | P.POMap (q, input) ->
      let ci, li = compile env input in
      let width = 1 + List.length li in
      let mark t =
        let out = Array.make width [] in
        out.(0) <- false_flag;
        Array.blit t 0 out 1 (Array.length t);
        out
      in
      ( (fun ctx inp ->
          let s = as_table (ci ctx inp) in
          (* peeks one tuple to decide between the null row and the
             marked stream; the forced cell is reused, not re-pulled *)
          Tab
            (fun () ->
              match s () with
              | Seq.Nil ->
                  let t = Array.make width [] in
                  t.(0) <- true_flag;
                  Seq.Cons (t, Seq.empty)
              | Seq.Cons (t, rest) -> Seq.Cons (mark t, Seq.map mark rest))),
        q :: li )
  | P.PMapConcat (dep, input) ->
      let ci, li = compile env input in
      let cd, ld = compile { env with layout = li } dep in
      let out, width, moves = concat_spec li ld in
      let n1 = List.length li in
      ( (fun ctx inp ->
          Tab
            (Seq.concat_map
               (fun t ->
                 Seq.map
                   (fun d -> apply_concat n1 width moves t d)
                   (as_table (cd ctx (ITuple t))))
               (as_table (ci ctx inp)))),
        out )
  | P.POMapConcat (q, dep, input) ->
      let ci, li = compile env input in
      let cd, ld = compile { env with layout = li } dep in
      let merged, mwidth, moves = concat_spec li ld in
      let out = q :: merged in
      let width = 1 + mwidth in
      let n1 = List.length li in
      let unmatched t =
        let o = Array.make width [] in
        o.(0) <- true_flag;
        Array.blit t 0 o 1 n1;
        o
      in
      let matched t d =
        let m = apply_concat n1 mwidth moves t d in
        let o = Array.make width [] in
        o.(0) <- false_flag;
        Array.blit m 0 o 1 mwidth;
        o
      in
      ( (fun ctx inp ->
          Tab
            (Seq.concat_map
               (fun t () ->
                 match as_table (cd ctx (ITuple t)) () with
                 | Seq.Nil -> Seq.Cons (unmatched t, Seq.empty)
                 | Seq.Cons (d, rest) -> Seq.Cons (matched t d, Seq.map (matched t) rest))
               (as_table (ci ctx inp)))),
        out )
  | P.PMapIndex (q, input) | P.PMapIndexStep (q, input) ->
      let ci, li = compile env input in
      ( (fun ctx inp ->
          Tab
            (Seq.mapi
               (fun i t ->
                 let out = Array.make (1 + Array.length t) [] in
                 out.(0) <- [ Item.Atom (Atomic.Integer (i + 1)) ];
                 Array.blit t 0 out 1 (Array.length t);
                 out)
               (as_table (ci ctx inp)))),
        q :: li )
  | P.POrderBy (specs, input) ->
      let ci, li = compile env input in
      let cspecs =
        List.map
          (fun (s : P.psort_spec) ->
            (fst (compile { env with layout = li } s.P.pskey), s.P.psdir, s.P.psempty))
          specs
      in
      ( (fun ctx inp ->
          let tuples = table_list (ci ctx inp) in
          tab_list (order_by ctx cspecs tuples)),
        li )
  | P.PGroupBy (g, input) -> compile_groupby env ~adopt g input
  | P.PMapFromItem (dep, input) -> (
      (* when the input is an order-preserving step chain, feed the tuple
         pipeline from the lazy item cursor so the path pulls node by
         node instead of materializing the whole step output first *)
      let cursor =
        if !force_materialize then None
        else
          match input.P.pop with
          | P.PSteps { steps; ordered = true; input = src; _ } when steps <> [] ->
              let csrc, _ = compile env src in
              let pipe = compile_cursor_steps ~parent:input steps in
              Some
                (fun ctx inp ->
                  match as_items (csrc ctx inp) with
                  | ([] | [ Item.Node _ ]) as items ->
                      Some (pipe ctx (List.to_seq items))
                  | _ -> None)
          | _ -> None
      in
      (* a tuple constructor yields exactly one tuple per item *)
      let expand cd ctx items =
        match dep.P.pop with
        | P.PTupleConstruct _ ->
            Seq.map
              (fun it ->
                match as_table (cd ctx (IItems [ it ])) () with
                | Seq.Cons (t, _) -> t
                | Seq.Nil -> dynamic_error "tuple constructor produced no tuple")
              items
        | _ -> Seq.concat_map (fun it -> as_table (cd ctx (IItems [ it ]))) items
      in
      match cursor with
      | Some cur ->
          let cd, ld = compile { env with layout = [] } dep in
          let strict = lazy (fst (compile env input)) in
          ( (fun ctx inp ->
              let items =
                match cur ctx inp with
                | Some s -> s
                | None ->
                    (* source wasn't a single node: the chain may reorder
                       or duplicate, fall back to the strict evaluation *)
                    List.to_seq (as_items ((Lazy.force strict) ctx inp))
              in
              Tab (expand cd ctx items)),
            ld )
      | None ->
          let ci, _ = compile env input in
          let cd, ld = compile { env with layout = [] } dep in
          ((fun ctx inp -> Tab (expand cd ctx (List.to_seq (as_items (ci ctx inp))))), ld))
  | P.PMapToItem (dep, input) ->
      let ci, li =
        compile { env with adopt = adopted_group env ~adopt dep input } input
      in
      let cd, _ = compile { env with layout = li; adopt } dep in
      ( (fun ctx inp ->
          let s = as_table (ci ctx inp) in
          Xml
            (List.rev
               (Seq.fold_left
                  (fun acc t -> List.rev_append (as_items (cd ctx (ITuple t))) acc)
                  [] s))),
        [] )
  | P.PMapSome (dep, input) ->
      let ci, li = compile env input in
      let cd, _ = compile { env with layout = li } dep in
      ( (fun ctx inp ->
          Xml
            [
              Item.Atom
                (Atomic.Boolean
                   (Seq.exists (fun t -> ebv (cd ctx (ITuple t))) (as_table (ci ctx inp))));
            ]),
        [] )
  | P.PMapEvery (dep, input) ->
      let ci, li = compile env input in
      let cd, _ = compile { env with layout = li } dep in
      ( (fun ctx inp ->
          Xml
            [
              Item.Atom
                (Atomic.Boolean
                   (Seq.for_all (fun t -> ebv (cd ctx (ITuple t))) (as_table (ci ctx inp))));
            ]),
        [] )

and generic_call env name (args : P.t list) : comp =
  let cargs = List.map (fun a -> fst (compile env a)) args in
  let builtin = Builtins.find name in
  fun ctx inp ->
    let vals = List.map (fun c -> as_items (c ctx inp)) cargs in
    match Hashtbl.find_opt ctx.functions name with
    | Some f ->
        if List.length f.func_params <> List.length vals then
          dynamic_error "%s called with %d arguments, expected %d" name
            (List.length vals) (List.length f.func_params);
        Xml (f.func_impl ctx vals)
    | None -> (
        match builtin with
        | Some f -> Xml (f ctx vals)
        | None -> dynamic_error "unknown function %s" name)

(* Streaming builtin calls, planned as [PCallStream]: the first argument
   is a [PSteps] chain.  User declarations shadow builtins at run time,
   so the closures re-check the function table on every call and defer to
   a lazily compiled generic path when shadowed (compiled at most once,
   outside any instrumentation). *)
and compile_stream_call env (kind : P.stream_call) name (args : P.t list) : comp =
  let chain =
    match args with
    | ({ P.pop = P.PSteps { steps; input; _ }; _ } as snode) :: rest when steps <> [] ->
        Some (snode, steps, input, rest)
    | _ -> None
  in
  match chain with
  | None -> generic_call env name args
  | Some (snode, steps, src, rest) -> (
      let fallback = lazy (generic_call env name args) in
      match (kind, rest) with
      | P.SExists negate, [] ->
          (* emptiness is insensitive to order and duplicates, so any
             axis chain streams; the first pull decides the answer — and
             a one-step name chain over indexed trees needs no pull at
             all, just the index's range bounds *)
          let csrc, _ = compile env src in
          let pipe = compile_cursor_steps ~parent:snode steps in
          let probe = index_exists_probe steps in
          fun ctx inp ->
            if Hashtbl.mem ctx.functions name then (Lazy.force fallback) ctx inp
            else
              let items = as_items (csrc ctx inp) in
              let indexed =
                match probe with
                | None -> None
                | Some p ->
                    (* existence over many source nodes is a disjunction,
                       so nesting/duplicates are harmless; any
                       unanswerable node means stream *)
                    let rec go = function
                      | [] -> Some false
                      | Item.Node n :: rest -> (
                          match p n with
                          | Some true -> Some true
                          | Some false -> go rest
                          | None -> None)
                      | Item.Atom _ :: _ -> None
                    in
                    go items
              in
              let nonempty =
                match indexed with
                | Some b -> b
                | None -> not (Seq.is_empty (pipe ctx (List.to_seq items)))
              in
              Xml [ Item.Atom (Atomic.Boolean (if negate then not nonempty else nonempty)) ]
      | P.SCount, [] -> (
          (* exact cardinality from the index range: only for a one-step
             name chain over a single source node, where the step output
             is duplicate-free by construction *)
          match index_count_probe steps with
          | None -> generic_call env name args
          | Some probe ->
              let csrc, _ = compile env src in
              fun ctx inp ->
                if Hashtbl.mem ctx.functions name then (Lazy.force fallback) ctx inp
                else
                  match as_items (csrc ctx inp) with
                  | [] -> Xml [ Item.Atom (Atomic.Integer 0) ]
                  | [ Item.Node n ] -> (
                      match probe n with
                      | Some k -> Xml [ Item.Atom (Atomic.Integer k) ]
                      | None -> (Lazy.force fallback) ctx inp)
                  | _ -> (Lazy.force fallback) ctx inp)
      | P.SSubseq, [ start; len ] ->
          let csrc, _ = compile env src in
          let pipe = compile_cursor_steps ~parent:snode steps in
          let cstart, _ = compile env start in
          let clen, _ = compile env len in
          let to_int c ctx inp =
            match Item.atomize (as_items (c ctx inp)) with
            | [ a ] -> int_of_float (Option.value ~default:0.0 (Atomic.to_float a))
            | _ -> dynamic_error "fn:subsequence: argument is not a single atomic value"
          in
          fun ctx inp ->
            if Hashtbl.mem ctx.functions name then (Lazy.force fallback) ctx inp
            else begin
              let st = to_int cstart ctx inp and n = to_int clen ctx inp in
              match as_items (csrc ctx inp) with
              | ([] | [ Item.Node _ ]) as items ->
                  (* pull only the first st+n-1 items of the path *)
                  let s = pipe ctx (List.to_seq items) in
                  let keep =
                    Seq.filter_map
                      (fun (i, it) -> if i + 1 >= st then Some it else None)
                      (Seq.mapi (fun i it -> (i, it)) (Seq.take (max 0 (st + n - 1)) s))
                  in
                  Xml (List.of_seq keep)
              | _ -> (Lazy.force fallback) ctx inp
            end
      | _ -> generic_call env name args)

and order_by ctx cspecs tuples =
  (* evaluate all keys once, classifying each into its typed comparison
     class ([Promotion.order_key]) — pairwise fs:convert-operand is not
     transitive over mixed-type keys, the per-class comparison is *)
  let classify a =
    match Promotion.order_key a with
    | k -> k
    | exception Promotion.Type_mismatch _ ->
        dynamic_error "order by: incomparable values"
  in
  let keyed =
    List.map
      (fun t ->
        let keys =
          List.map
            (fun (ck, _, _) ->
              match Item.atomize (as_items (ck ctx (ITuple t))) with
              | [] -> None
              | [ a ] -> Some (classify a)
              | _ -> dynamic_error "order by key is not a singleton")
            cspecs
        in
        (keys, t))
      tuples
  in
  let dirs = List.map (fun (_, d, e) -> (d, e)) cspecs in
  let compare_keys ks1 ks2 =
    let rec go ks1 ks2 dirs =
      match (ks1, ks2, dirs) with
      | [], [], [] -> 0
      | k1 :: r1, k2 :: r2, (dir, empty) :: rd ->
          let c =
            match (k1, k2) with
            | None, None -> 0
            | None, Some _ -> ( match empty with Ast.Empty_least -> -1 | Ast.Empty_greatest -> 1)
            | Some _, None -> ( match empty with Ast.Empty_least -> 1 | Ast.Empty_greatest -> -1)
            | Some a, Some b -> (
                match Promotion.compare_order_keys a b with
                | c -> c
                | exception Promotion.Type_mismatch _ ->
                    dynamic_error "order by: incomparable values")
          in
          let c = match dir with Ast.Ascending -> c | Ast.Descending -> -c in
          if c <> 0 then c else go r1 r2 rd
      | _ -> 0
    in
    go ks1 ks2 dirs
  in
  List.map snd (List.stable_sort (fun (k1, _) (k2, _) -> compare_keys k1 k2) keyed)

(* [adopt]: this GroupBy's aggregate is adopted by its reader (see
   [adopted_group]), so the pre plan builds it fresh. *)
and compile_groupby env ~adopt (g : P.pgroup_spec) input =
  let ci, li =
    compile { env with adopt = adopted_group env ~adopt g.P.pg_pre input } input
  in
  let cpre, _ = compile { env with layout = li; adopt } g.P.pg_pre in
  let cpost, _ = compile { env with layout = [] } g.P.pg_post in
  let index_slots =
    List.map
      (fun q ->
        match field_index li q with
        | Some i -> i
        | None -> compile_error "GroupBy index field #%s not in layout" q)
      g.P.pg_indices
  in
  let null_slots =
    List.map
      (fun q ->
        match field_index li q with
        | Some i -> i
        | None -> compile_error "GroupBy null field #%s not in layout" q)
      g.P.pg_nulls
  in
  let width = List.length li + 1 in
  let out_layout = li @ [ g.P.pg_agg ] in
  ( (fun ctx inp ->
      let tuples = table_list (ci ctx inp) in
      let is_null t =
        List.exists (fun i -> Item.effective_boolean_value t.(i)) null_slots
      in
      let pre_of t = if is_null t then [] else as_items (cpre ctx (ITuple t)) in
      let emit first items =
        let out = Array.make width [] in
        Array.blit first 0 out 0 (Array.length first);
        out.(width - 1) <- as_items (cpost ctx (IItems items));
        out
      in
      match index_slots with
      | [] -> (
          (* no grouping criteria: the whole input is one partition — this
             is what makes the (insert group-by) rewriting an identity *)
          match tuples with
          | [] -> Tab Seq.empty
          | first :: _ ->
              Tab (Seq.return (emit first (List.concat_map pre_of tuples))))
      | slots ->
          let key_of t =
            String.concat "\x00"
              (List.map
                 (fun i -> String.concat "," (List.map Item.string_value t.(i)))
                 slots)
          in
          let partitions : (string, tuple * Item.sequence list ref) Hashtbl.t =
            Hashtbl.create 64
          in
          let order = ref [] in
          List.iter
            (fun t ->
              let k = key_of t in
              match Hashtbl.find_opt partitions k with
              | Some (_, items) -> items := pre_of t :: !items
              | None ->
                  Hashtbl.add partitions k (t, ref [ pre_of t ]);
                  order := k :: !order)
            tuples;
          tab_list
            (List.rev_map
               (fun k ->
                 let first, items = Hashtbl.find partitions k in
                 emit first (List.concat (List.rev !items)))
               !order)),
    out_layout )

(* The builder's top node is a join's mirror; its join_stats record is
   shared with the Joins kernels (hash/sort) or updated inline for the
   nested-loop paths. *)
and join_scaffold env (outer : P.field option) a b : join_parts =
  let jstats =
    match current_builder () with Some b -> Obs.top_join b | None -> None
  in
  let ca, la = compile env a and cb, lb = compile env b in
  let merged, mwidth, moves = concat_spec la lb in
  let n1 = List.length la in
  let is_outer = outer <> None in
  let out_layout = match outer with Some q -> q :: merged | None -> merged in
  let emit_match l r =
    let m = apply_concat n1 mwidth moves l r in
    if is_outer then (
      let o = Array.make (1 + mwidth) [] in
      o.(0) <- false_flag;
      Array.blit m 0 o 1 mwidth;
      o)
    else m
  in
  let emit_unmatched l =
    let o = Array.make (1 + mwidth) [] in
    o.(0) <- true_flag;
    Array.blit l 0 o 1 n1;
    o
  in
  let run left matches_of =
    Tab
      (Seq.concat_map
         (fun l ->
           match matches_of l with
           | [] -> if is_outer then Seq.return (emit_unmatched l) else Seq.empty
           | ms -> List.to_seq (List.map (emit_match l) ms))
         left)
  in
  {
    jp_stats = jstats;
    jp_left = ca;
    jp_llayout = la;
    jp_right = cb;
    jp_rlayout = lb;
    jp_merged = merged;
    jp_n1 = n1;
    jp_mwidth = mwidth;
    jp_moves = moves;
    jp_out = out_layout;
    jp_run = run;
  }

and compile_nested_loop env outer (pred : P.ppred) a b : comp * layout =
  let jp = join_scaffold env outer a b in
  let note_probe ms =
    (match jp.jp_stats with
    | Some js ->
        js.Obs.js_probes <- js.Obs.js_probes + 1;
        js.Obs.js_matches <- js.Obs.js_matches + List.length ms
    | None -> ());
    ms
  in
  match pred with
  | P.PWholePred p ->
      (* arbitrary predicates always run as an order-preserving NL join *)
      let cp, _ = compile { env with layout = jp.jp_merged } p in
      ( (fun ctx inp ->
          let left = as_table (jp.jp_left ctx inp) in
          let right = table_list (jp.jp_right ctx inp) in
          jp.jp_run left (fun l ->
              note_probe
                (List.filter_map
                   (fun r ->
                     let m = apply_concat jp.jp_n1 jp.jp_mwidth jp.jp_moves l r in
                     if ebv (cp ctx (ITuple m)) then Some r else None)
                   right))),
        jp.jp_out )
  | P.PSplitPred { op; left_key; right_key } ->
      let cl, _ = compile { env with layout = jp.jp_llayout } left_key in
      let cr, _ = compile { env with layout = jp.jp_rlayout } right_key in
      ( (fun ctx inp ->
          let left = as_table (jp.jp_left ctx inp) in
          let right = table_list (jp.jp_right ctx inp) in
          jp.jp_run left (fun l ->
              let lk = as_items (cl ctx (ITuple l)) in
              note_probe
                (List.filter
                   (fun r -> Promotion.general_compare op lk (as_items (cr ctx (ITuple r))))
                   right))),
        jp.jp_out )

and compile_hash_join env outer (build : P.build_side) left_key right_key a
    b : comp * layout =
  let jp = join_scaffold env outer a b in
  let cl, _ = compile { env with layout = jp.jp_llayout } left_key in
  let cr, _ = compile { env with layout = jp.jp_rlayout } right_key in
  match build with
  | P.Build_right ->
      ( (fun ctx inp ->
          let left = as_table (jp.jp_left ctx inp) in
          let right = table_list (jp.jp_right ctx inp) in
          let index =
            Joins.build_hash_index ?stats:jp.jp_stats right
              (fun r -> as_items (cr ctx (ITuple r)))
          in
          jp.jp_run left (fun l ->
              Joins.probe_hash_index ?stats:jp.jp_stats index
                (Item.atomize (as_items (cl ctx (ITuple l)))))),
        jp.jp_out )
  | P.Build_left ->
      (* build on the (estimated smaller) left side: index left keys,
         probe with each right tuple, and bucket the matching right
         tuples under their left position.  The output is then emitted
         left-major with matches in right order — exactly the pairs and
         order of the build-right form (the Table 2 acceptance check is
         symmetric), at the memory cost of the smaller side. *)
      ( (fun ctx inp ->
          let left = table_list (jp.jp_left ctx inp) in
          let right = table_list (jp.jp_right ctx inp) in
          let index =
            Joins.build_hash_index ?stats:jp.jp_stats left
              (fun l -> as_items (cl ctx (ITuple l)))
          in
          let buckets = Array.make (max 1 (List.length left)) [] in
          List.iter
            (fun r ->
              List.iter
                (fun o -> buckets.(o - 1) <- r :: buckets.(o - 1))
                (Joins.probe_hash_index_orders ?stats:jp.jp_stats index
                   (Item.atomize (as_items (cr ctx (ITuple r))))))
            right;
          let pos = ref 0 in
          jp.jp_run (List.to_seq left) (fun _l ->
              let i = !pos in
              incr pos;
              List.rev buckets.(i))),
        jp.jp_out )

and compile_sort_join env outer (op : Promotion.cmp_op) left_key right_key a b :
    comp * layout =
  (match op with
  | Promotion.Lt | Promotion.Le | Promotion.Gt | Promotion.Ge -> ()
  | Promotion.Eq | Promotion.Ne ->
      compile_error "sort join planned for a non-inequality operator");
  let jp = join_scaffold env outer a b in
  let cl, _ = compile { env with layout = jp.jp_llayout } left_key in
  let cr, _ = compile { env with layout = jp.jp_rlayout } right_key in
  ( (fun ctx inp ->
      let left = as_table (jp.jp_left ctx inp) in
      let right = table_list (jp.jp_right ctx inp) in
      let index =
        Joins.build_sort_index ?stats:jp.jp_stats right
          (fun r -> as_items (cr ctx (ITuple r)))
      in
      jp.jp_run left (fun l ->
          Joins.probe_sort_index ?stats:jp.jp_stats op index
            (Item.atomize (as_items (cl ctx (ITuple l)))))),
    jp.jp_out )

(* ------------------------------------------------------------------ *)
(* Whole-query evaluation                                              *)
(* ------------------------------------------------------------------ *)

(* Compile one plan with instrumentation when a collector is given: the
   annotated op_node tree is registered under [name] (replacing the tree
   from any previous run). *)
let compile_plan (stats : Obs.collector option) (name : string) (env : cenv)
    (p : P.t) : comp * layout =
  match stats with
  | None -> compile env p
  | Some c ->
      let b = Obs.builder () in
      let saved = current_builder () in
      set_current_builder (Some b);
      let finish () =
        set_current_builder saved;
        match Obs.builder_root b with
        | Some root -> Obs.set_plan c name root
        | None -> ()
      in
      (match compile env p with
      | r ->
          finish ();
          r
      | exception e ->
          finish ();
          raise e)

(* Install compiled user functions into the context, then evaluate the
   globals in declaration order, then run the main plan. *)
let install_query ?stats (ctx : Dynamic_ctx.t) (q : P.query) :
    Dynamic_ctx.t -> Item.sequence =
  List.iter
    (fun (f : P.pfunction) ->
      Hashtbl.replace ctx.functions f.P.pf_name
        { func_params = f.P.pf_params; func_impl = (fun _ _ -> dynamic_error "uncompiled function") })
    q.P.pfunctions;
  List.iter
    (fun (f : P.pfunction) ->
      let body, _ =
        compile_plan stats ("function " ^ f.P.pf_name) (top_env f.P.pf_body) f.P.pf_body
      in
      let impl ctx args =
        let frame = List.combine f.P.pf_params args in
        with_params ctx frame (fun () -> as_items (body ctx INone))
      in
      (Hashtbl.find ctx.functions f.P.pf_name).func_impl <- impl)
    q.P.pfunctions;
  let globals =
    List.map
      (fun (v, p) -> (v, fst (compile_plan stats ("global $" ^ v) (top_env p) p)))
      q.P.pglobals
  in
  let main, _ = compile_plan stats "main" (top_env q.P.pmain) q.P.pmain in
  fun ctx ->
    List.iter (fun (v, c) -> bind_global ctx v (as_items (c ctx INone))) globals;
    as_items (main ctx INone)

let run ?stats ctx (q : P.query) : Item.sequence =
  match stats with
  | None -> (install_query ctx q) ctx
  | Some c ->
      let runner =
        Obs.phase c "compile closures" (fun () -> install_query ~stats:c ctx q)
      in
      Obs.phase c "eval" (fun () -> runner ctx)
