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
module Codegen = Xqc_codegen.Codegen
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
  | Ast.Name_test name ->
      (* the principal node kind of the attribute axis is attribute *)
      let kind_ok =
        match axis with
        | Ast.Attribute_axis -> Node.kind n = Node.Kattribute
        | _ -> Node.kind n = Node.Kelement
      in
      kind_ok && (String.equal name "*" || Node.name n = Some name)

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

(* Element content assembly: attribute nodes become attributes, atomic
   values merge into space-separated text, nodes are deep-copied (XQuery
   constructor copy semantics), document nodes contribute their children. *)
let assemble_content (items : Item.sequence) : Node.t list * Node.t list =
  let attrs = ref [] and content = ref [] and atom_buf = ref [] in
  let flush () =
    if !atom_buf <> [] then (
      let s = String.concat " " (List.rev_map Atomic.to_string !atom_buf) in
      atom_buf := [];
      content := Node.text s :: !content)
  in
  List.iter
    (fun it ->
      match it with
      | Item.Atom a -> atom_buf := a :: !atom_buf
      | Item.Node n -> (
          flush ();
          match Node.kind n with
          | Node.Kattribute -> attrs := Node.copy n :: !attrs
          | Node.Kdocument ->
              List.iter (fun c -> content := Node.copy c :: !content) (Node.children n)
          | Node.Kelement | Node.Ktext | Node.Kcomment | Node.Kpi ->
              content := Node.copy n :: !content))
    items;
  flush ();
  (List.rev !attrs, List.rev !content)

let construct_element name (items : Item.sequence) : Item.t =
  let attrs, children = assemble_content items in
  let e = Node.element name ~attrs ~children in
  Node.renumber e;
  Item.Node e

let construct_attribute name (items : Item.sequence) : Item.t =
  let s = String.concat " " (List.map Item.string_value items) in
  Item.Node (Node.attribute name s)

(* ------------------------------------------------------------------ *)
(* Plan compilation                                                    *)
(* ------------------------------------------------------------------ *)

(* [drain]: the consumer of the subplan being compiled fully drains a
   tabular result — the fused tier may then replace a lazy Select/
   MapFromItem cursor with an eager tuple batch.  Cleared below
   early-terminating consumers (StreamSelect, MapSome/MapEvery) so
   their O(answer) pull bounds survive. *)
type cenv = { layout : layout; drain : bool }

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

(* Per-partition instrumentation for the parallel operators: [par]
   op_nodes registered as children of the current builder top (the
   operator being compiled), one per partition slot.  At run time
   partition task i records its row count and inclusive time into slot
   i only — each op_stats record has exactly one writing domain, so the
   parallel run needs no synchronization to keep EXPLAIN ANALYZE
   exact.  All-[None] when uninstrumented. *)
let partition_stats (par : int) (est : float) : Obs.op_stats option array =
  match current_builder () with
  | None -> Array.make par None
  | Some b ->
      Array.init par (fun i ->
          let n =
            Obs.push_node b ~stream:Obs.Streamed
              ~est:(est /. float_of_int par)
              (Printf.sprintf "Partition[%d/%d]" (i + 1) par)
          in
          Obs.pop_node b;
          Some n.Obs.on_stats)

let record_partition (st : Obs.op_stats option) (f : unit -> 'a list) : 'a list
    =
  match st with
  | None -> f ()
  | Some st ->
      let t0 = Obs.now () in
      let out = f () in
      st.Obs.op_secs <- st.Obs.op_secs +. (Obs.now () -. t0);
      st.Obs.op_calls <- st.Obs.op_calls + 1;
      st.Obs.op_items <- st.Obs.op_items + List.length out;
      out

(* ------------------------------------------------------------------ *)
(* Item-level cursors                                                  *)
(* ------------------------------------------------------------------ *)

(* Lazy axis application: descendant axes walk the subtree on demand so
   an existential consumer visits only the prefix it needs. *)
let axis_seq (axis : Ast.axis) (n : Node.t) : Node.t Seq.t =
  match axis with
  | Ast.Descendant -> Node.descendants_seq n
  | Ast.Descendant_or_self -> Node.descendant_or_self_seq n
  | a -> List.to_seq (apply_axis a n)

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
                  | None ->
                      Seq.filter_map
                        (fun m ->
                          if test_matches ctx.schema axis test m then Some (Item.Node m)
                          else None)
                        (axis_seq axis n))
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
  match compile_fused env p with
  | Some r -> r
  | None -> compile_interp env p

(* The fused tier.  When [Codegen.lower] can express this subplan as a
   flat program, the closure for the whole subtree is a single call into
   the bytecode executor; the interpreted twin of the same subtree is
   compiled lazily (at most once, outside any instrumentation) and
   spliced in when the program meets a runtime shape outside its static
   proof — a multi-node or atomic source, or a user declaration
   shadowing a builtin the program baked in.  Under the materialize
   ablation the tier is disabled outright: the equivalence suite
   compares it against the pure interpreter. *)
and compile_fused (env : cenv) (p : P.t) : (comp * layout) option =
  if !force_materialize then None
  else
    match Codegen.lower ~tab:env.drain p with
    | None -> None
    | Some prog ->
        let layout =
          match Codegen.tuple_field prog with Some q -> [ q ] | None -> []
        in
        let twin =
          lazy
            (let saved = current_builder () in
             set_current_builder None;
             Fun.protect
               ~finally:(fun () -> set_current_builder saved)
               (fun () -> fst (compile_interp env p)))
        in
        let run ctx inp =
          check_deadline ctx;
          let cg =
            {
              Codegen.e_schema = ctx.schema;
              e_lookup = (fun v -> lookup_variable ctx v);
              e_input =
                (fun () ->
                  match inp with
                  | IItems s -> s
                  | ITuple _ | INone -> raise Codegen.Fallback);
              e_shadowed = (fun nm -> Hashtbl.mem ctx.functions nm);
              e_check = (fun () -> check_deadline ctx);
              e_sum =
                (fun items ->
                  match Builtins.find "fn:sum" with
                  | Some f -> f ctx [ items ]
                  | None -> dynamic_error "unknown function fn:sum");
            }
          in
          (* The fused path honours the plan's parallelism budget too:
             when any operator under this segment was annotated, split
             the batch's elementwise prefix across the domain pool.  The
             partitioned entry re-gates on actual batch width and
             returns [None] for programs with no parallel prefix. *)
          let par =
            let d = P.max_par p in
            if d > 1 && Domain_pool.budget () > 1 then d else 1
          in
          try
            match Codegen.tuple_field prog with
            | None ->
                let items =
                  if par > 1 then
                    Codegen.exec_partitioned cg prog ~parts:par
                      ~min_width:!Par_exec.par_min_items
                      ~run:Domain_pool.run_thunks
                  else Codegen.exec cg prog
                in
                Xml items
            | Some _ ->
                let arr, len =
                  if par > 1 then
                    Codegen.exec_nodes_partitioned cg prog ~parts:par
                      ~min_width:!Par_exec.par_min_items
                      ~run:Domain_pool.run_thunks
                  else Codegen.exec_nodes cg prog
                in
                let rec pull i () =
                  if i >= len then Seq.Nil
                  else Seq.Cons ([| [ Item.Node arr.(i) ] |], pull (i + 1))
                in
                Tab (pull 0)
          with Codegen.Fallback ->
            Codegen.fallback_counter_incr ();
            (Lazy.force twin) ctx inp
        in
        let c =
          match current_builder () with
          | None -> run
          | Some b ->
              let node =
                Obs.push_node b ~stream:Obs.Blocking ~est:p.P.pest.P.est_rows
                  (Printf.sprintf "Fused[%d] %s"
                     (Codegen.instr_count prog)
                     (Pretty.physical_label p))
              in
              Obs.pop_node b;
              instrument node.Obs.on_stats run
        in
        Some (c, layout)

and compile_interp (env : cenv) (p : P.t) : comp * layout =
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
      let ca, _ = compile env a and cb, _ = compile env b in
      ((fun ctx inp -> Xml (as_items (ca ctx inp) @ as_items (cb ctx inp))), [])
  | P.PElement (name, content) ->
      let cc, _ = compile env content in
      ((fun ctx inp -> Xml [ construct_element name (as_items (cc ctx inp)) ]), [])
  | P.PAttribute (name, content) ->
      let cc, _ = compile env content in
      ((fun ctx inp -> Xml [ construct_attribute name (as_items (cc ctx inp)) ]), [])
  | P.PText content ->
      let cc, _ = compile env content in
      ( (fun ctx inp ->
          match as_items (cc ctx inp) with
          | [] -> Xml []
          | items ->
              Xml [ Item.Node (Node.text (String.concat " " (List.map Item.string_value items))) ]),
        [] )
  | P.PComment content ->
      let cc, _ = compile env content in
      ( (fun ctx inp ->
          Xml [ Item.Node (Node.comment (String.concat " " (List.map Item.string_value (as_items (cc ctx inp))))) ]),
        [] )
  | P.PPi (target, content) ->
      let cc, _ = compile env content in
      ( (fun ctx inp ->
          Xml [ Item.Node (Node.pi target (String.concat " " (List.map Item.string_value (as_items (cc ctx inp))))) ]),
        [] )
  | P.PSteps { steps; input; par; _ } ->
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
      (* When the planner granted a parallelism budget, also pre-register
         the per-partition op_nodes; the runtime still gates on the
         actual context width, so these stay at 0 calls when the input
         turns out narrow. *)
      let pstats =
        if par > 1 then
          partition_stats par
            (List.fold_left (fun e (s : P.pstep) -> max e s.P.ps_est) 0. steps)
        else [||]
      in
      let run_seq ctx items =
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
      ( (fun ctx inp ->
          let items = as_items (ci ctx inp) in
          (* Partitioned run: chunks of the context sequence each
             evaluate the whole step chain on their own domain (per-step
             stats are skipped — partition slots report instead), then
             merge.  See par_exec.ml for the order argument. *)
          let run_chunked chunks =
            Xml
              (Par_exec.merge_node_items
                 (Par_exec.run_chunks ~ctx
                    ~task:(fun i tctx chunk ->
                      let record =
                        if Array.length pstats = 0 then fun f -> f ()
                        else
                          record_partition pstats.(i mod Array.length pstats)
                      in
                      record (fun () ->
                          List.fold_left
                            (fun items (s, _) -> step_join tctx.schema s items)
                            chunk comps))
                    chunks))
          in
          (* A multi-document context (fn:collection) fans out one chunk
             per document regardless of width — whole documents are the
             unit of work, and chunk-order concatenation preserves the
             collection's binding order.  Single-document contexts keep
             the width-gated contiguous chunking. *)
          let doc_chunks =
            if par > 1 && Domain_pool.budget () > 1 then
              Par_exec.chunk_by_root items
            else None
          in
          match doc_chunks with
          | Some chunks -> run_chunked chunks
          | None ->
              if not (Par_exec.eligible ~par (List.length items)) then
                Xml (run_seq ctx items)
              else run_chunked (Par_exec.chunk par items)),
        [] )
  | P.PTreeProject (paths, input) ->
      let ci, _ = compile env input in
      ((fun ctx inp -> Xml (Projection.project ctx.schema paths (as_items (ci ctx inp)))), [])
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
      let ct, lt = compile env t in
      let ce, _ = compile env e in
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
          Array.iteri (fun i c -> t.(i) <- as_items (c ctx inp)) comps;
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
      let cp, _ = compile { layout = li; drain = env.drain } pred in
      ( (fun ctx inp ->
          Tab (Seq.filter (fun t -> ebv (cp ctx (ITuple t))) (as_table (ci ctx inp)))),
        li )
  | P.PStreamSelect { pred; bound; input } ->
      (* positional early termination, decided by the planner: the input
         cursor is cut after [bound] tuples (the index field always sits
         in slot 0 of a MapIndex output), then the prefix is filtered.
         The cut is sound in both streamed and materialized execution:
         the predicate implies the bound. *)
      let ci, li = compile { env with drain = false } input in
      let cp, _ = compile { layout = li; drain = env.drain } pred in
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
      and cb, lb = compile { env with drain = true } b in
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
  | P.PHashJoin { outer; build; par; left_key; right_key; left; right } ->
      compile_hash_join env outer build par left_key right_key left right
  | P.PSortJoin { outer; op; left_key; right_key; left; right } ->
      compile_sort_join env outer op left_key right_key left right
  | P.PMaterialize inner ->
      (* explicit pipeline cut: drain the child cursor to a list at call
         time (join/product build sides) *)
      let ci, li = compile { env with drain = true } inner in
      ( (fun ctx inp ->
          match ci ctx inp with Xml _ as v -> v | Tab s -> tab_list (List.of_seq s)),
        li )
  | P.PMap (dep, input) ->
      let ci, li = compile env input in
      let cd, ld = compile { layout = li; drain = env.drain } dep in
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
      let cd, ld = compile { layout = li; drain = env.drain } dep in
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
      let cd, ld = compile { layout = li; drain = env.drain } dep in
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
      let ci, li = compile { env with drain = true } input in
      let cspecs =
        List.map
          (fun (s : P.psort_spec) ->
            (fst (compile { layout = li; drain = env.drain } s.P.pskey), s.P.psdir, s.P.psempty))
          specs
      in
      ( (fun ctx inp ->
          let tuples = table_list (ci ctx inp) in
          tab_list (order_by ctx cspecs tuples)),
        li )
  | P.PGroupBy (g, input) -> compile_groupby env g input
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
      match cursor with
      | Some cur ->
          let cd, ld = compile { layout = []; drain = env.drain } dep in
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
              Tab (Seq.concat_map (fun it -> as_table (cd ctx (IItems [ it ]))) items)),
            ld )
      | None ->
          let ci, _ = compile env input in
          let cd, ld = compile { layout = []; drain = env.drain } dep in
          ( (fun ctx inp ->
              let items = as_items (ci ctx inp) in
              Tab
                (Seq.concat_map
                   (fun it -> as_table (cd ctx (IItems [ it ])))
                   (List.to_seq items))),
            ld ))
  | P.PMapToItem (dep, input) ->
      let ci, li = compile { env with drain = true } input in
      let cd, _ = compile { layout = li; drain = env.drain } dep in
      ( (fun ctx inp ->
          let s = as_table (ci ctx inp) in
          Xml
            (List.concat
               (List.rev
                  (Seq.fold_left (fun acc t -> as_items (cd ctx (ITuple t)) :: acc) [] s)))),
        [] )
  | P.PMapSome (dep, input) ->
      let ci, li = compile { env with drain = false } input in
      let cd, _ = compile { layout = li; drain = env.drain } dep in
      ( (fun ctx inp ->
          Xml
            [
              Item.Atom
                (Atomic.Boolean
                   (Seq.exists (fun t -> ebv (cd ctx (ITuple t))) (as_table (ci ctx inp))));
            ]),
        [] )
  | P.PMapEvery (dep, input) ->
      let ci, li = compile { env with drain = false } input in
      let cd, _ = compile { layout = li; drain = env.drain } dep in
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

and compile_groupby env (g : P.pgroup_spec) input =
  let ci, li = compile { env with drain = true } input in
  let cpre, _ = compile { layout = li; drain = env.drain } g.P.pg_pre in
  let cpost, _ = compile { layout = []; drain = env.drain } g.P.pg_post in
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
      let cp, _ = compile { layout = jp.jp_merged; drain = env.drain } p in
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
      let cl, _ = compile { layout = jp.jp_llayout; drain = env.drain } left_key in
      let cr, _ = compile { layout = jp.jp_rlayout; drain = env.drain } right_key in
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

and compile_hash_join env outer (build : P.build_side) par left_key right_key a
    b : comp * layout =
  let jp = join_scaffold env outer a b in
  let cl, _ = compile { layout = jp.jp_llayout; drain = env.drain } left_key in
  let cr, _ = compile { layout = jp.jp_rlayout; drain = env.drain } right_key in
  (* Per-partition op_nodes for the parallel probe phase (EXPLAIN
     ANALYZE); created at compile time while this join is the builder
     top, all-[None] otherwise. *)
  let pstats = if par > 1 then partition_stats par 0. else [||] in
  (* Build-side key extraction, partitioned when the side is wide
     enough.  [build_hash_index] calls its key function exactly once per
     tuple, in list order, so precomputed keys can be replayed
     positionally — the index (insertion orders included) is then
     byte-identical to the sequential build.  Key-evaluation races are
     avoided by giving each chunk its own cloned context; the join
     counters in [jp_stats] are skipped on this path (they would need
     synchronization) and instead absorbed by the sequential insertion
     pass below. *)
  let build_keys ctx comp tuples =
    if not (Par_exec.eligible ~par (List.length tuples)) then None
    else
      Some
        (Array.of_list
           (List.concat
              (Par_exec.run_partitions ~par ~ctx
                 ~task:(fun _ tctx chunk ->
                   List.map (fun t -> as_items (comp tctx (ITuple t))) chunk)
                 tuples)))
  in
  let build_index ctx comp tuples =
    match build_keys ctx comp tuples with
    | None ->
        Joins.build_hash_index ?stats:jp.jp_stats tuples
          (fun t -> as_items (comp ctx (ITuple t)))
    | Some keys ->
        let pos = ref (-1) in
        Joins.build_hash_index ?stats:jp.jp_stats tuples
          (fun _ ->
            incr pos;
            keys.(!pos))
  in
  match build with
  | P.Build_right when par > 1 ->
      (* Partitioned probe: materialize both sides, build the index
         once (parallel key extraction when profitable), then probe
         contiguous chunks of the outer side concurrently.  Each chunk
         produces its (probe tuple, matches) pairs in probe order, so
         chunk concatenation replayed through [jp_run] emits exactly
         the sequential left-major output.  Falls back to the plain
         streamed form when the outer side is narrow. *)
      ( (fun ctx inp ->
          let left = table_list (jp.jp_left ctx inp) in
          let right = table_list (jp.jp_right ctx inp) in
          if not (Par_exec.eligible ~par (List.length left)) then
            let index = build_index ctx cr right in
            jp.jp_run (List.to_seq left) (fun l ->
                Joins.probe_hash_index ?stats:jp.jp_stats index
                  (Item.atomize (as_items (cl ctx (ITuple l)))))
          else begin
            let index = build_index ctx cr right in
            let matches =
              Array.of_list
                (List.concat
                   (Par_exec.run_partitions ~par ~ctx
                      ~task:(fun i tctx chunk ->
                        record_partition pstats.(i) (fun () ->
                            List.map
                              (fun l ->
                                Joins.probe_hash_index index
                                  (Item.atomize
                                     (as_items (cl tctx (ITuple l)))))
                              chunk))
                      left))
            in
            let pos = ref (-1) in
            jp.jp_run (List.to_seq left) (fun _l ->
                incr pos;
                matches.(!pos))
          end),
        jp.jp_out )
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
         symmetric), at the memory cost of the smaller side.

         Under a [par] budget the probe phase partitions the right side:
         each chunk computes its (right tuple, matching left orders)
         pairs concurrently — [probe_hash_index_orders] returns global
         build positions, so chunk results bucket directly — and the
         cheap bucketing pass replays them sequentially in right order,
         preserving the exact sequential output. *)
      ( (fun ctx inp ->
          let left = table_list (jp.jp_left ctx inp) in
          let right = table_list (jp.jp_right ctx inp) in
          let index = build_index ctx cl left in
          let buckets = Array.make (max 1 (List.length left)) [] in
          (if Par_exec.eligible ~par (List.length right) then
             let pairs =
               List.concat
                 (Par_exec.run_partitions ~par ~ctx
                    ~task:(fun i tctx chunk ->
                      record_partition pstats.(i) (fun () ->
                          List.map
                            (fun r ->
                              ( r,
                                Joins.probe_hash_index_orders index
                                  (Item.atomize
                                     (as_items (cr tctx (ITuple r)))) ))
                            chunk))
                    right)
             in
             List.iter
               (fun (r, orders) ->
                 List.iter
                   (fun o -> buckets.(o - 1) <- r :: buckets.(o - 1))
                   orders)
               pairs
           else
             List.iter
               (fun r ->
                 List.iter
                   (fun o -> buckets.(o - 1) <- r :: buckets.(o - 1))
                   (Joins.probe_hash_index_orders ?stats:jp.jp_stats index
                      (Item.atomize (as_items (cr ctx (ITuple r))))))
               right);
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
  let cl, _ = compile { layout = jp.jp_llayout; drain = env.drain } left_key in
  let cr, _ = compile { layout = jp.jp_rlayout; drain = env.drain } right_key in
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
        compile_plan stats ("function " ^ f.P.pf_name) { layout = []; drain = true } f.P.pf_body
      in
      let impl ctx args =
        let frame = List.combine f.P.pf_params args in
        with_params ctx frame (fun () -> as_items (body ctx INone))
      in
      (Hashtbl.find ctx.functions f.P.pf_name).func_impl <- impl)
    q.P.pfunctions;
  let globals =
    List.map
      (fun (v, p) -> (v, fst (compile_plan stats ("global $" ^ v) { layout = []; drain = true } p)))
      q.P.pglobals
  in
  let main, _ = compile_plan stats "main" { layout = []; drain = true } q.P.pmain in
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
