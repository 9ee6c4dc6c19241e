(* Physical evaluation of planned (physical) algebra plans.

   Plans are compiled to OCaml closures.  Tuples are value arrays and every
   IN#q access is resolved to an integer slot at compile time — the paper
   attributes much of the algebra's speedup over the old AST interpreter to
   this "replacement of dynamic lookups in the dynamic context by direct
   compiled memory access".

   The evaluator dispatches on the physical algebra produced by the
   cost-based planner and re-makes no strategy decision: the join
   algorithm and its build side and the streaming builtin calls all
   arrive encoded in the plan.  Whether a step reads the structural
   index is fixed by its shape ([Physical.index_step]), the same
   predicate the planner costs by.

   The tabular arm of [dval] is a pull-based cursor ([tuple Seq.t]):
   Select/Map/MapConcat/OMapConcat/MapIndex chains fuse into lazy stream
   transformers that never materialize intermediate tables, and tuples
   flow only as the consumer pulls.  Materialization happens at join and
   product build sides, each drained to a list at operator call, and at
   the genuinely blocking operators — OrderBy, GroupBy, and the
   item-producing sinks (MapToItem, serialization).  Existential
   consumers (MapSome/MapEvery, streamed fn:exists/fn:empty, streamed
   fn:subsequence) stop pulling after the prefix they need, turning
   O(document) scans into O(answer).

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

(* [List.to_seq (List.map f l)] without the mapped list: [f] is applied
   to each element as it is pulled. *)
let map_to_seq (f : 'a -> 'b) (l : 'a list) : 'b Seq.t =
  let rec go l () = match l with [] -> Seq.Nil | x :: rest -> Seq.Cons (f x, go rest) in
  go l

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

(* Indexed fast path for a single axis step: a step of the indexed
   shape ([P.index_step]: a descendant[-or-self] name test) resolves
   against the document store's interval-encoded name indexes (a
   binary-searched nid range instead of a subtree walk).
   [index_resolver] makes the store resolver of one step invocation,
   [None] for every other step.  The store then answers [None] per node
   to send that node to the walking path (unindexed trees). *)
let index_resolver (axis : Ast.axis) (test : Ast.node_test) : (Store.resolver * bool) option =
  Option.map (fun (name, self) -> (Store.resolver name, self)) (P.index_step axis test)

(* Matches are accumulated in traversal order: child/descendant axis
   output over already-sorted input is itself in document order, so the
   closing [sort_doc_order] hits its O(n) already-sorted fast path on the
   common case and only pays for a sort when an axis actually disturbs
   the order (parent, ancestor, multiple nested sources).  The
   structural index is tried first, each node it cannot serve walked. *)
let tree_join schema axis test (input : Item.sequence) : Item.sequence =
  if input = [] then []
  else
  let out = ref [] in
  let resolver = index_resolver axis test in
  List.iter
    (fun it ->
      match it with
      | Item.Node n -> (
          match match resolver with Some (r, self) -> Store.descendants ~self r n | None -> None with
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

(* GroupBy keys.  When every index cell of every tuple is one xs:integer
   — always so for MapIndex / MapIndexStep fields — and the keys never
   decrease, GroupBy groups adjacent runs; otherwise it hash-partitions,
   and counts that here. *)
let c_hash_partitions = Obs.global_counter "groupby_hash_partitions"

let compare_int_keys = List.compare Int.compare

(* Each tuple paired with its integer key, if every key is one and they
   never decrease. *)
let ascending_int_keys (slots : int list) (tuples : tuple list) : (int list * tuple) list option =
  let int_key t =
    List.fold_right
      (fun i key ->
        match (key, t.(i)) with
        | Some ks, [ Item.Atom (Atomic.Integer n) ] -> Some (n :: ks)
        | _ -> None)
      slots (Some [])
  in
  let rec go prev acc = function
    | [] -> Some (List.rev acc)
    | t :: rest -> (
        match int_key t with
        | Some k when compare_int_keys prev k <= 0 -> go k ((k, t) :: acc) rest
        | Some _ | None -> None)
  in
  go [] [] tuples

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
   being compiled.

   [profile]: the run's profile.  [compile] wraps every operator's
   closure to count into the profile's record for that plan node, and
   the step chains, joins and cursors count into theirs.  Only the
   closures of a timed profile read the clock. *)
type cenv = {
  layout : layout;
  adopt : bool;
  uses : string -> int;
  profile : Obs.profile;
}

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

let top_env (profile : Obs.profile) (p : P.t) : cenv =
  { layout = []; adopt = false; uses = field_uses p; profile }

let node_stats (env : cenv) (id : int) : Obs.op_stats = Obs.op_stats_of env.profile id
let timed (env : cenv) : bool = env.profile.Obs.pf_timed

(* Does [p], compiled with adopt flag [adopt], read field [q] in adopt
   position?  Follows exactly the propagation of [compile_node]; a
   nested tuple operator evaluates its reads against its own input, so
   the walk stops there. *)
let rec reads_adopted (q : string) (adopt : bool) (p : P.t) : bool =
  match p.P.pop with
  | P.PFieldAccess f -> adopt && String.equal f q
  | P.PSeq ps -> List.exists (reads_adopted q adopt) ps
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
   at call time and every step chain a pulling consumer reads runs the
   strict fold, with no cursor and no index probe ([compile_pulled]),
   restoring the fully materialized evaluation the streaming pipeline
   replaced.  Used by the equivalence tests (streamed and materialized
   runs must agree; [test_equivalence]'s bounded-pull cases use it as the
   early-exit baseline).
   Affects plans compiled while the flag is set; the physical plan itself
   is unchanged, only its execution is strict.  Read only by [compile]
   and [compile_pulled]. *)
let force_materialize = ref false

let materialize_comp (c : comp) : comp =
 fun ctx inp ->
  match c ctx inp with
  | Xml _ as v -> v
  | Tab s -> tab_list (List.of_seq s)

(* [f], each call's time added to [st]: the timed form of a closure,
   chosen once when the closure is compiled, so an untimed run never
   tests for it. *)
let timed_fn (st : Obs.op_stats) (f : 'a -> 'b -> 'c) : 'a -> 'b -> 'c =
 fun x y ->
  let t0 = Obs.now () in
  let v = f x y in
  st.Obs.op_secs <- st.Obs.op_secs +. (Obs.now () -. t0);
  v

(* One output tuple of [st]'s operator.  A tuple operator counts its
   output itself, as the consumer pulls it, in the function it already
   applies per tuple, so no cursor is wrapped to count it. *)
let out_tuple (st : Obs.op_stats) (t : tuple) : tuple =
  st.Obs.op_tuples <- st.Obs.op_tuples + 1;
  t

(* [tab_list l], each tuple counted as it is pulled. *)
let counted_tab_list (st : Obs.op_stats) (l : tuple list) : dval = Tab (map_to_seq (out_tuple st) l)

(* [Seq.concat_map f s], each output tuple counted as it is pulled. *)
let counted_concat_map (st : Obs.op_stats) (f : 'a -> tuple Seq.t) (s : 'a Seq.t) : dval =
  let rec outer s () = match s () with Seq.Nil -> Seq.Nil | Seq.Cons (x, rest) -> inner (f x) rest ()
  and inner ts rest () =
    match ts () with
    | Seq.Nil -> outer rest ()
    | Seq.Cons (t, ts) -> Seq.Cons (out_tuple st t, inner ts rest)
  in
  Tab (outer s)

(* Every operator's closure but a leaf read's checks the deadline and
   counts its calls and, for an item sequence, its output items; tuple
   operators count their own output (see [out_tuple]).  The deadline
   check is the cooperative cancellation point: dependent sub-plans
   (per-tuple predicates, map bodies, join predicate legs) are invoked
   once per tuple, so a deadline-armed context unwinds within one
   operator's work; with no deadline — every context except the query
   server's — it is a single field load.  A timed run adds each call's
   and each tuple pull's inclusive time. *)
let instrument ~timed (st : Obs.op_stats) (c : comp) : comp =
  let counted ctx inp =
    check_deadline ctx;
    st.Obs.op_calls <- st.Obs.op_calls + 1;
    match c ctx inp with
    | Xml s as v ->
        st.Obs.op_items <- st.Obs.op_items + List.length s;
        v
    | Tab _ as v -> v
  in
  if not timed then counted
  else
    let counted = timed_fn st counted in
    fun ctx inp -> match counted ctx inp with Xml _ as v -> v | Tab t -> Tab (Obs.timed_seq st t)

(* ------------------------------------------------------------------ *)
(* Item-level cursors                                                  *)
(* ------------------------------------------------------------------ *)

(* One walked step from [n], as a cursor of [out m] for every match
   [m], [out] applied as [m] is pulled: descendant axes walk the subtree
   on demand so an existential consumer visits only the prefix it
   needs; the other axes filter the list the node already holds at
   once. *)
let walk_step_seq schema (axis : Ast.axis) (test : Ast.node_test) (out : Node.t -> Item.t)
    (n : Node.t) : Item.t Seq.t =
  match axis with
  | Ast.Descendant ->
      Seq.filter_map (fun m -> if test_matches schema axis test m then Some (out m) else None) (Node.descendants_seq n)
  | Ast.Descendant_or_self ->
      Seq.filter_map
        (fun m -> if test_matches schema axis test m then Some (out m) else None)
        (Node.descendant_or_self_seq n)
  | a -> map_to_seq out (List.filter (fun m -> test_matches schema a test m) (apply_axis a n))

(* The streaming form of a step chain, used by [compile_pulled] only.
   Each step counts the nodes it yields as they are pulled, and the
   absorbed [PSteps] node [parent] counts the chain's final output with
   the last step (exactly as the strict fold does), so a fully consumed
   cursor reports the same pull totals as the materialized execution
   of the same plan; each invocation of the chain counts one call on
   the node and on every step.  A timed run times every step's pulls
   and the chain's. *)
let compile_cursor_steps (env : cenv) ~(parent : P.t) (steps : P.pstep list) :
    Dynamic_ctx.t -> Item.t Seq.t -> Item.t Seq.t =
  let timed = timed env and parent_stats = node_stats env parent.P.pid in
  let last = List.length steps - 1 in
  let comps =
    List.mapi
      (fun i (s : P.pstep) ->
        let st = node_stats env s.P.ps_id in
        let out m =
          st.Obs.op_items <- st.Obs.op_items + 1;
          if i = last then parent_stats.Obs.op_items <- parent_stats.Obs.op_items + 1;
          Item.Node m
        in
        (s, st, out))
      steps
  in
  let timing st s = if timed then Obs.timed_seq st s else s in
  fun ctx s0 ->
    parent_stats.Obs.op_calls <- parent_stats.Obs.op_calls + 1;
    List.fold_left
      (fun s ((ps : P.pstep), st, out) ->
        st.Obs.op_calls <- st.Obs.op_calls + 1;
        let axis = ps.P.ps_axis and test = ps.P.ps_test in
        let resolver = index_resolver axis test in
        Seq.concat_map
          (fun it ->
            match it with
            | Item.Node n -> (
                (* a [Some] sequence already satisfies the node test *)
                match match resolver with Some (r, self) -> Store.descendants_seq ~self r n | None -> None with
                | Some ms -> Seq.map out ms
                | None -> walk_step_seq ctx.schema axis test out n)
            | Item.Atom _ -> dynamic_error "path step applied to an atomic value")
          s
        |> timing st)
      s0 comps
    |> timing parent_stats

(* [f] counted into [st]: one call and its output count per call (and,
   timed, its time). *)
let counted_call ~timed (st : Obs.op_stats) (f : 'a -> 'b -> Item.sequence) : 'a -> 'b -> Item.sequence =
  let counted x y =
    st.Obs.op_calls <- st.Obs.op_calls + 1;
    let out = f x y in
    st.Obs.op_items <- st.Obs.op_items + List.length out;
    out
  in
  if timed then timed_fn st counted else counted

(* The strict form of a step chain: each planned step runs in turn over
   the accumulated node set and records its output count. *)
let strict_steps (env : cenv) (steps : P.pstep list) : Dynamic_ctx.t -> Item.sequence -> Item.sequence =
  let comps =
    List.map
      (fun (s : P.pstep) ->
        counted_call ~timed:(timed env) (node_stats env s.P.ps_id) (fun schema items ->
            tree_join schema s.P.ps_axis s.P.ps_test items))
      steps
  in
  fun ctx items -> List.fold_left (fun items step -> step ctx.schema items) items comps

(* A plan as a pulling consumer reads it (see [compile_pulled]):
   [source] evaluates a step chain's source, or any other plan whole;
   [read] turns those items into the plan's output.  [index] is the
   chain's one indexed step, by [P.index_probe], when store probes may
   answer for the chain instead of [read]. *)
type pulled = {
  source : Dynamic_ctx.t -> inp -> Item.sequence;
  read : Dynamic_ctx.t -> Item.sequence -> Item.t Seq.t;
  index : (string * bool) option;
}

(* Join counters: a build and its tuple count, and a probe and its
   matches. *)
let note_build (st : Obs.op_stats) (tuples : int) : unit =
  st.Obs.op_builds <- st.Obs.op_builds + 1;
  st.Obs.op_build_tuples <- st.Obs.op_build_tuples + tuples

let note_probe (st : Obs.op_stats) (matches : 'a list) : 'a list =
  st.Obs.op_probes <- st.Obs.op_probes + 1;
  st.Obs.op_matches <- st.Obs.op_matches + List.length matches;
  matches

(* Shared scaffolding of the three physical join operators: compiled
   inputs, merged output layout, match/unmatched emitters (outer joins
   prepend the null-flag field) and the left-major streaming driver.
   The probe (left) side streams: each outer tuple is matched as the
   consumer pulls.  The build side is drained to a list eagerly at
   operator call, before any pull. *)
type join_parts = {
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
  let leaf = P.is_leaf_read p in
  let st = if leaf then Obs.op_stats () else node_stats env p.P.pid in
  let c, layout = compile_node env st p in
  let c = if leaf then c else instrument ~timed:(timed env) st c in
  if !force_materialize then (materialize_comp c, layout) else (c, layout)

(* [st]: the profile record of [p] itself (a throwaway one for a leaf
   read, which is not profiled) *)
and compile_node (env : cenv) (st : Obs.op_stats) (p : P.t) : comp * layout =
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
  | P.PSeq ps ->
      let cs = List.map (fun p -> fst (compile { env with adopt } p)) ps in
      ((fun ctx inp -> Xml (List.concat_map (fun c -> as_items (c ctx inp)) cs)), [])
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
      let ci, _ = compile env input in
      let run = strict_steps env steps in
      ((fun ctx inp -> Xml (run ctx (as_items (ci ctx inp)))), [])
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
  | P.PCallStream (kind, name, args) -> (compile_stream_call env kind name args, [])
  | P.PCond (c, t, e) ->
      let cc, _ = compile env c in
      let ct, lt = compile { env with adopt } t in
      let ce, _ = compile { env with adopt } e in
      ((fun ctx inp -> if ebv (cc ctx inp) then ct ctx inp else ce ctx inp), lt)
  | P.PQuantified (q, v, source, body) ->
      (* existence doesn't care about order or duplicates, so a step-chain
         source streams and the quantifier stops at the first witness /
         counterexample *)
      let src = compile_pulled env ~any_order:true source in
      let cb, _ = compile env body in
      let quantify = match q with Ast.Some_quant -> Seq.exists | Ast.Every_quant -> Seq.for_all in
      ( (fun ctx inp ->
          let test it = with_params ctx ((v, [ it ]) :: ctx.params) (fun () -> ebv (cb ctx inp)) in
          Xml [ Item.Atom (Atomic.Boolean (quantify test (src.read ctx (src.source ctx inp)))) ]),
        [] )
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
          Tab (fun () -> Seq.Cons (out_tuple st t, Seq.empty))),
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
          Tab
            (Seq.filter
               (fun t ->
                 ebv (cp ctx (ITuple t))
                 && (st.Obs.op_tuples <- st.Obs.op_tuples + 1;
                     true))
               (as_table (ci ctx inp)))),
        li )
  | P.PProduct (a, b) ->
      let ca, la = compile env a
      and cb, lb = compile env b in
      let out, width, moves = concat_spec la lb in
      let n1 = List.length la in
      ( (fun ctx inp ->
          let left = as_table (ca ctx inp) in
          let right = table_list (cb ctx inp) in
          counted_concat_map st (fun l -> map_to_seq (fun r -> apply_concat n1 width moves l r) right) left),
        out )
  | P.PNestedLoop { outer; pred; left; right } ->
      compile_nested_loop env st outer pred left right
  | P.PHashJoin { outer; build; left_key; right_key; left; right } ->
      compile_hash_join env st outer build left_key right_key left right
  | P.PSortJoin { outer; op; left_key; right_key; left; right } ->
      compile_sort_join env st outer op left_key right_key left right
  | P.PMap (dep, input) ->
      let ci, li = compile env input in
      let cd, ld = compile { env with layout = li } dep in
      ( (fun ctx inp -> counted_concat_map st (fun t -> as_table (cd ctx (ITuple t))) (as_table (ci ctx inp))),
        ld )
  | P.POMap (q, input) ->
      let ci, li = compile env input in
      let width = 1 + List.length li in
      let mark t =
        let out = out_tuple st (Array.make width []) in
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
                  let t = out_tuple st (Array.make width []) in
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
                   (fun d -> out_tuple st (apply_concat n1 width moves t d))
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
        let o = out_tuple st (Array.make width []) in
        o.(0) <- true_flag;
        Array.blit t 0 o 1 n1;
        o
      in
      let matched t d =
        let m = apply_concat n1 mwidth moves t d in
        let o = out_tuple st (Array.make width []) in
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
                 let out = out_tuple st (Array.make (1 + Array.length t) []) in
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
          counted_tab_list st (order_by ctx cspecs tuples)),
        li )
  | P.PGroupBy (g, input) -> compile_groupby env st ~adopt g input
  | P.PMapFromItem (dep, input) ->
      (* an order-preserving step chain feeds the tuple pipeline node by
         node instead of materializing the whole step output first *)
      let src = compile_pulled env ~any_order:false input in
      let cd, ld = compile { env with layout = [] } dep in
      (* a tuple constructor yields exactly one tuple per item *)
      let expand ctx items =
        match dep.P.pop with
        | P.PTupleConstruct _ ->
            Tab
              (Seq.map
                 (fun it ->
                   match as_table (cd ctx (IItems [ it ])) () with
                   | Seq.Cons (t, _) -> out_tuple st t
                   | Seq.Nil -> dynamic_error "tuple constructor produced no tuple")
                 items)
        | _ -> counted_concat_map st (fun it -> as_table (cd ctx (IItems [ it ]))) items
      in
      ((fun ctx inp -> expand ctx (src.read ctx (src.source ctx inp))), ld)
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

(* A plan read by a pulling consumer — a quantifier, MapFromItem or a
   streamed builtin call.  Each invocation evaluates a step chain's
   source once; the chain then streams those items through
   [compile_cursor_steps] when its output order and duplicates cannot
   show: for an [~any_order] consumer (existence), or for an ordered
   chain over at most one source node, whose cursor yields exactly the
   strict output.  Otherwise, and always under the materialize ablation,
   the same items run the strict fold, counted as the chain node itself
   (it is not compiled by [compile]).  In a timed run the source's
   evaluation time is added to the chain node's time, with no call or
   row, so the node's time is inclusive as the strict [PSteps] arm's
   is.  Any other plan is evaluated whole. *)
and compile_pulled env ~any_order (p : P.t) : pulled =
  match p.P.pop with
  | P.PSteps { steps; ordered; input } ->
      let csrc, _ = compile env input in
      let st = node_stats env p.P.pid and timed = timed env in
      let run = counted_call ~timed st (strict_steps env steps) in
      let source ctx inp = as_items (csrc ctx inp) in
      let source = if timed then timed_fn st source else source in
      let strict ctx items = List.to_seq (run ctx items) in
      if !force_materialize then { source; read = strict; index = None }
      else
        let pipe = compile_cursor_steps env ~parent:p steps in
        let streams = function
          | [] | [ Item.Node _ ] -> any_order || ordered
          | _ -> any_order
        in
        {
          source;
          read = (fun ctx items -> if streams items then pipe ctx (List.to_seq items) else strict ctx items);
          index = P.index_probe steps;
        }
  | _ ->
      let c, _ = compile env p in
      { source = (fun ctx inp -> as_items (c ctx inp)); read = (fun _ items -> List.to_seq items); index = None }

(* Streaming builtin calls, planned as [PCallStream].  User declarations
   shadow builtins at run time, so the closures re-check the function
   table on every call and defer to a lazily compiled generic call when
   shadowed (compiled at most once, on first use). *)
and compile_stream_call env (kind : P.stream_call) name (args : P.t list) : comp =
  let shadowed = lazy (generic_call env name args) in
  let unless_shadowed (body : Dynamic_ctx.t -> inp -> Item.sequence) : comp =
   fun ctx inp ->
    if Hashtbl.mem ctx.functions name then (Lazy.force shadowed) ctx inp else Xml (body ctx inp)
  in
  match (kind, args) with
  | P.SExists negate, [ a ] ->
      (* emptiness is insensitive to order and duplicates, so any chain
         streams and the first pull decides — and a one-step name chain
         over indexed trees needs no pull at all, just the index's range
         bounds.  Over several source nodes existence is a disjunction,
         so nesting and duplicates are harmless; a node the store cannot
         answer for means stream. *)
      let src = compile_pulled env ~any_order:true a in
      unless_shadowed (fun ctx inp ->
          let items = src.source ctx inp in
          let indexed =
            match src.index with
            | None -> None
            | Some (nm, self) ->
                let probe = Store.exists_descendant ~self (Store.resolver nm) in
                let rec go = function
                  | [] -> Some false
                  | Item.Node n :: rest -> (
                      match probe n with Some true -> Some true | Some false -> go rest | None -> None)
                  | Item.Atom _ :: _ -> None
                in
                go items
          in
          let nonempty =
            match indexed with Some b -> b | None -> not (Seq.is_empty (src.read ctx items))
          in
          [ Item.Atom (Atomic.Boolean (nonempty <> negate)) ])
  | P.SCount, [ a ] ->
      (* the exact cardinality of a one-step name chain over one indexed
         source node is the index range's width (the step output is
         duplicate-free by construction); any other source is counted
         as the chain reads it *)
      let src = compile_pulled env ~any_order:false a in
      unless_shadowed (fun ctx inp ->
          let items = src.source ctx inp in
          let indexed =
            match (src.index, items) with
            | Some (nm, self), [ Item.Node n ] -> Store.count_descendants ~self (Store.resolver nm) n
            | _ -> None
          in
          let k = match indexed with Some k -> k | None -> Seq.length (src.read ctx items) in
          [ Item.Atom (Atomic.Integer k) ])
  | P.SSubseq, [ a; start; len ] ->
      (* pull only the path's prefix up to the last selected position *)
      let src = compile_pulled env ~any_order:false a in
      let cstart, _ = compile env start in
      let clen, _ = compile env len in
      let to_float c ctx inp =
        match Item.atomize (as_items (c ctx inp)) with
        | [ a ] -> (
            match Atomic.to_float a with
            | Some x -> x
            | None -> dynamic_error "fn:subsequence: position or length is not a number")
        | _ -> dynamic_error "fn:subsequence: argument is not a single atomic value"
      in
      unless_shadowed (fun ctx inp ->
          let st = to_float cstart ctx inp and n = to_float clen ctx inp in
          List.of_seq (Builtins.subsequence st (Some n) (src.read ctx (src.source ctx inp))))
  | _ -> generic_call env name args

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
and compile_groupby env st ~adopt (g : P.pgroup_spec) input =
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
          | first :: _ -> counted_tab_list st [ emit first (List.concat_map pre_of tuples) ])
      | slots -> (
          let emit_group (first, items) = emit first (List.concat (List.rev items)) in
          match ascending_int_keys slots tuples with
          | Some [] -> Tab Seq.empty
          | Some ((key, first) :: rest) ->
              (* keys arrive ascending, as MapIndex / MapIndexStep hand
                 them over: equal keys are adjacent, so a group closes
                 whenever the key changes.  [runs] returns the groups last
                 first, and both paths emit them in that order. *)
              let rec runs key first items acc = function
                | [] -> (first, items) :: acc
                | (k, t) :: rest ->
                    let pre = pre_of t in
                    if compare_int_keys k key = 0 then runs key first (pre :: items) acc rest
                    else runs k t [ pre ] ((first, items) :: acc) rest
              in
              let pre = pre_of first in
              counted_tab_list st (List.rev_map emit_group (runs key first [ pre ] [] rest))
          | None ->
              (* the general partitioning of Section 5: groups in the
                 order of their first tuple, keyed on the index values'
                 string forms *)
              Obs.incr_counter c_hash_partitions;
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
              counted_tab_list st
                (List.rev_map
                   (fun k ->
                     let first, items = Hashtbl.find partitions k in
                     emit_group (first, !items))
                   !order))),
    out_layout )

and join_scaffold env stats (outer : P.field option) a b : join_parts =
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
    counted_concat_map stats
      (fun l ->
        match matches_of l with
        | [] -> if is_outer then Seq.return (emit_unmatched l) else Seq.empty
        | ms -> map_to_seq (emit_match l) ms)
      left
  in
  {
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

and compile_nested_loop env stats outer (pred : P.ppred) a b : comp * layout =
  let jp = join_scaffold env stats outer a b in
  (* each call materializes the inner side once: one build *)
  let note_build right = note_build stats (List.length right); right in
  let note_probe = note_probe stats in
  match pred with
  | P.PWholePred p ->
      (* arbitrary predicates always run as an order-preserving NL join *)
      let cp, _ = compile { env with layout = jp.jp_merged } p in
      ( (fun ctx inp ->
          let left = as_table (jp.jp_left ctx inp) in
          let right = note_build (table_list (jp.jp_right ctx inp)) in
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
          let right = note_build (table_list (jp.jp_right ctx inp)) in
          jp.jp_run left (fun l ->
              let lk = as_items (cl ctx (ITuple l)) in
              note_probe
                (List.filter
                   (fun r -> Promotion.general_compare op lk (as_items (cr ctx (ITuple r))))
                   right))),
        jp.jp_out )

and compile_hash_join env stats outer (build : P.build_side) left_key right_key a
    b : comp * layout =
  let jp = join_scaffold env stats outer a b in
  let cl, _ = compile { env with layout = jp.jp_llayout } left_key in
  let cr, _ = compile { env with layout = jp.jp_rlayout } right_key in
  match build with
  | P.Build_right ->
      ( (fun ctx inp ->
          let left = as_table (jp.jp_left ctx inp) in
          let right = table_list (jp.jp_right ctx inp) in
          let index = Joins.build_hash_index right (fun r -> as_items (cr ctx (ITuple r))) in
          note_build stats index.Joins.hi_size;
          jp.jp_run left (fun l ->
              note_probe stats
                (Joins.probe_hash_index index (Item.atomize (as_items (cl ctx (ITuple l))))))),
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
          let index = Joins.build_hash_index left (fun l -> as_items (cl ctx (ITuple l))) in
          note_build stats index.Joins.hi_size;
          let buckets = Array.make (max 1 (List.length left)) [] in
          List.iter
            (fun r ->
              List.iter
                (fun o -> buckets.(o - 1) <- r :: buckets.(o - 1))
                (note_probe stats
                   (Joins.probe_hash_index_orders index (Item.atomize (as_items (cr ctx (ITuple r)))))))
            right;
          let pos = ref 0 in
          jp.jp_run (List.to_seq left) (fun _l ->
              let i = !pos in
              incr pos;
              List.rev buckets.(i))),
        jp.jp_out )

and compile_sort_join env stats outer (op : Promotion.cmp_op) left_key right_key a b :
    comp * layout =
  (match op with
  | Promotion.Lt | Promotion.Le | Promotion.Gt | Promotion.Ge -> ()
  | Promotion.Eq | Promotion.Ne ->
      compile_error "sort join planned for a non-inequality operator");
  let jp = join_scaffold env stats outer a b in
  let cl, _ = compile { env with layout = jp.jp_llayout } left_key in
  let cr, _ = compile { env with layout = jp.jp_rlayout } right_key in
  ( (fun ctx inp ->
      let left = as_table (jp.jp_left ctx inp) in
      let right = table_list (jp.jp_right ctx inp) in
      let index = Joins.build_sort_index right (fun r -> as_items (cr ctx (ITuple r))) in
      note_build stats (List.length right);
      stats.Obs.op_sort_numeric <- stats.Obs.op_sort_numeric + Array.length index.Joins.si_numeric;
      stats.Obs.op_sort_string <- stats.Obs.op_sort_string + Array.length index.Joins.si_string;
      jp.jp_run left (fun l ->
          note_probe stats
            (Joins.probe_sort_index op index (Item.atomize (as_items (cl ctx (ITuple l))))))),
    jp.jp_out )

(* ------------------------------------------------------------------ *)
(* Whole-query evaluation                                              *)
(* ------------------------------------------------------------------ *)

(* Install compiled user functions into the context, then evaluate the
   globals in declaration order, then run the main plan. *)
let install_query (profile : Obs.profile) (ctx : Dynamic_ctx.t) (q : P.query) :
    Dynamic_ctx.t -> Item.sequence =
  List.iter
    (fun (f : P.pfunction) ->
      Hashtbl.replace ctx.functions f.P.pf_name
        { func_params = f.P.pf_params; func_impl = (fun _ _ -> dynamic_error "uncompiled function") })
    q.P.pfunctions;
  List.iter
    (fun (f : P.pfunction) ->
      let body, _ = compile (top_env profile f.P.pf_body) f.P.pf_body in
      let impl ctx args =
        let frame = List.combine f.P.pf_params args in
        with_params ctx frame (fun () -> as_items (body ctx INone))
      in
      (Hashtbl.find ctx.functions f.P.pf_name).func_impl <- impl)
    q.P.pfunctions;
  let globals =
    List.map
      (fun (v, p) -> (v, fst (compile (top_env profile p) p)))
      q.P.pglobals
  in
  let main, _ = compile (top_env profile q.P.pmain) q.P.pmain in
  fun ctx ->
    List.iter (fun (v, c) -> bind_global ctx v (as_items (c ctx INone))) globals;
    as_items (main ctx INone)

let run ?(profile = Obs.profile ~timed:false) ctx (q : P.query) : Item.sequence =
  let runner = Obs.run_phase profile "compile closures" (fun () -> install_query profile ctx q) in
  Obs.run_phase profile "eval" (fun () -> runner ctx)
