(* Xqc — the public engine API.

   The pipeline is the paper's: parse -> normalize (XQuery Core) ->
   algebraic compilation (Section 4) -> logical rewriting (Section 5) ->
   cost-based physical planning (Section 6, join algorithms and build
   sides chosen from index statistics) -> evaluation.  The [strategy]
   type exposes the four engine configurations measured in Table 3, plus
   the indexed interpreter that stands in for Saxon in Table 5.

   Typical use:

     let doc = Xqc.parse_document ~uri:"auction.xml" xml_string in
     let ctx = Xqc.context () in
     Xqc.bind_document ctx "auction.xml" doc;
     Xqc.bind_variable ctx "auction" [ Xqc.Item.Node doc ];
     let result = Xqc.run (Xqc.prepare "count($auction//person)") ctx in
     print_endline (Xqc.serialize result)
*)

module Atomic = Xqc_xml.Atomic
module Node = Xqc_xml.Node
module Item = Xqc_xml.Item
module Xml_parser = Xqc_xml.Xml_parser
module Serializer = Xqc_xml.Serializer
module Schema = Xqc_types.Schema
module Seqtype = Xqc_types.Seqtype
module Promotion = Xqc_types.Promotion
module Ast = Xqc_frontend.Ast
module Xq_parser = Xqc_frontend.Xq_parser
module Core_ast = Xqc_frontend.Core_ast
module Normalize = Xqc_frontend.Normalize
module Algebra = Xqc_algebra.Algebra
module Physical = Xqc_algebra.Physical
module Pretty = Xqc_algebra.Pretty
module Compile = Xqc_compiler.Compile
module Rewrite = Xqc_optimizer.Rewrite
module Planner = Xqc_optimizer.Planner
module Eval = Xqc_runtime.Eval
module Regex = Xqc_runtime.Regex
module Joins = Xqc_runtime.Joins
module Dynamic_ctx = Xqc_runtime.Dynamic_ctx
module Builtins = Xqc_runtime.Builtins
module Interp = Xqc_interp.Interp
module Indexed = Xqc_interp.Indexed
module Store = Xqc_store.Store
(* The engine has no fused segments; [benchmark/batch.ml] still counts
   them through this call.  Goes at the next benchmark-definition change. *)
module Codegen = struct
  let annotate (_ : Physical.t) = []
end
module Obs = Xqc_obs.Obs
module Trace = Xqc_obs.Trace
module Slow_log = Xqc_obs.Slow_log
module Mutate = Xqc_update.Mutate
module Pul = Xqc_update.Pul
module Version = Xqc_update.Version

type strategy =
  | No_algebra  (** direct interpretation of the Core AST (pre-paper Galax) *)
  | Saxon_like  (** Core interpreter with automatic where-clause indexes *)
  | Algebra_unoptimized  (** algebraic plan, no rewriting ("Algebra + no optim") *)
  | Optimized_nl  (** unnesting rewritings, nested-loop joins *)
  | Optimized  (** unnesting + XQuery hash/sort joins (the full compiler) *)

(* The one name table: each strategy's printed name first, then the
   short aliases the command line also accepts. *)
let strategy_names =
  [
    (No_algebra, [ "no-algebra" ]);
    (Saxon_like, [ "saxon-like"; "indexed" ]);
    (Algebra_unoptimized, [ "algebra-no-optim"; "no-optim" ]);
    (Optimized_nl, [ "optim-nl-join"; "nl"; "optim-nl" ]);
    (Optimized, [ "optim-xquery-join"; "optim"; "full" ]);
  ]

let strategy_name s = List.hd (List.assoc s strategy_names)

let strategy_of_name name =
  List.find_map (fun (s, names) -> if List.mem name names then Some s else None) strategy_names

let all_strategies = List.map fst strategy_names

type prepared = {
  source : string;
  strategy : strategy;
  core : Core_ast.cquery;
  plan : Algebra.plan option;  (** logical main plan, after this strategy's rewriting *)
  pplan : Physical.query option;
      (** the cost-based planner's physical plans (algebraic strategies) *)
  runner : Obs.profile -> Dynamic_ctx.t -> Item.sequence;
  pipeline : Obs.collector;  (** this preparation's phase times and rewrite trace *)
}

exception Error of string

let optimizer_options = function
  | Optimized -> Some Rewrite.default_options
  | Optimized_nl -> Some { Rewrite.unnest = true; split_preds = false; static_types = true }
  | Algebra_unoptimized -> Some { Rewrite.unnest = false; split_preds = false; static_types = false }
  | No_algebra | Saxon_like -> None

(* The physical planner's configuration per strategy: the nested-loop
   strategies pin the join algorithm (their predicates are unsplit
   anyway, so this is belt and braces); [~force_join] overrides for the
   planner-agreement tests and benchmarks. *)
let planner_config strategy force_join : Planner.config =
  let default =
    match strategy with
    | Optimized_nl | Algebra_unoptimized -> Some Physical.Nested_loop
    | No_algebra | Saxon_like | Optimized -> None
  in
  { Planner.force_join = (match force_join with Some _ as f -> f | None -> default) }

let plan_query config (q : Compile.compiled_query) : Physical.query =
  {
    Physical.pfunctions =
      List.map
        (fun (f : Compile.compiled_function) ->
          {
            Physical.pf_name = f.Compile.fn_name;
            pf_params = f.Compile.fn_params;
            pf_body = Planner.plan ~config f.Compile.fn_body;
          })
        q.Compile.cfunctions;
    pglobals =
      List.map (fun (v, p) -> (v, Planner.plan ~config p)) q.Compile.cglobals;
    pmain = Planner.plan ~config q.Compile.cmain;
  }

let optimize_query ?trace strategy (q : Compile.compiled_query) : Compile.compiled_query =
  match optimizer_options strategy with
  | None | Some { Rewrite.unnest = false; split_preds = false; static_types = false } -> q
  | Some options ->
      {
        Compile.cmain = Rewrite.optimize ~options ?trace q.Compile.cmain;
        cglobals =
          List.map (fun (v, p) -> (v, Rewrite.optimize ~options ?trace p)) q.Compile.cglobals;
        cfunctions =
          List.map
            (fun (f : Compile.compiled_function) ->
              { f with Compile.fn_body = Rewrite.optimize ~options ?trace f.Compile.fn_body })
            q.Compile.cfunctions;
      }

(* The one per-strategy dispatch, for queries and for the source and
   target queries of update statements: the runner of a normalized
   query, with its logical main plan and its physical plans under the
   algebraic strategies.  The compile, rewrite and plan phases are timed
   into [collector] as they run.  The runner counts each run into the
   profile it is given: the algebraic runner per operator, and every
   runner its eval phase when the profile is timed. *)
let build_runner (collector : Obs.collector) ?force_join strategy (core : Core_ast.cquery) :
    (Obs.profile -> Dynamic_ctx.t -> Item.sequence) * Algebra.plan option * Physical.query option =
  let ph name f = Obs.phase collector name f in
  let interpreted run profile ctx = Obs.run_phase profile "eval" (fun () -> run ctx) in
  match strategy with
  | No_algebra -> (interpreted (fun ctx -> Interp.run ctx core), None, None)
  | Saxon_like -> (interpreted (fun ctx -> Indexed.run ctx core), None, None)
  | Algebra_unoptimized | Optimized_nl | Optimized ->
      let compiled = ph "compile" (fun () -> Compile.compile_query core) in
      let compiled =
        ph "rewrite" (fun () -> optimize_query ~trace:collector.Obs.co_rewrite strategy compiled)
      in
      (* cost-based physical planning: every execution-strategy decision
         (join algorithm, build side, streaming bounds, materialization
         points) is made here, fed by the store's index statistics *)
      let planned = ph "plan" (fun () -> plan_query (planner_config strategy force_join) compiled) in
      ((fun profile ctx -> Eval.run ~profile ctx planned), Some compiled.Compile.cmain, Some planned)

(* Parse, normalize, compile and (per strategy) optimize a query once; the
   result can be run against many dynamic contexts.  Every phase is
   timed into the prepared query's [pipeline], with the rewrite trace. *)
let prepare ?(strategy = Optimized) ?force_join (source : string) : prepared =
  let pipeline = Obs.collector () in
  let ph name f = Obs.phase pipeline name f in
  let wrap f =
    try f () with
    | Xq_parser.Syntax_error { position; message } ->
        raise (Error (Printf.sprintf "syntax error at offset %d: %s" position message))
    | Normalize.Norm_error m -> raise (Error ("normalization error: " ^ m))
    | Eval.Compile_error m -> raise (Error ("plan compilation error: " ^ m))
  in
  wrap (fun () ->
      let ast = ph "parse" (fun () -> Xq_parser.parse_query source) in
      let core = ph "normalize" (fun () -> Normalize.normalize_query ast) in
      let runner, plan, pplan = build_runner pipeline ?force_join strategy core in
      { source; strategy; core; plan; pplan; runner; pipeline })

(* ------------------------------------------------------------------ *)
(* Prepared-plan cache                                                 *)
(* ------------------------------------------------------------------ *)

(* LRU cache over [prepare], keyed by everything that shapes the
   compiled plan: query text, strategy and the document generation —
   physical planning is statistics-sensitive, so a plan must not
   outlive the document state it was costed against.  A cached plan
   holds nothing a run writes: each run counts into its own profile.
   Recency is a global tick;
   eviction scans for the minimum (the cache is small, capacity beats
   constant factors). *)

(* Every execution-mode knob that shapes a compiled plan, gathered in
   one record so the cache key cannot silently drift from the set of
   modes: adding a knob here forces the compiler to visit every place a
   key is built. *)
type exec_modes = {
  m_strategy : strategy;
  m_docs_gen : int;
      (** the MVCC document-state generation at planning time: plans are
          costed against index statistics, and an applied update changes
          both the statistics and (on full renumber) the identity of the
          trees they describe — a cached plan must not survive the
          document state it was planned for *)
}

(* The ambient execution modes: everything not passed explicitly is read
   from the process-wide knobs, exactly as [prepare] will read them. *)
let current_exec_modes ~strategy () : exec_modes =
  {
    m_strategy = strategy;
    m_docs_gen = Version.generation ();
  }

type plan_key = string * exec_modes

(* All cache state is guarded by [plan_lock]: the query server's worker
   domains share this cache (prepared statements resolve through it), so
   lookup/insert/eviction must not race.  Compilation itself runs outside
   the lock — two domains racing on the same cold key may both compile,
   and the loser's insert is a harmless overwrite.  The lock is
   instrumented ("plan_cache" in the lock table) so cross-domain
   contention on it is visible in the server's metrics plane. *)
let plan_lock = Obs.tmutex "plan_cache"

let plan_cache : (plan_key, prepared * int ref) Hashtbl.t = Hashtbl.create 32
let plan_cache_capacity = ref 128
let plan_tick = ref 0

let c_plan_hits = Obs.global_counter "plan_cache_hits"
let c_plan_misses = Obs.global_counter "plan_cache_misses"

let clear_plan_cache () = Obs.with_lock plan_lock (fun () -> Hashtbl.reset plan_cache)

let set_plan_cache_capacity n =
  Obs.with_lock plan_lock (fun () ->
      plan_cache_capacity := max 0 n;
      if Hashtbl.length plan_cache > !plan_cache_capacity then Hashtbl.reset plan_cache)

let evict_lru () =
  let victim =
    Hashtbl.fold
      (fun key (_, tick) acc ->
        match acc with
        | Some (_, best) when best <= !tick -> acc
        | _ -> Some (key, !tick))
      plan_cache None
  in
  match victim with Some (key, _) -> Hashtbl.remove plan_cache key | None -> ()

let prepare_cached ?(strategy = Optimized) (source : string) : prepared =
  Trace.in_span "plan-cache" @@ fun () ->
  let key = (source, current_exec_modes ~strategy ()) in
  let hit =
    Obs.with_lock plan_lock (fun () ->
        incr plan_tick;
        match Hashtbl.find_opt plan_cache key with
        | Some (p, tick) ->
            tick := !plan_tick;
            Obs.incr_counter c_plan_hits;
            Some p
        | None ->
            Obs.incr_counter c_plan_misses;
            None)
  in
  match hit with
  | Some p ->
      Trace.annotate_current [ ("hit", "true") ];
      p
  | None ->
      Trace.annotate_current [ ("hit", "false") ];
      let p =
        Trace.in_span "compile" (fun () -> prepare ~strategy source)
      in
      Obs.with_lock plan_lock (fun () ->
          if !plan_cache_capacity > 0 then begin
            if Hashtbl.length plan_cache >= !plan_cache_capacity then evict_lru ();
            Hashtbl.replace plan_cache key (p, ref !plan_tick)
          end);
      p

let plan_cache_size () = Obs.with_lock plan_lock (fun () -> Hashtbl.length plan_cache)

(* Run [p] over [ctx], counting into [profile] (default: a fresh untimed
   one).  A profile records one run. *)
let run ?(profile = Obs.profile ~timed:false) (p : prepared) (ctx : Dynamic_ctx.t) :
    Item.sequence =
  try p.runner profile ctx with
  | Dynamic_ctx.Dynamic_error m -> raise (Error ("dynamic error: " ^ m))
  | Atomic.Cast_error m -> raise (Error ("type error: " ^ m))
  | Seqtype.Type_assertion_failure m -> raise (Error ("type assertion failure: " ^ m))

(* ------------------------------------------------------------------ *)
(* Conveniences                                                        *)
(* ------------------------------------------------------------------ *)

let context ?schema ?resolver () : Dynamic_ctx.t = Dynamic_ctx.create ?schema ?resolver ()

let bind_variable = Dynamic_ctx.bind_global
let bind_document = Dynamic_ctx.bind_document

(* The loader builds the document's structural index in its one pass
   and the store publishes it, so no query walks the tree to index
   it. *)
let parse_document ?uri (xml : string) : Node.t =
  let root, names = Xml_parser.parse_with_names ?uri xml in
  Store.adopt root names;
  root

let serialize (s : Item.sequence) : string = Serializer.sequence_to_string s

(* One-shot evaluation with optional bindings. *)
let eval_string ?strategy ?force_join ?schema ?(variables = [])
    ?(documents = []) (source : string) : Item.sequence =
  let ctx = context ?schema () in
  List.iter (fun (name, value) -> bind_variable ctx name value) variables;
  List.iter (fun (uri, doc) -> bind_document ctx uri doc) documents;
  run (prepare ?strategy ?force_join source) ctx

(* A multi-section compilation report: the Core form and the logical plan
   before and after optimization, in the paper's notation, plus the
   physical plans and the rewrite-rule firing trace — all of it what
   [prepare] made of the query. *)
let explain ?(strategy = Optimized) (source : string) : string =
  let p = prepare ~strategy source in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "=== XQuery Core ===\n";
  Buffer.add_string buf (Core_ast.to_string p.core.Core_ast.cq_main);
  Buffer.add_string buf "\n\n=== Logical plan (naive compilation) ===\n";
  Buffer.add_string buf (Pretty.to_string (Compile.compile_query p.core).Compile.cmain);
  (match (p.plan, p.pplan) with
  | Some optimized, Some physical ->
      Buffer.add_string buf "\n\n=== Optimized plan ===\n";
      Buffer.add_string buf (Pretty.to_string optimized);
      Buffer.add_string buf "\n\n=== Physical plan ===\n";
      Buffer.add_string buf (Pretty.query_to_string physical);
      let rw = p.pipeline.Obs.co_rewrite in
      if Obs.total_firings rw > 0 then begin
        Buffer.add_string buf "\n\n=== Rewrite trace ===\n";
        Buffer.add_string buf (Obs.rewrite_to_string rw)
      end
  | _ -> ());
  Buffer.add_string buf "\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE                                                     *)
(* ------------------------------------------------------------------ *)

let physical_plan (p : prepared) : Physical.query option = p.pplan

(* Render what preparing [p] and one run of it recorded: the pipeline
   phase timings (the run's own when its profile was timed), the
   rewrite-rule trace, and the plans annotated with the run's
   per-operator counts and join accounting.  A profile that has not run
   yet annotates every operator with zeros. *)
let explain_analyze (p : prepared) (profile : Obs.profile) : string =
  let buf = Buffer.create 1024 in
  let rw = p.pipeline.Obs.co_rewrite in
  Buffer.add_string buf "=== Pipeline phases ===\n";
  Buffer.add_string buf (Obs.phases_to_string p.pipeline profile);
  if Obs.total_firings rw > 0 then begin
    Buffer.add_string buf "\n=== Rewrite trace ===\n";
    Buffer.add_string buf (Obs.rewrite_to_string rw)
  end;
  (match p.pplan with
  | Some q ->
      List.iter
        (fun (name, plan) ->
          Printf.bprintf buf "\n=== EXPLAIN ANALYZE (%s) ===\n" name;
          Buffer.add_string buf (Pretty.plan_to_string ~profile plan))
        (Pretty.query_plans q);
      let totals = Obs.join_totals profile in
      if totals.Obs.op_builds > 0 || totals.Obs.op_probes > 0 then begin
        Buffer.add_string buf "\n=== Join totals ===\n";
        Buffer.add_string buf (Obs.join_to_string totals);
        Buffer.add_char buf '\n'
      end
  | None ->
      Buffer.add_string buf
        "\n(no annotated plans: only the algebraic strategies profile their operators)\n");
  (* process-wide counters: index builds/hits, doc and plan caches *)
  let counters = Obs.global_counters_to_string () in
  if not (String.equal counters "") then begin
    Buffer.add_string buf "\n=== Engine counters (process-wide) ===\n";
    Buffer.add_string buf counters
  end;
  Buffer.contents buf

(* The same statistics as one JSON object. *)
let stats_json (p : prepared) (profile : Obs.profile) : string =
  let plans = match p.pplan with Some q -> Pretty.plans_to_json profile q | None -> Obs.Arr [] in
  Obs.json_to_string (Obs.report_to_json ~plans p.pipeline profile)

(* ------------------------------------------------------------------ *)
(* Updates (XQuery Update Facility subset)                             *)
(* ------------------------------------------------------------------ *)

(* Driver for update scripts: parse -> normalize (each statement's
   source/target position becomes a core query sharing the prolog) ->
   evaluate everything against ONE snapshot through the chosen execution
   strategy -> merge into a pending update list -> conflict-check and
   apply in XQUF order.  Registered documents go through the MVCC layer
   ([Version.with_write]): in place with incremental index patches when
   no reader is admitted, against a published copy otherwise. *)
module Update = struct
  type result = {
    u_applied : int;  (** primitives applied *)
    u_version : int;  (** published version id after the write *)
    u_in_place : bool;  (** live head patched (vs copy published) *)
  }

  type crunner = Dynamic_ctx.t -> Item.sequence

  type cstmt =
    | C_insert of crunner * Ast.insert_pos * crunner
    | C_delete of crunner
    | C_replace_node of crunner * crunner
    | C_replace_value of crunner * crunner
    | C_rename of crunner * crunner

  type compiled = {
    c_source : string;
    c_strategy : strategy;
    c_stmts : cstmt list;
  }

  let compile ?(strategy = Optimized) (source : string) : compiled =
    let stmts =
      try Normalize.normalize_update (Xq_parser.parse_update source) with
      | Xq_parser.Syntax_error { position; message } ->
          raise (Error (Printf.sprintf "syntax error at offset %d: %s" position message))
      | Normalize.Norm_error m -> raise (Error ("normalization error: " ^ m))
      | Eval.Compile_error m -> raise (Error ("plan compilation error: " ^ m))
    in
    (* every statement's source and target query runs through the
       strategy the caller runs queries under *)
    let r core =
      let runner, _, _ = build_runner (Obs.collector ()) strategy core in
      fun ctx -> runner (Obs.profile ~timed:false) ctx
    in
    let stmts =
      List.map
        (function
          | Normalize.N_insert (src, pos, tgt) -> C_insert (r src, pos, r tgt)
          | Normalize.N_delete tgt -> C_delete (r tgt)
          | Normalize.N_replace_node (tgt, src) -> C_replace_node (r tgt, r src)
          | Normalize.N_replace_value (tgt, src) -> C_replace_value (r tgt, r src)
          | Normalize.N_rename (tgt, name) -> C_rename (r tgt, r name))
        stmts
    in
    { c_source = source; c_strategy = strategy; c_stmts = stmts }

  let update_error fmt = Printf.ksprintf (fun m -> raise (Pul.Update_error m)) fmt

  let single_node what (s : Item.sequence) : Node.t =
    match s with
    | [ Item.Node n ] -> n
    | _ -> update_error "%s must be a single node" what

  let all_nodes what (s : Item.sequence) : Node.t list =
    List.map
      (function
        | Item.Node n -> n
        | Item.Atom _ -> update_error "%s must be a sequence of nodes" what)
      s

  (* Construction semantics for inserted content: nodes are deep-copied
     (the pending list owns its content) and runs of adjacent atomics
     become one space-separated text node. *)
  let content_nodes (s : Item.sequence) : Node.t list =
    let flush atoms acc =
      if atoms = [] then acc
      else Node.text (String.concat " " (List.rev atoms)) :: acc
    in
    let rec go atoms acc = function
      | [] -> List.rev (flush atoms acc)
      | (Item.Atom _ as it) :: rest -> go (Item.string_value it :: atoms) acc rest
      | Item.Node n :: rest -> go [] (Node.copy n :: flush atoms acc) rest
    in
    go [] [] s

  let string_of_seq (s : Item.sequence) : string =
    String.concat " " (List.map Item.string_value s)

  let is_attr n = Node.kind n = Node.Kattribute
  let split_attrs ns = List.partition is_attr ns

  (* Evaluate one statement against the snapshot context and produce its
     pending primitives.  Every target-kind check [Mutate] would make
     while applying is made here, before the first mutation, so
     [Pul.apply] cannot fail halfway through a list built here and leave
     a live head half-applied. *)
  let prims_of_stmt (ctx : Dynamic_ctx.t) (stmt : cstmt) : Pul.primitive list =
    match stmt with
    | C_insert (srcr, pos, tgtr) -> (
        let attrs, kids = split_attrs (content_nodes (srcr ctx)) in
        let tgt = tgtr ctx in
        match pos with
        | Ast.Into | Ast.As_last_into | Ast.As_first_into ->
            let t = single_node "insert target" tgt in
            (match t.Node.desc with
            | Node.Element _ -> ()
            | Node.Document _ ->
                if attrs <> [] then
                  update_error "cannot insert attributes into a document node"
            | _ ->
                update_error "insert into target must be an element or document node");
            (if attrs = [] then [] else [ Pul.Insert_attributes (t, attrs) ])
            @
            if kids = [] then []
            else
              [
                (match pos with
                | Ast.As_first_into -> Pul.Insert_first (t, kids)
                | _ -> Pul.Insert_into (t, kids));
              ]
        | Ast.Before | Ast.After ->
            let t = single_node "insert target" tgt in
            if is_attr t then update_error "insert before/after target cannot be an attribute";
            let p =
              match Node.parent t with
              | Some p -> p
              | None -> update_error "insert before/after target has no parent"
            in
            if attrs <> [] && Node.kind p <> Node.Kelement then
              update_error "cannot insert attributes into a document node";
            (* attribute content attaches to the target's parent, per XQUF *)
            (if attrs = [] then [] else [ Pul.Insert_attributes (p, attrs) ])
            @
            if kids = [] then []
            else if pos = Ast.Before then [ Pul.Insert_before (t, kids) ]
            else [ Pul.Insert_after (t, kids) ])
    | C_delete tgtr ->
        List.map (fun n -> Pul.Delete n) (all_nodes "delete target" (tgtr ctx))
    | C_replace_node (tgtr, srcr) ->
        let t = single_node "replace target" (tgtr ctx) in
        if Node.parent t = None then update_error "replace target has no parent";
        let src = content_nodes (srcr ctx) in
        (match t.Node.desc with
        | Node.Attribute _ ->
            if List.exists (fun n -> not (is_attr n)) src then
              update_error "replacing an attribute requires attribute content"
        | _ ->
            if List.exists is_attr src then
              update_error "attribute content cannot replace a non-attribute node");
        [ Pul.Replace_node (t, src) ]
    | C_replace_value (tgtr, srcr) ->
        let t = single_node "replace target" (tgtr ctx) in
        if Node.kind t = Node.Kdocument then update_error "cannot replace the value of a document node";
        [ Pul.Replace_value (t, string_of_seq (srcr ctx)) ]
    | C_rename (tgtr, namer) ->
        let t = single_node "rename target" (tgtr ctx) in
        (match Node.kind t with
        | Node.Kelement | Node.Kattribute | Node.Kpi -> ()
        | _ -> update_error "rename target must be an element, attribute or processing-instruction");
        let name = String.trim (string_of_seq (namer ctx)) in
        if name = "" then update_error "rename requires a non-empty name";
        [ Pul.Rename (t, name) ]

  let wrap_errors f =
    try f () with
    | Pul.Update_error m -> raise (Error ("update error: " ^ m))
    | Version.Unknown_document u -> raise (Error ("unknown document: " ^ u))
    | Dynamic_ctx.Dynamic_error m -> raise (Error ("dynamic error: " ^ m))
    | Atomic.Cast_error m -> raise (Error ("type error: " ^ m))
    | Seqtype.Type_assertion_failure m ->
        raise (Error ("type assertion failure: " ^ m))

  (* Apply a compiled script to a tree the caller owns exclusively — no
     MVCC, used directly by tests and benchmarks.  Returns the number of
     applied primitives. *)
  let apply_to_root (c : compiled) ~(make_ctx : Node.t -> Dynamic_ctx.t)
      (root : Node.t) : int =
    wrap_errors (fun () ->
        let ctx = make_ctx root in
        let prims = List.concat_map (prims_of_stmt ctx) c.c_stmts in
        Pul.apply root prims)

  (* Execute a compiled script against the registered document [uri],
     under its MVCC write lock.  [make_ctx] builds the evaluation
     context over whichever tree the version layer chose (live head or
     fresh copy) — bind it exactly as the session's queries would see
     the document. *)
  let execute_compiled (c : compiled) ~(uri : string)
      ~(make_ctx : Node.t -> Dynamic_ctx.t) : result =
    wrap_errors (fun () ->
        let applied, in_place =
          Version.with_write uri (fun root ~in_place ->
              let ctx = make_ctx root in
              let prims = List.concat_map (prims_of_stmt ctx) c.c_stmts in
              (Pul.apply root prims, in_place))
        in
        let version =
          match Version.head uri with Some v -> v.Version.v_id | None -> 0
        in
        { u_applied = applied; u_version = version; u_in_place = in_place })

  let execute ?strategy ~(uri : string)
      ?(make_ctx =
        fun root ->
          let ctx = context () in
          bind_document ctx uri root;
          ctx) (source : string) : result =
    execute_compiled (compile ?strategy source) ~uri ~make_ctx
end
