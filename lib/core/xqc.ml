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
module Doc_paths = Xqc_optimizer.Doc_paths
module Eval = Xqc_runtime.Eval
module Projection = Xqc_runtime.Projection
module Regex = Xqc_runtime.Regex
module Joins = Xqc_runtime.Joins
module Dynamic_ctx = Xqc_runtime.Dynamic_ctx
module Builtins = Xqc_runtime.Builtins
module Interp = Xqc_interp.Interp
module Indexed = Xqc_interp.Indexed
module Store = Xqc_store.Store
module Domain_pool = Xqc_runtime.Domain_pool
module Par_exec = Xqc_runtime.Par_exec
module Codegen = Xqc_codegen.Codegen
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

let strategy_name = function
  | No_algebra -> "no-algebra"
  | Saxon_like -> "saxon-like"
  | Algebra_unoptimized -> "algebra-no-optim"
  | Optimized_nl -> "optim-nl-join"
  | Optimized -> "optim-xquery-join"

let all_strategies =
  [ No_algebra; Saxon_like; Algebra_unoptimized; Optimized_nl; Optimized ]

type prepared = {
  source : string;
  strategy : strategy;
  core : Core_ast.cquery;
  plan : Algebra.plan option;  (** logical main plan, after this strategy's rewriting *)
  pplan : Physical.query option;
      (** the cost-based planner's physical plans (algebraic strategies) *)
  projection : (string * Doc_paths.spec list option) list;
      (** per-free-variable projection paths (empty unless ~project) *)
  runner : Dynamic_ctx.t -> Item.sequence;
  stats : Obs.collector option;
      (** statistics collector (present iff prepared with [~stats:true]);
          phase timings accumulate across runs, the annotated plan
          reflects the most recent run *)
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
   planner-agreement tests and benchmarks.  [par] overrides the
   intra-query parallelism degree; by default the planner is granted the
   domain pool's per-query share of the machine ([query_degree]), which
   is 1 — annotation-free plans — when the pool budget is 1. *)
let planner_config ?par strategy force_join : Planner.config =
  let default =
    match strategy with
    | Optimized_nl | Algebra_unoptimized -> Some Physical.Nested_loop
    | No_algebra | Saxon_like | Optimized -> None
  in
  {
    Planner.force_join = (match force_join with Some _ as f -> f | None -> default);
    par_degree =
      (match par with Some n -> max 1 n | None -> Domain_pool.query_degree ());
    par_threshold = !Planner.default_par_threshold;
  }

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

(* Compile one core query into a bare runner under [strategy] — the same
   per-strategy execution paths [prepare] wires up, without the
   projection/statistics/knob plumbing.  The update driver evaluates
   every statement's source and target queries through this, so updates
   exercise whichever engine configuration the session runs queries
   under. *)
let runner_of_core ?(strategy = Optimized) (core : Core_ast.cquery) :
    Dynamic_ctx.t -> Item.sequence =
  match strategy with
  | No_algebra -> fun ctx -> Interp.run ctx core
  | Saxon_like -> fun ctx -> Indexed.run ctx core
  | Algebra_unoptimized | Optimized_nl | Optimized ->
      let compiled = optimize_query strategy (Compile.compile_query core) in
      let planned = plan_query (planner_config strategy None) compiled in
      fun ctx -> Eval.run ctx planned

(* Project the bindings of analyzable free variables before running,
   restoring the original bindings afterwards.  [ph] times the pruning
   under a named phase when statistics are being collected. *)
let with_projection ?(ph = fun _name f -> f ())
    (projection : (string * Doc_paths.spec list option) list)
    (runner : Dynamic_ctx.t -> Item.sequence) (ctx : Dynamic_ctx.t) :
    Item.sequence =
  let saved = ref [] in
  ph "projection apply" (fun () ->
      List.iter
        (fun (var, specs) ->
          match (specs, Hashtbl.find_opt ctx.Dynamic_ctx.globals var) with
          | Some specs, Some value when List.exists Item.is_node value ->
              let projected =
                Projection.project_specs ctx.Dynamic_ctx.schema
                  (List.map
                     (fun (sp : Doc_paths.spec) ->
                       { Projection.steps = sp.Doc_paths.steps; subtree = sp.Doc_paths.subtree })
                     specs)
                  value
              in
              saved := (var, value) :: !saved;
              Hashtbl.replace ctx.Dynamic_ctx.globals var projected
          | _ -> ())
        projection);
  let restore () =
    List.iter (fun (var, value) -> Hashtbl.replace ctx.Dynamic_ctx.globals var value) !saved
  in
  match runner ctx with
  | r ->
      restore ();
      r
  | exception e ->
      restore ();
      raise e

(* Parse, normalize, compile and (per strategy) optimize a query once; the
   result can be run against many dynamic contexts.  With [~project:true]
   the bindings of free document variables are pruned to the statically
   inferred projection paths before evaluation (Marian-Siméon document
   projection). *)
let prepare ?(strategy = Optimized) ?(project = false) ?(stats = false)
    ?force_join ?par (source : string) : prepared =
  let collector = if stats then Some (Obs.collector ()) else None in
  (* time a prepare-side phase *)
  let ph name f = match collector with Some c -> Obs.phase c name f | None -> f () in
  (* time every invocation of a runner under a named phase *)
  let timed_runner name runner =
    match collector with
    | None -> runner
    | Some c -> fun ctx -> Obs.phase c name (fun () -> runner ctx)
  in
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
      let projection =
        if project then ph "projection analysis" (fun () -> Doc_paths.analyze core)
        else []
      in
      let finish runner plan pplan =
        let runner =
          if project then with_projection ~ph:(fun n f -> ph n f) projection runner
          else runner
        in
        { source; strategy; core; plan; pplan; projection; runner; stats = collector }
      in
      match strategy with
      | No_algebra ->
          finish (timed_runner "eval" (fun ctx -> Interp.run ctx core)) None None
      | Saxon_like ->
          finish (timed_runner "eval" (fun ctx -> Indexed.run ctx core)) None None
      | Algebra_unoptimized | Optimized_nl | Optimized ->
          let compiled = ph "compile" (fun () -> Compile.compile_query core) in
          let compiled =
            ph "rewrite" (fun () ->
                optimize_query
                  ?trace:(Option.map (fun c -> c.Obs.co_rewrite) collector)
                  strategy compiled)
          in
          (* cost-based physical planning: every execution-strategy
             decision (join algorithm, build side, index-vs-walk,
             streaming bounds, materialization points) is made here,
             fed by the store's index statistics *)
          let planned =
            ph "plan" (fun () ->
                plan_query (planner_config ?par strategy force_join) compiled)
          in
          finish
            (fun ctx -> Eval.run ?stats:collector ctx planned)
            (Some compiled.Compile.cmain) (Some planned))

(* ------------------------------------------------------------------ *)
(* Prepared-plan cache                                                 *)
(* ------------------------------------------------------------------ *)

(* LRU cache over [prepare], keyed by everything that shapes the
   compiled plan: query text, strategy, the projection knob, the store's
   index mode and the codegen mode — physical planning is
   statistics-sensitive, so a plan prepared with indexing off must not
   be reused once indexes are available (and vice versa), and a codegen
   mode change must replan for the same reason.
   Stats-collecting preparations are never cached — each caller of
   [~stats:true] expects its own collector.  Recency is a global tick;
   eviction scans for the minimum (the cache is small, capacity beats
   constant factors). *)

(* Every execution-mode knob that shapes a compiled plan, gathered in
   one record so the cache key cannot silently drift from the set of
   modes: adding a knob here forces the compiler to visit every place a
   key is built.  [m_par] is the parallelism degree the plan was
   annotated with: a plan annotated under [--par 4] must not be reused
   after the budget drops to 1 (and vice versa) — the annotation changes
   the compiled execution strategy, not just a runtime gate. *)
type exec_modes = {
  m_strategy : strategy;
  m_project : bool;
  m_par : int;  (** domain-pool per-query degree at planning time *)
  m_index : Store.mode;
  m_codegen : Codegen.mode;
  m_docs_gen : int;
      (** the MVCC document-state generation at planning time: plans are
          costed against index statistics, and an applied update changes
          both the statistics and (on full renumber) the identity of the
          trees they describe — a cached plan must not survive the
          document state it was planned for *)
}

(* The ambient execution modes: everything not passed explicitly is read
   from the process-wide knobs, exactly as [prepare] will read them. *)
let current_exec_modes ~strategy ~project () : exec_modes =
  {
    m_strategy = strategy;
    m_project = project;
    m_par = Domain_pool.query_degree ();
    m_index = !Store.mode;
    m_codegen = !Codegen.mode;
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

let prepare_cached ?(strategy = Optimized) ?(project = false) (source : string) :
    prepared =
  Trace.in_span "plan-cache" @@ fun () ->
  let key = (source, current_exec_modes ~strategy ~project ()) in
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
        Trace.in_span "compile" (fun () -> prepare ~strategy ~project source)
      in
      Obs.with_lock plan_lock (fun () ->
          if !plan_cache_capacity > 0 then begin
            if Hashtbl.length plan_cache >= !plan_cache_capacity then evict_lru ();
            Hashtbl.replace plan_cache key (p, ref !plan_tick)
          end);
      p

let plan_cache_size () = Obs.with_lock plan_lock (fun () -> Hashtbl.length plan_cache)

let run (p : prepared) (ctx : Dynamic_ctx.t) : Item.sequence =
  try p.runner ctx with
  | Dynamic_ctx.Dynamic_error m -> raise (Error ("dynamic error: " ^ m))
  | Atomic.Cast_error m -> raise (Error ("type error: " ^ m))
  | Seqtype.Type_assertion_failure m -> raise (Error ("type assertion failure: " ^ m))

(* ------------------------------------------------------------------ *)
(* Conveniences                                                        *)
(* ------------------------------------------------------------------ *)

let context ?schema ?resolver () : Dynamic_ctx.t = Dynamic_ctx.create ?schema ?resolver ()

let bind_variable = Dynamic_ctx.bind_global
let bind_document = Dynamic_ctx.bind_document

let parse_document ?uri (xml : string) : Node.t = Xml_parser.parse_string ?uri xml

let serialize (s : Item.sequence) : string = Serializer.sequence_to_string s

(* One-shot evaluation with optional bindings. *)
let eval_string ?strategy ?project ?force_join ?schema ?(variables = [])
    ?(documents = []) (source : string) : Item.sequence =
  let ctx = context ?schema () in
  List.iter (fun (name, value) -> bind_variable ctx name value) variables;
  List.iter (fun (uri, doc) -> bind_document ctx uri doc) documents;
  run (prepare ?strategy ?project ?force_join source) ctx

(* A multi-section compilation report: the Core form and the logical plan
   before and after optimization, in the paper's notation, plus the
   inferred document-projection paths and the rewrite-rule firing trace. *)
let explain ?(strategy = Optimized) (source : string) : string =
  let core = Normalize.normalize_string source in
  let buf = Buffer.create 1024 in
  (match Doc_paths.analyze core with
  | [] -> ()
  | projection ->
      Buffer.add_string buf "=== Document projection paths ===\n";
      List.iter
        (fun (v, specs) ->
          match specs with
          | None -> Buffer.add_string buf (Printf.sprintf "$%s: not projectable\n" v)
          | Some specs ->
              List.iter
                (fun (sp : Doc_paths.spec) ->
                  Buffer.add_string buf
                    (Printf.sprintf "$%s/%s%s\n" v
                       (String.concat "/"
                          (List.map
                             (fun (ax, t) ->
                               Printf.sprintf "%s::%s" (Ast.axis_to_string ax)
                                 (Ast.node_test_to_string t))
                             sp.Doc_paths.steps))
                       (if sp.Doc_paths.subtree then "  (subtree)" else "  (node)")))
                specs)
        projection;
      Buffer.add_string buf "\n");
  Buffer.add_string buf "=== XQuery Core ===\n";
  Buffer.add_string buf (Core_ast.to_string core.Core_ast.cq_main);
  Buffer.add_string buf "\n\n=== Logical plan (naive compilation) ===\n";
  let compiled = Compile.compile_query core in
  Buffer.add_string buf (Pretty.to_string compiled.Compile.cmain);
  (match optimizer_options strategy with
  | None -> ()
  | Some options ->
      let trace = Obs.rewrite_trace () in
      let optimized = Rewrite.optimize ~options ~trace compiled.Compile.cmain in
      Buffer.add_string buf "\n\n=== Optimized plan ===\n";
      Buffer.add_string buf (Pretty.to_string optimized);
      Buffer.add_string buf "\n\n=== Physical plan ===\n";
      let config = planner_config strategy None in
      let physical = Planner.plan ~config optimized in
      Buffer.add_string buf (Pretty.physical_to_string physical);
      (match Codegen.annotate physical with
      | [] -> ()
      | segments ->
          Buffer.add_string buf "\n\n=== Fused segments ===\n";
          List.iteri
            (fun i (label, prog) ->
              Buffer.add_string buf
                (Printf.sprintf "#%d [%d instrs] at %s\n    %s\n" (i + 1)
                   (Codegen.instr_count prog) label (Codegen.describe prog)))
            segments);
      if Obs.total_firings trace > 0 then begin
        Buffer.add_string buf "\n\n=== Rewrite trace ===\n";
        Buffer.add_string buf (Obs.rewrite_to_string trace)
      end);
  Buffer.add_string buf "\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE                                                     *)
(* ------------------------------------------------------------------ *)

let stats (p : prepared) : Obs.collector option = p.stats

let physical_plan (p : prepared) : Physical.query option = p.pplan

(* Render the statistics a [~stats:true] prepared query has collected so
   far: pipeline phase timings, the rewrite-rule trace, and (after at
   least one [run]) the annotated per-operator plans with join
   accounting.  Raises [Error] when the query was prepared without
   [~stats:true]. *)
let explain_analyze (p : prepared) : string =
  match p.stats with
  | None -> raise (Error "explain_analyze: query was not prepared with ~stats:true")
  | Some c ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "=== Pipeline phases ===\n";
      Buffer.add_string buf (Obs.phases_to_string c);
      if Obs.total_firings c.Obs.co_rewrite > 0 then begin
        Buffer.add_string buf "\n=== Rewrite trace ===\n";
        Buffer.add_string buf (Obs.rewrite_to_string c.Obs.co_rewrite)
      end;
      (match c.Obs.co_plans with
      | [] ->
          Buffer.add_string buf
            "\n(no annotated plans: run the query at least once, with an \
             algebraic strategy, to collect per-operator statistics)\n"
      | plans ->
          List.iter
            (fun (name, root) ->
              Buffer.add_string buf
                (Printf.sprintf "\n=== EXPLAIN ANALYZE (%s) ===\n" name);
              Buffer.add_string buf (Pretty.analyze_to_string root))
            plans;
          let totals = Obs.join_totals c in
          if totals.Obs.js_builds > 0 || totals.Obs.js_probes > 0 then begin
            Buffer.add_string buf "\n=== Join totals ===\n";
            Buffer.add_string buf (Obs.join_stats_to_string totals);
            Buffer.add_char buf '\n'
          end);
      (* process-wide counters: index builds/hits, doc and plan caches *)
      let counters = Obs.global_counters_to_string () in
      if not (String.equal counters "") then begin
        Buffer.add_string buf "\n=== Engine counters (process-wide) ===\n";
        Buffer.add_string buf counters
      end;
      Buffer.contents buf

let stats_json (p : prepared) : string option =
  Option.map Obs.collector_to_json_string p.stats

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
    let r core = runner_of_core ~strategy core in
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
     pending primitives. *)
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
            let p =
              match Node.parent t with
              | Some p -> p
              | None -> update_error "insert before/after target has no parent"
            in
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
        [ Pul.Replace_value (t, string_of_seq (srcr ctx)) ]
    | C_rename (tgtr, namer) ->
        let t = single_node "rename target" (tgtr ctx) in
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
