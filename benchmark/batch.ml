(* Batch workloads: the paper's unit (load, evaluate and serialize a set
   of queries) as timed rounds, run in forked episodes (see
   [Workloads.batch]).

   An untraced round calls what a library user calls: [Xqc.parse_document]
   and [Store.index_nodes] (when the round loads its document), then
   [Xqc.prepare], [Xqc.run] and [Xqc.serialize] per query.  A traced
   round makes the same calls one layer down, exactly the chain
   [Xqc.prepare] + [Xqc.run] perform, with a span around each:

     parse_query -> normalize_query -> compile_query -> optimize_query
     -> plan_query (planner_config Optimized None) -> Eval.run -> serialize

   Every round's outputs are checked against the interpreter oracle
   after the round's clock has stopped. *)

module W = Workloads
module Obs = Xqc_obs.Obs

type episode = {
  e_setup_s : float;  (** fork to timed-loop start, warm-up round included *)
  e_loop_s : float;  (** wall time of the timed loop *)
  e_plain_ms : float list;  (** untraced rounds that passed the oracle *)
  e_traced_ms : float list;  (** traced rounds that passed the oracle *)
  e_attempted : int;
  e_failed : int;  (** rounds with a failed query *)
  e_failures : (string * int) list;  (** failed queries, by "<code> <query>" *)
  e_hwm_mb : float;
  e_layers : (string * float) list;  (** per-layer sums over traced rounds *)
  e_spans : Spans.span list;
}

(* Engine counters whose per-round deltas are per-layer metrics. *)
let counters =
  [
    ("index_hits", "store.index_hits");
    ("index_fallbacks", "store.index_fallbacks");
    ("fused_rows", "codegen.fused_rows");
    ("fused_fallbacks", "codegen.fused_fallbacks");
    ("par_tasks", "runtime.par_tasks");
    ("rel_subplans", "relational.rel_subplans");
    ("rel_rows", "relational.rel_rows");
  ]

(* Layer spans: each name is "<layer>.<what>"; their self times are the
   per-layer times, and with "round" and "query" (harness glue) they
   cover a traced round. *)
let layer_spans =
  [
    "xml.load"; "store.index"; "frontend.parse"; "frontend.normalize"; "compiler.compile";
    "optimizer.rewrite"; "optimizer.plan"; "runtime.eval"; "xml.serialize";
  ]

let counter_values () =
  let all = Obs.global_counters () in
  List.map (fun (c, _) -> Option.value (List.assoc_opt c all) ~default:0) counters

(* Words allocated by the calling domain so far. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let load ~uri xml =
  let root = Xqc.parse_document ~uri xml in
  ignore (Xqc.Store.index_nodes root);
  root

let context var root =
  let ctx = Xqc.context () in
  Xqc.bind_variable ctx var [ Xqc.Item.Node root ];
  ctx

let failure_code e = Printexc.exn_slot_name e

let plain_round ~uri ~var ~xml ~preloaded queries =
  let root = match preloaded with Some r -> r | None -> load ~uri xml in
  let ctx = context var root in
  List.map
    (fun (name, q) ->
      (name, try Ok (Xqc.serialize (Xqc.run (Xqc.prepare q) ctx), None) with e -> Error (failure_code e)))
    queries

(* Accumulators of one episode's traced rounds. *)
type traced = { sp : Spans.t; mutable alloc : float }

let traced_query tr ctx name q =
  let span ?detail name f = Spans.within tr.sp ?detail name f in
  span ~detail:name "query" (fun () ->
      let ast = span "frontend.parse" (fun () -> Xqc.Xq_parser.parse_query q) in
      let core = span "frontend.normalize" (fun () -> Xqc.Normalize.normalize_query ast) in
      let compiled = span "compiler.compile" (fun () -> Xqc.Compile.compile_query core) in
      let optimized = span "optimizer.rewrite" (fun () -> Xqc.optimize_query Xqc.Optimized compiled) in
      let planned =
        span "optimizer.plan" (fun () -> Xqc.plan_query (Xqc.planner_config Xqc.Optimized None) optimized)
      in
      let w0 = alloc_words () in
      let items = span ~detail:name "runtime.eval" (fun () -> Xqc.Eval.run ctx planned) in
      tr.alloc <- tr.alloc +. (alloc_words () -. w0);
      (span "xml.serialize" (fun () -> Xqc.serialize items), Some planned))

let traced_round tr ~uri ~var ~xml ~preloaded queries =
  let span ?detail name f = Spans.within tr.sp ?detail name f in
  span "round" (fun () ->
      let root =
        match preloaded with
        | Some r -> r
        | None ->
            let r = span "xml.load" (fun () -> Xqc.parse_document ~uri xml) in
            span "store.index" (fun () -> ignore (Xqc.Store.index_nodes r));
            r
      in
      let ctx = context var root in
      List.map
        (fun (name, q) -> (name, try Ok (traced_query tr ctx name q) with e -> Error (failure_code e)))
        queries)

(* Static plan facts of one traced round: join algorithms chosen and
   segments the fused tier will run. *)
let plan_facts (plans : Xqc.Physical.query list) =
  let bodies (pq : Xqc.Physical.query) =
    (pq.Xqc.Physical.pmain :: List.map snd pq.Xqc.Physical.pglobals)
    @ List.map (fun f -> f.Xqc.Physical.pf_body) pq.Xqc.Physical.pfunctions
  in
  let count pred =
    List.fold_left
      (fun acc pq ->
        List.fold_left
          (fun acc body -> Xqc.Physical.fold (fun n t -> if pred t.Xqc.Physical.pop then n + 1 else n) acc body)
          acc (bodies pq))
      0 plans
  in
  let segments =
    List.fold_left
      (fun acc pq -> List.fold_left (fun acc b -> acc + List.length (Xqc.Codegen.annotate b)) acc (bodies pq))
      0 plans
  in
  [
    ("optimizer.hash_joins", count (function Xqc.Physical.PHashJoin _ -> true | _ -> false));
    ("optimizer.sort_joins", count (function Xqc.Physical.PSortJoin _ -> true | _ -> false));
    ("optimizer.nl_joins", count (function Xqc.Physical.PNestedLoop _ -> true | _ -> false));
    ("codegen.fused_segments", segments);
  ]

(* One episode, in the child.  [t_fork] is when the parent forked. *)
let episode ~t_fork ~trace ~keep_spans (b : W.batch) ~xmls ~oracles () : episode =
  let uri = W.doc_key b.b_doc and var = W.doc_var b.b_doc in
  let preloaded = if b.b_parse_each_round then None else Some (Array.map (load ~uri) xmls) in
  (* round [r] (the warm-up is round 0) reads document copy [r mod copies] *)
  let copy r = r mod Array.length xmls in
  let inputs r = (xmls.(copy r), Option.map (fun roots -> roots.(copy r)) preloaded, oracles.(copy r)) in
  (let xml, preloaded, _ = inputs 0 in
   ignore (plain_round ~uri ~var ~xml ~preloaded b.b_queries));
  let tr = { sp = Spans.create ~keep:keep_spans; alloc = 0. } in
  let sums = Hashtbl.create 64 in
  let add k v = Hashtbl.replace sums k (v +. Option.value (Hashtbl.find_opt sums k) ~default:0.) in
  let failures = Hashtbl.create 4 in
  let fail code = Hashtbl.replace failures code (1 + Option.value (Hashtbl.find_opt failures code) ~default:0) in
  let plain = ref [] and traced = ref [] and failed = ref 0 in
  let loop_start = Proc.now () in
  for r = 1 to b.b_rounds do
    let is_traced = trace && r mod 2 = 0 in
    let xml, preloaded, oracle = inputs r in
    let c0 = counter_values () in
    let gc0 = (Gc.quick_stat ()).Gc.major_collections in
    let alloc0 = tr.alloc in
    Spans.set_round tr.sp r;
    let t0 = Proc.now () in
    let outputs =
      if is_traced then traced_round tr ~uri ~var ~xml ~preloaded b.b_queries
      else plain_round ~uri ~var ~xml ~preloaded b.b_queries
    in
    let ms = (Proc.now () -. t0) *. 1000. in
    let ok =
      List.fold_left
        (fun ok (name, out) ->
          let code =
            match out with
            | Error code -> Some code
            | Ok (text, _) when List.assoc_opt name oracle = Some (Oracle.digest text) -> None
            | Ok _ -> Some "mismatch"
          in
          Option.iter (fun code -> fail (code ^ " " ^ name)) code;
          ok && code = None)
        true outputs
    in
    if not ok then incr failed
    else if is_traced then traced := ms :: !traced
    else plain := ms :: !plain;
    if is_traced then begin
      add "traced_rounds" 1.;
      add "round_ms" ms;
      let c1 = counter_values () in
      List.iter2 (fun (_, metric) (v0, v1) -> add metric (float_of_int (v1 - v0))) counters (List.combine c0 c1);
      add "runtime.major_gcs" (float_of_int ((Gc.quick_stat ()).Gc.major_collections - gc0));
      add "runtime.alloc_mwords" ((tr.alloc -. alloc0) /. 1e6);
      add "xml.output_bytes"
        (float_of_int
           (List.fold_left (fun acc (_, o) -> match o with Ok (t, _) -> acc + String.length t | _ -> acc) 0 outputs));
      let plans = List.filter_map (fun (_, o) -> match o with Ok (_, p) -> p | Error _ -> None) outputs in
      List.iter (fun (k, n) -> add k (float_of_int n)) (plan_facts plans);
      Hashtbl.replace sums "store.roots" (float_of_int (Xqc.Store.stats ()).Xqc.Store.st_roots)
    end
  done;
  let loop_s = Proc.now () -. loop_start in
  List.iter (fun name -> add (name ^ "_ms") (Spans.self_secs tr.sp name *. 1000.)) layer_spans;
  List.iter (fun (q, secs) -> add ("runtime.eval_ms." ^ q) (secs *. 1000.)) (Spans.detail_secs tr.sp "runtime.eval");
  {
    e_setup_s = loop_start -. t_fork;
    e_loop_s = loop_s;
    e_plain_ms = !plain;
    e_traced_ms = !traced;
    e_attempted = b.b_rounds;
    e_failed = !failed;
    e_failures = Hashtbl.fold (fun k n acc -> (k, n) :: acc) failures [];
    e_hwm_mb = Proc.vm_hwm_mb 0;
    e_layers = Hashtbl.fold (fun k v acc -> (k, v) :: acc) sums [];
    e_spans = Spans.kept tr.sp;
  }

(* Episodes until [seconds] of timed loop have run (always at least
   one; [max_episodes] caps the quick smoke run). *)
let run ~seconds ~trace ~seed ?max_episodes (b : W.batch) ~oracles : episode list =
  let xmls = W.documents ~seed b.b_doc in
  let timeout = Float.max 120. (4. *. seconds) in
  let started = Proc.now () in
  let rec loop acc measured n =
    let enough = measured >= seconds || match max_episodes with Some m -> n >= m | None -> false in
    (* a run whose episodes keep failing, or take far longer than their
       timed loops, stops early *)
    if n > 0 && (enough || Proc.now () -. started > 3. *. seconds +. 60.) then List.rev acc
    else
      let t_fork = Proc.now () in
      let keep_spans = if n < 3 then 3000 else 0 in
      match Proc.in_child ~timeout (episode ~t_fork ~trace ~keep_spans b ~xmls ~oracles) with
      | Ok e -> loop (e :: acc) (measured +. e.e_loop_s) (n + 1)
      | Error m ->
          let e =
            {
              e_setup_s = Float.nan;
              e_loop_s = Proc.now () -. t_fork;
              e_plain_ms = [];
              e_traced_ms = [];
              e_attempted = b.b_rounds;
              e_failed = b.b_rounds;
              e_failures = [ ("episode " ^ m, b.b_rounds) ];
              e_hwm_mb = Float.nan;
              e_layers = [];
              e_spans = [];
            }
          in
          loop (e :: acc) (measured +. e.e_loop_s) (n + 1)
  in
  loop [] 0. 0
