(* The repository benchmark.

     main.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced]
                  [--out FILE] [--quick]
     main.exe oracle --seed N
     main.exe compare OLD NEW
     main.exe selftest

   [run] measures each workload (all of them without --workload) for S
   seconds of timed operations and prints, as the last line of standard
   output, one JSON object: whether every output matched the oracle,
   operations attempted and failed, and the metrics BENCHMARK.json names
   (end-to-end ones untraced, per-layer ones with --trace 1).  Each run
   is also appended as a full record, stamped with commit, nproc and
   OCaml version, to benchmark/out/runs.jsonl (or --out FILE), which is
   what [compare] reads.  See README.md. *)

module W = Workloads

let out_dir = "benchmark/out"

(* Every per-layer metric the harness computes.  A workload that does
   not exercise one reports 0 for it. *)
let layer_metrics =
  [
    "xml.load_ms"; "xml.serialize_ms"; "xml.output_bytes"; "store.index_ms"; "store.index_hits";
    "store.index_fallbacks"; "store.roots"; "frontend.parse_ms"; "frontend.normalize_ms";
    "compiler.compile_ms"; "optimizer.rewrite_ms"; "optimizer.plan_ms"; "optimizer.hash_joins";
    "optimizer.sort_joins"; "optimizer.nl_joins"; "runtime.eval_ms"; "runtime.alloc_mwords";
    "runtime.major_gcs"; "runtime.par_tasks"; "codegen.fused_segments"; "codegen.fused_rows";
    "codegen.fused_fallbacks"; "relational.rel_subplans"; "relational.rel_rows";
    "update.updates_applied"; "update.incremental_index_patches"; "update.full_renumbers";
    "update.snapshot_versions_live"; "update.write_ms.p50"; "update.write_ms.p95";
    "update.write_lag_ms.p95"; "server.queue_wait_ms.mean"; "server.eval_ms.mean";
    "server.serialize_ms.mean"; "server.lock_wait_ms"; "server.worker_utilization";
    "server.plan_cache_hit_ratio"; "server.admission_rejected"; "obs.bench_trace_overhead_pct";
    "obs.span_coverage_pct";
  ]
  @ List.map
      (fun (q, _) -> "runtime.eval_ms." ^ q)
      (Xqc_workload.Xmark_queries.all @ W.clio_queries)

(* What one run of one workload measured. *)
type outcome = {
  o_end_to_end : (string * float) list;
  o_layers : (string * float) list;
  o_attempted : int;
  o_failed : int;
  o_failures : (string * int) list;  (** by "<code> <query or request>" *)
  o_samples : (string * int) list;
  o_tail : (float * float) option;
      (** the highest percentile of latency with ten samples above it, and its value *)
}

let tail sorted =
  Option.map (fun p -> (p, Stats.percentile sorted p)) (Stats.supported_tail (Array.length sorted))

let merge_counts lists =
  List.fold_left
    (fun acc (k, n) -> (k, n + Option.value (List.assoc_opt k acc) ~default:0) :: List.remove_assoc k acc)
    [] (List.concat lists)

let pct sorted p = if Array.length sorted = 0 then Float.nan else Stats.percentile sorted p
let or0 x = if Float.is_nan x then 0. else x
let sum = List.fold_left ( +. ) 0.

let batch_outcome (eps : Batch.episode list) =
  let started = List.filter (fun (e : Batch.episode) -> not (Float.is_nan e.e_setup_s)) eps in
  let plain = List.concat_map (fun (e : Batch.episode) -> e.e_plain_ms) eps in
  let traced = List.concat_map (fun (e : Batch.episode) -> e.e_traced_ms) eps in
  let total k = sum (List.map (fun (e : Batch.episode) -> Option.value (List.assoc_opt k e.e_layers) ~default:0.) eps) in
  let rounds = total "traced_rounds" in
  let per_round k = if rounds > 0. then total k /. rounds else 0. in
  let gauges = [ "traced_rounds"; "round_ms"; "store.roots" ] in
  let keys = List.sort_uniq compare (List.concat_map (fun (e : Batch.episode) -> List.map fst e.e_layers) eps) in
  let layer_ms = sum (List.map (fun s -> total (s ^ "_ms")) Batch.layer_spans) in
  let sorted = Stats.sorted plain in
  {
    o_end_to_end =
      [
        ("setup_s", Stats.median (List.map (fun (e : Batch.episode) -> e.e_setup_s) started));
        ("latency_ms.p50", pct sorted 50.);
        ( "ops_per_s",
          Stats.median
            (List.map (fun (e : Batch.episode) -> float_of_int (List.length e.e_plain_ms) /. e.e_loop_s) started) );
        ("peak_rss_mb", Stats.median (List.map (fun (e : Batch.episode) -> e.e_hwm_mb) started));
      ];
    o_layers =
      List.filter_map (fun k -> if List.mem k gauges then None else Some (k, per_round k)) keys
      @ [
          ("store.roots", or0 (Stats.mean (List.filter_map (fun (e : Batch.episode) -> List.assoc_opt "store.roots" e.e_layers) eps)));
          ( "obs.bench_trace_overhead_pct",
            or0 ((Stats.median traced -. Stats.median plain) /. Stats.median plain *. 100.) );
          ("obs.span_coverage_pct", if rounds > 0. then layer_ms /. total "round_ms" *. 100. else 0.);
        ];
    o_attempted = List.fold_left (fun acc (e : Batch.episode) -> acc + e.e_attempted) 0 eps;
    o_failed = List.fold_left (fun acc (e : Batch.episode) -> acc + e.e_failed) 0 eps;
    o_failures = merge_counts (List.map (fun (e : Batch.episode) -> e.e_failures) eps);
    o_samples =
      [
        ("rounds", List.length plain);
        ("traced_rounds", List.length traced);
        ("episodes", List.length eps);
      ];
    o_tail = tail sorted;
  }

let serve_outcome (r : Serve.result) =
  let reads = Stats.sorted r.r_read_ms and writes = Stats.sorted r.r_write_ms in
  {
    o_end_to_end =
      [
        ("setup_s", Stats.median r.r_setup_s);
        ("latency_ms.p50", pct reads 50.);
        ("ops_per_s", float_of_int (Array.length reads) /. r.r_window_s);
        ("peak_rss_mb", r.r_hwm_mb);
      ];
    o_layers =
      Serve.layers r
      @ [
          ("update.write_ms.p50", or0 (pct writes 50.));
          ("update.write_ms.p95", or0 (pct writes 95.));
          ("update.write_lag_ms.p95", or0 (pct (Stats.sorted r.r_write_lag_ms) 95.));
        ];
    o_attempted = r.r_attempted;
    o_failed = List.fold_left (fun acc (_, n) -> acc + n) 0 r.r_failures;
    o_failures = r.r_failures;
    o_samples =
      [ ("reads", Array.length reads); ("writes", Array.length writes); ("setups", List.length r.r_setup_s) ];
    o_tail = tail reads;
  }

(* ------------------------------------------------------------------ *)
(* Records                                                             *)
(* ------------------------------------------------------------------ *)

let git_commit () =
  let read p = String.trim (Json.read_file (Filename.concat ".git" p)) in
  try
    match String.split_on_char ' ' (read "HEAD") with
    | [ "ref:"; r ] -> (
        try read r
        with Sys_error _ ->
          read "packed-refs" |> String.split_on_char '\n'
          |> List.find_map (fun l ->
                 match String.split_on_char ' ' l with [ sha; r' ] when r' = r -> Some sha | _ -> None)
          |> Option.value ~default:"unknown")
    | _ -> read "HEAD"
  with Sys_error _ -> "unknown"

(* Taken before [run] pins the process, after which it reads 1. *)
let nproc = Domain.recommended_domain_count ()

(* The CPU [run] pinned the process to, if it could. *)
let pinned_cpu = ref None

let stamp () =
  [
    ("commit", Json.Str (git_commit ()));
    ("nproc", Json.Int nproc);
    ("pinned_cpu", match !pinned_cpu with Some c -> Json.Int c | None -> Json.Null);
    ("ocaml", Json.Str Sys.ocaml_version);
    ("unix_time", Json.Float (Unix.gettimeofday ()));
  ]

(* The metrics BENCHMARK.json names for this mode, with their values. *)
let select (spec : Spec.t) ~trace (o : outcome) =
  let metrics = if trace then spec.per_layer else spec.end_to_end in
  List.map
    (fun (m : Spec.metric) ->
      let v =
        match List.assoc_opt m.m_name (if trace then o.o_layers else o.o_end_to_end) with
        | Some v -> v
        | None when trace && List.mem m.m_name layer_metrics -> 0.
        | None -> failwith (Printf.sprintf "BENCHMARK.json names %s, which the harness does not compute" m.m_name)
      in
      (m, v))
    metrics

(* Every checked output matched: no failure is an oracle mismatch. *)
let correct (o : outcome) =
  not (List.exists (fun (what, _) -> String.starts_with ~prefix:"mismatch " what) o.o_failures)

let result_line selected o =
  Json.Obj
    [
      ("correct", Json.Bool (correct o));
      ("attempted", Json.Int o.o_attempted);
      ("failed", Json.Int o.o_failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun ((m : Spec.metric), v) -> (m.m_name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str m.m_unit) ]))
             selected) );
    ]

let record ~workload ~seed ~seconds ~trace ~quick selected o =
  Json.Obj
    ([
       ("workload", Json.Str workload);
       ("seed", Json.Int seed);
       ("seconds", Json.Float seconds);
       ("trace", Json.Bool trace);
       ("quick", Json.Bool quick);
     ]
    @ stamp ()
    @ [
        ("samples", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) o.o_samples));
        ( "latency_tail",
          match o.o_tail with
          | Some (p, v) -> Json.Obj [ ("percentile", Json.Float p); ("ms", Json.Float v) ]
          | None -> Json.Null );
        ("correct", Json.Bool (correct o));
        ("attempted", Json.Int o.o_attempted);
        ("failed", Json.Int o.o_failed);
        ("failures", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) o.o_failures));
        ("metrics", Json.Obj (List.map (fun ((m : Spec.metric), v) -> (m.m_name, Json.Float v)) selected));
      ])

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

type opts = {
  workload : string option;
  seed : int;
  seconds : float option;  (** default: BENCHMARK.json's run_seconds *)
  trace : bool;
  out : string option;
  quick : bool;
}

let run_workload (spec : Spec.t) opts (w : W.t) =
  let seconds = Option.value opts.seconds ~default:spec.run_seconds in
  let w = if opts.quick then W.quick ~trace:opts.trace w else w in
  let oracles = Oracle.for_workload ~live:opts.quick ~seed:opts.seed w in
  let outcome =
    match w.shape with
    | W.Batch b ->
        let eps =
          Batch.run ~seconds ~trace:opts.trace ~seed:opts.seed
            ?max_episodes:(if opts.quick then Some 1 else None)
            b ~oracles
        in
        if opts.trace then begin
          let path = Filename.concat out_dir (w.name ^ ".trace.json") in
          Proc.mkdir_p out_dir;
          Spans.write_chrome path (List.filter (( <> ) []) (List.map (fun (e : Batch.episode) -> e.e_spans) eps));
          Printf.eprintf "wrote %s\n%!" path
        end;
        batch_outcome eps
    | W.Serve s ->
        serve_outcome (Serve.run ~seconds ~seed:opts.seed ~setups:(if opts.quick then 1 else 3) s ~oracles)
  in
  let selected = select spec ~trace:opts.trace outcome in
  Printf.eprintf "%s (seed %d, %s): %d attempted, %d failed%s\n" w.name opts.seed
    (if opts.trace then "traced" else "untraced")
    outcome.o_attempted outcome.o_failed
    (String.concat "" (List.map (fun (k, n) -> Printf.sprintf ", %s x%d" k n) outcome.o_failures));
  List.iter
    (fun ((m : Spec.metric), v) -> Printf.eprintf "  %-34s %14.4f %s\n" m.m_name v m.m_unit)
    selected;
  let rec_path = match opts.out with Some p -> Some p | None -> if opts.quick then None else Some (Filename.concat out_dir "runs.jsonl") in
  Option.iter
    (fun path ->
      Proc.mkdir_p (Filename.dirname path);
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_binary ] 0o644 path (fun oc ->
          output_string oc
            (Json.to_string (record ~workload:w.name ~seed:opts.seed ~seconds ~trace:opts.trace ~quick:opts.quick selected outcome));
          output_char oc '\n'))
    rec_path;
  print_endline (Json.to_string (result_line selected outcome));
  (w, outcome)

let refuse_xqc_env () =
  match
    List.filter (fun kv -> String.length kv >= 4 && String.sub kv 0 4 = "XQC_") (Array.to_list (Unix.environment ()))
  with
  | [] -> ()
  | set ->
      Printf.eprintf "run: refusing to measure with engine knobs set in the environment: %s\n"
        (String.concat " " set);
      exit 2

let run opts =
  refuse_xqc_env ();
  pinned_cpu := Proc.pin_to_one_cpu ();
  if !pinned_cpu = None then prerr_endline "run: could not pin to one CPU; measuring unpinned";
  let spec = Spec.load () in
  let workloads =
    match opts.workload with
    | None -> List.filter_map W.find spec.workloads
    | Some name -> (
        match W.find name with
        | Some w -> [ w ]
        | None ->
            Printf.eprintf "unknown workload %s (expected one of: %s)\n" name (String.concat ", " spec.workloads);
            exit 2)
  in
  if opts.quick then begin
    (* the smoke check: each workload untraced and traced; batch
       workloads must not fail, every named metric must be present
       ([select] raises otherwise) *)
    let bad =
      List.concat_map
        (fun w ->
          List.filter_map
            (fun trace ->
              let w, o = run_workload spec { opts with trace; seconds = Some 1. } w in
              match w.W.shape with
              | W.Batch _ when o.o_failed > 0 || not (correct o) -> Some w.W.name
              | _ -> None)
            [ false; true ])
        workloads
    in
    if bad <> [] then begin
      Printf.eprintf "quick: failures in %s\n" (String.concat ", " bad);
      exit 1
    end;
    Printf.eprintf "quick: ok\n"
  end
  else List.iter (fun w -> ignore (run_workload spec opts w)) workloads

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_string
    "usage: main.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--out FILE] [--quick]\n\
    \       main.exe oracle --seed N\n\
    \       main.exe compare OLD NEW\n\
    \       main.exe selftest\n";
  exit 2

let parse_run args =
  let int_arg v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with workload = Some v } rest
    | "--seed" :: v :: rest -> go { o with seed = int_arg v } rest
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with Some s when s > 0. -> go { o with seconds = Some s } rest | _ -> usage ())
    | "--trace" :: v :: rest -> go { o with trace = int_arg v <> 0 } rest
    | "--traced" :: rest -> go { o with trace = true } rest
    | "--out" :: v :: rest -> go { o with out = Some v } rest
    | "--quick" :: rest -> go { o with quick = true } rest
    | _ -> usage ()
  in
  go { workload = None; seed = 42; seconds = None; trace = false; out = None; quick = false } args

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run (parse_run args)
  | [ "oracle"; "--seed"; n ] -> (
      match int_of_string_opt n with Some seed -> Oracle.regenerate ~seed | None -> usage ())
  | [ "compare"; old_path; new_path ] -> Compare.run old_path new_path
  | [ "selftest" ] ->
      Stats.selftest ();
      prerr_endline "selftest: ok"
  | _ -> usage ()
