(* xqc — command-line XQuery runner.

     xqc run 'count(doc("f.xml")//item)' --doc f.xml
     xqc run -q query.xq --doc auction.xml --var auction=auction.xml
     xqc explain 'for $x in (1,2) return $x + 1' --strategy optim
     xqc gen xmark --bytes 1000000 -o auction.xml
     xqc gen dblp --bytes 250000 -o dblp.xml

   Documents named with --doc are available to fn:doc under both their
   path and basename; --var NAME=FILE binds $NAME to the document node. *)

open Cmdliner

let strategy_conv =
  let parse name =
    match Xqc.strategy_of_name name with
    | Some s -> Ok s
    | None -> Error (`Msg (Printf.sprintf "unknown strategy %S" name))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Xqc.strategy_name s))

let strategy_arg =
  let names =
    String.concat "; "
      (List.map (fun (_, names) -> String.concat " or " names) Xqc.strategy_names)
  in
  Arg.(
    value
    & opt strategy_conv Xqc.Optimized
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:("Engine configuration, one of: " ^ names ^ "."))

let collections_arg =
  Arg.(
    value & opt_all string []
    & info [ "collection" ] ~docv:"NAME=F1,F2,..."
        ~doc:
          "Bind fn:collection(\"NAME\") to the document nodes of the listed \
           files, in order.  Repeatable.")

let indent_arg =
  Arg.(value & flag & info [ "indent" ] ~doc:"Indent the serialized output.")

let query_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"Query text.")

let query_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "q"; "query-file" ] ~docv:"FILE" ~doc:"Read the query from a file.")

let docs_arg =
  Arg.(
    value & opt_all file []
    & info [ "doc" ] ~docv:"FILE" ~doc:"Pre-load an XML document for fn:doc.")

let vars_arg =
  Arg.(
    value & opt_all string []
    & info [ "var" ] ~docv:"NAME=FILE"
        ~doc:"Bind variable \\$NAME to the document node of FILE.")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_query query query_file =
  match (query, query_file) with
  | Some q, None -> Ok q
  | None, Some f -> Ok (read_file f)
  | Some _, Some _ -> Error "give either a query argument or --query-file, not both"
  | None, None -> Error "no query given (positional argument or --query-file)"

let make_context ?(collections = []) docs vars =
  let ctx = Xqc.context ~resolver:(fun uri -> Xqc.parse_document ~uri (read_file uri)) () in
  List.iter
    (fun path ->
      let doc = Xqc.parse_document ~uri:path (read_file path) in
      Xqc.bind_document ctx path doc;
      Xqc.bind_document ctx (Filename.basename path) doc)
    docs;
  List.iter
    (fun spec ->
      match String.index_opt spec '=' with
      | Some i ->
          let name = String.sub spec 0 i in
          let path = String.sub spec (i + 1) (String.length spec - i - 1) in
          let doc = Xqc.parse_document ~uri:path (read_file path) in
          Xqc.bind_variable ctx name [ Xqc.Item.Node doc ]
      | None -> failwith (Printf.sprintf "--var expects NAME=FILE, got %S" spec))
    vars;
  List.iter
    (fun spec ->
      match String.index_opt spec '=' with
      | Some i ->
          let name = String.sub spec 0 i in
          let files =
            String.split_on_char ','
              (String.sub spec (i + 1) (String.length spec - i - 1))
            |> List.filter (fun f -> f <> "")
          in
          let nodes =
            List.map (fun f -> Xqc.parse_document ~uri:f (read_file f)) files
          in
          Xqc.Dynamic_ctx.bind_collection ctx name nodes
      | None ->
          failwith (Printf.sprintf "--collection expects NAME=F1,F2,..., got %S" spec))
    collections;
  ctx

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Collect pipeline phase timings, per-operator runtime statistics \
           and the rewrite-rule trace, and print the report to stderr after \
           the result.")

let stats_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:
          "Write the collected statistics as JSON to FILE (implies \
           \\$(b,--stats) collection; use - for stderr).")

let write_stats_json prepared path =
  match (Xqc.stats_json prepared, path) with
  | Some json, "-" -> prerr_endline json
  | Some json, path ->
      let oc = open_out_bin path in
      output_string oc json;
      output_char oc '\n';
      close_out oc
  | None, _ -> ()

let run_cmd =
  let action strategy indent stats stats_json query
      query_file docs vars collections =
    match load_query query query_file with
    | Error m ->
        prerr_endline m;
        1
    | Ok q -> (
        try
          let ctx = make_context ~collections docs vars in
          let stats = stats || stats_json <> None in
          let prepared = Xqc.prepare ~strategy ~stats q in
          let result = Xqc.run prepared ctx in
          print_endline
            (if indent then Xqc.Serializer.sequence_to_string_indented result
             else Xqc.serialize result);
          if stats then prerr_string (Xqc.explain_analyze prepared);
          Option.iter (write_stats_json prepared) stats_json;
          0
        with
        | Xqc.Error m ->
            prerr_endline ("error: " ^ m);
            1
        | Failure m | Sys_error m ->
            prerr_endline ("error: " ^ m);
            1)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Evaluate a query and print the serialized result.")
    Term.(
      const action $ strategy_arg $ indent_arg $ stats_arg $ stats_json_arg $ query_arg
      $ query_file_arg $ docs_arg $ vars_arg $ collections_arg)

let explain_cmd =
  let analyze_arg =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:
            "Actually run the query (documents via \\$(b,--doc)/\\$(b,--var)) \
             and print phase timings, per-operator runtime statistics, and \
             the rewrite-rule trace instead of the static report.")
  in
  let action strategy analyze stats_json query
      query_file docs vars collections =
    match load_query query query_file with
    | Error m ->
        prerr_endline m;
        1
    | Ok q -> (
        try
          if analyze then begin
            let ctx = make_context ~collections docs vars in
            let prepared = Xqc.prepare ~strategy ~stats:true q in
            ignore (Xqc.run prepared ctx);
            print_string (Xqc.explain_analyze prepared);
            Option.iter (write_stats_json prepared) stats_json
          end
          else print_string (Xqc.explain ~strategy q);
          0
        with
        | Xqc.Error m ->
            prerr_endline ("error: " ^ m);
            1
        | Failure m | Sys_error m ->
            prerr_endline ("error: " ^ m);
            1)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Print the XQuery Core form and the logical plan before and after \
          optimization, in the paper's notation.  With \\$(b,--analyze), run \
          the query and print the EXPLAIN ANALYZE report (annotated plan \
          with per-operator calls, time and cardinality).")
    Term.(
      const action $ strategy_arg $ analyze_arg
      $ stats_json_arg $ query_arg $ query_file_arg $ docs_arg $ vars_arg
      $ collections_arg)

let gen_cmd =
  let kind_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("xmark", `Xmark); ("dblp", `Dblp) ])) None
      & info [] ~docv:"KIND" ~doc:"Document kind: xmark or dblp.")
  in
  let bytes_arg =
    Arg.(
      value & opt int 1_000_000
      & info [ "bytes" ] ~docv:"N" ~doc:"Approximate document size in bytes.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  let action kind bytes seed out =
    let s =
      match kind with
      | `Xmark -> Xqc_workload.Xmark.generate_string ~seed ~target_bytes:bytes ()
      | `Dblp -> Xqc_workload.Clio.generate_string ~seed ~target_bytes:bytes ()
    in
    (match out with
    | None -> print_string s
    | Some path ->
        let oc = open_out_bin path in
        output_string oc s;
        close_out oc;
        Printf.eprintf "wrote %d bytes to %s\n" (String.length s) path);
    0
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a benchmark document (XMark or DBLP-style).")
    Term.(const action $ kind_arg $ bytes_arg $ seed_arg $ out_arg)

let queries_cmd =
  let action () =
    print_endline "XMark queries:";
    List.iter (fun (n, _) -> Printf.printf "  %s\n" n) Xqc_workload.Xmark_queries.all;
    print_endline "Clio queries:";
    List.iter (fun (n, _) -> Printf.printf "  %s\n" n) Xqc_workload.Clio.all;
    0
  in
  Cmd.v
    (Cmd.info "queries" ~doc:"List the built-in benchmark queries.")
    Term.(const action $ const ())

let show_query_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Query name (Q1..Q20, N2..N4).")
  in
  let action name =
    match
      List.assoc_opt name (Xqc_workload.Xmark_queries.all @ Xqc_workload.Clio.all)
    with
    | Some q ->
        print_endline q;
        0
    | None ->
        Printf.eprintf "unknown query %s\n" name;
        1
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Print the text of a built-in benchmark query.")
    Term.(const action $ name_arg)

(* ------------------------------------------------------------------ *)
(* Query service                                                       *)
(* ------------------------------------------------------------------ *)

let unix_socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "unix" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"TCP host (with \\$(b,--port)).")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port to listen on / connect to.")

let serve_cmd =
  let workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domains evaluating queries in parallel.")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Admission-control bound: requests beyond this many queued get an overloaded error.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Default per-request deadline (requests may set their own).")
  in
  let preload_arg =
    Arg.(
      value & opt_all string []
      & info [ "preload" ] ~docv:"NAME=FILE"
          ~doc:
            "Parse and index FILE at startup; bind it to \\$NAME and make \
             it available to fn:doc under NAME, its path and basename.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Log connections and requests to stderr.")
  in
  let slow_ms_arg =
    Arg.(
      value & opt float 100.0
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:"Requests slower than this land in the slow-query ring.")
  in
  let action unix_socket host port workers queue_depth timeout_ms preload
      strategy verbose slow_ms =
    try
      let preload =
        List.map
          (fun spec ->
            match String.index_opt spec '=' with
            | Some i ->
                ( String.sub spec 0 i,
                  String.sub spec (i + 1) (String.length spec - i - 1) )
            | None ->
                failwith (Printf.sprintf "--preload expects NAME=FILE, got %S" spec))
          preload
      in
      let cfg =
        {
          Xqc_server.Server.unix_socket;
          tcp = Option.map (fun p -> (host, p)) port;
          workers;
          queue_depth;
          default_timeout_ms = timeout_ms;
          preload;
          strategy;
          verbose;
          slow_ms;
        }
      in
      Xqc_server.Server.serve cfg;
      0
    with
    | Invalid_argument m | Failure m | Sys_error m ->
        prerr_endline ("error: " ^ m);
        1
    | Unix.Unix_error (e, fn, arg) ->
        Printf.eprintf "error: %s(%s): %s\n" fn arg (Unix.error_message e);
        1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the query service: preload and index documents once, then \
          answer newline-delimited JSON requests (query, prepare/execute, \
          stats, metrics, trace, shutdown) over a Unix and/or TCP socket \
          with a pool of worker domains.")
    Term.(
      const action $ unix_socket_arg $ host_arg $ port_arg $ workers_arg
      $ queue_arg $ timeout_arg $ preload_arg $ strategy_arg
      $ verbose_arg $ slow_ms_arg)

(* JSON accessors for rendering server responses client-side. *)
module J = struct
  let field name = function
    | Xqc.Obs.Obj fields -> List.assoc_opt name fields
    | _ -> None

  let str ?(default = "") name json =
    match field name json with Some (Xqc.Obs.Str s) -> s | _ -> default

  let int ?(default = 0) name json =
    match field name json with Some (Xqc.Obs.Int n) -> n | _ -> default

  let num ?(default = 0.0) name json =
    match field name json with
    | Some (Xqc.Obs.Float f) -> f
    | Some (Xqc.Obs.Int n) -> float_of_int n
    | _ -> default

  let arr name json =
    match field name json with Some (Xqc.Obs.Arr l) -> l | _ -> []
end

(* Indented span timeline from a trace JSON object (as served by the
   "trace" verb or embedded in a traced response). *)
let render_trace_json (trace : Xqc.Obs.json) : string =
  let b = Buffer.create 256 in
  Printf.bprintf b "trace %d  op=%s  outcome=%s  total=%.3fms\n"
    (J.int "trace_id" trace) (J.str "op" trace)
    (J.str ~default:"?" "outcome" trace)
    (J.num "total_ms" trace);
  (match J.str "source" trace with
  | "" -> ()
  | src -> Printf.bprintf b "  source: %s\n" src);
  let spans = J.arr "spans" trace in
  let parent_of = List.map (fun sp -> (J.int "id" sp, J.int "parent" sp)) spans in
  let rec depth id =
    match List.assoc_opt id parent_of with
    | Some 0 | None -> 0
    | Some p -> 1 + depth p
  in
  List.iter
    (fun sp ->
      let attrs =
        match J.field "attrs" sp with
        | Some (Xqc.Obs.Obj kvs) ->
            " "
            ^ String.concat " "
                (List.map
                   (fun (k, v) ->
                     Printf.sprintf "%s=%s" k
                       (match v with Xqc.Obs.Str s -> s | j -> Xqc.Obs.json_to_string j))
                   kvs)
        | _ -> ""
      in
      Printf.bprintf b "  %9.3fms %s%s %.3fms%s\n" (J.num "start_ms" sp)
        (String.make (2 * depth (J.int "id" sp)) ' ')
        (J.str "name" sp) (J.num "dur_ms" sp) attrs)
    spans;
  Buffer.contents b

let render_stats (stats : Xqc.Obs.json) : string =
  let b = Buffer.create 256 in
  Printf.bprintf b "uptime              %.1fs\n" (J.num "uptime_s" stats);
  Printf.bprintf b "workers             %d\n" (J.int "workers" stats);
  Printf.bprintf b "queue               %d / %d\n" (J.int "queue_depth" stats)
    (J.int "queue_capacity" stats);
  Printf.bprintf b "inflight            %d\n" (J.int "inflight" stats);
  Printf.bprintf b "admission rejected  %d\n" (J.int "admission_rejected" stats);
  Printf.bprintf b "prepared statements %d\n" (J.int "prepared_statements" stats);
  Printf.bprintf b "plan cache          %d\n" (J.int "plan_cache_size" stats);
  Printf.bprintf b "stored traces       %d\n" (J.int "traces" stats);
  Printf.bprintf b "snapshot versions   %d\n" (J.int "snapshot_versions_live" stats);
  (match J.field "latency_ms" stats with
  | Some lat ->
      Printf.bprintf b
        "latency             n=%d mean=%.2fms p50=%.2fms p95=%.2fms p99=%.2fms\n"
        (J.int "count" lat) (J.num "mean" lat) (J.num "p50" lat)
        (J.num "p95" lat) (J.num "p99" lat)
  | None -> ());
  (match J.field "counters" stats with
  | Some (Xqc.Obs.Obj kvs) ->
      Buffer.add_string b "counters:\n";
      List.iter
        (fun (k, v) ->
          match v with
          | Xqc.Obs.Int n -> Printf.bprintf b "  %-28s %d\n" k n
          | _ -> ())
        kvs
  | _ -> ());
  Buffer.contents b

let client_cmd =
  let module C = Xqc_server.Client in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N" ~doc:"Send the query/execute N times.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Per-request deadline.")
  in
  let prepare_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "prepare" ] ~docv:"NAME"
          ~doc:"Prepare the query argument as statement NAME instead of running it.")
  in
  let execute_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "execute" ] ~docv:"NAME" ~doc:"Execute prepared statement NAME.")
  in
  let update_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "update" ] ~docv:"DOC"
          ~doc:
            "Run the query argument as an XQuery Update script (insert, \
             delete, replace, rename) against the server's preloaded \
             document DOC.")
  in
  let stats_flag =
    Arg.(value & flag & info [ "server-stats" ] ~doc:"Print the server's stats JSON.")
  in
  let shutdown_flag =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the server to shut down (after any query).")
  in
  let trace_flag =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Force the request to be traced and print its span timeline \
             after the result.")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FORMAT"
          ~doc:"Print the server's metrics: \\$(b,json) or \\$(b,prometheus).")
  in
  let args_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ARG"
          ~doc:
            "A query to evaluate, \\$(b,stats) for a human-readable stats \
             report, \\$(b,trace) to list recent traces, or \\$(b,trace ID) \
             to fetch one stored trace.")
  in
  let action unix_socket host port repeat timeout_ms prepare execute update
      server_stats shutdown trace metrics args =
    try
      let client =
        match (unix_socket, port) with
        | Some path, _ -> C.connect_unix path
        | None, Some p -> C.connect_tcp host p
        | None, None -> failwith "give --unix PATH or --port PORT"
      in
      Fun.protect ~finally:(fun () -> C.close client) @@ fun () ->
      let failed = ref false in
      (* A traced ok-response prints the result, then the timeline. *)
      let show_json = function
        | Ok json ->
            (match J.field "result" json with
            | Some (Xqc.Obs.Str s) -> print_endline s
            | _ -> ());
            if trace then (
              match J.field "trace" json with
              | Some tr -> print_string (render_trace_json tr)
              | None -> ())
        | Error (code, m) ->
            Printf.eprintf "error (%s): %s\n" code m;
            failed := true
      in
      let query =
        match args with
        | [] -> None
        | [ "stats" ] ->
            print_string (render_stats (C.stats client));
            None
        | [ "trace" ] ->
            List.iter
              (fun s ->
                Printf.printf "trace %-8d %-8s %-10s %8.3fms  %d spans  %.1fs ago\n"
                  (J.int "trace_id" s) (J.str "op" s) (J.str "outcome" s)
                  (J.num "total_ms" s) (J.int "spans" s) (J.num "age_s" s))
              (C.recent_traces client);
            None
        | [ "trace"; id ] -> (
            match int_of_string_opt id with
            | None -> failwith (Printf.sprintf "trace id must be an integer, got %S" id)
            | Some tid -> (
                match C.fetch_trace client tid with
                | Ok tr ->
                    print_string (render_trace_json tr);
                    None
                | Error (code, m) ->
                    Printf.eprintf "error (%s): %s\n" code m;
                    failed := true;
                    None))
        | [ q ] -> Some q
        | _ -> failwith "too many positional arguments"
      in
      (match (prepare, query) with
      | Some name, Some q -> (
          match C.prepare client ~name q with
          | Ok () -> Printf.printf "prepared %s\n" name
          | Error (code, m) ->
              Printf.eprintf "error (%s): %s\n" code m;
              failed := true)
      | Some _, None -> failwith "--prepare needs a query argument"
      | None, _ -> ());
      (match (update, query) with
      | Some doc, Some q ->
          for _ = 1 to repeat do
            match C.update_json ?timeout_ms ~trace client ~doc q with
            | Ok json ->
                Printf.printf "applied %d; version %d (%s)\n"
                  (J.int "applied" json) (J.int "version" json)
                  (match J.field "in_place" json with
                  | Some (Xqc.Obs.Bool true) -> "in place"
                  | _ -> "new snapshot");
                if trace then (
                  match J.field "trace" json with
                  | Some tr -> print_string (render_trace_json tr)
                  | None -> ())
            | Error (code, m) ->
                Printf.eprintf "error (%s): %s\n" code m;
                failed := true
          done
      | Some _, None -> failwith "--update needs an update-script argument"
      | None, _ -> ());
      (match execute with
      | Some name ->
          for _ = 1 to repeat do
            show_json (C.execute_json ?timeout_ms ~trace client name)
          done
      | None -> (
          match (prepare, update, query) with
          | None, None, Some q ->
              for _ = 1 to repeat do
                show_json (C.query_json ?timeout_ms ~trace client q)
              done
          | _ -> ()));
      if server_stats then
        print_endline (Xqc.Obs.json_to_string (C.stats client));
      (match metrics with
      | Some "json" -> print_endline (Xqc.Obs.json_to_string (C.metrics client))
      | Some ("prometheus" | "prom" | "text") ->
          print_string (C.metrics_prometheus client)
      | Some other -> failwith (Printf.sprintf "unknown metrics format %S" other)
      | None -> ());
      if shutdown then C.shutdown client;
      if !failed then 1 else 0
    with
    | C.Client_error m | Failure m | Sys_error m ->
        prerr_endline ("error: " ^ m);
        1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send requests to a running query service: evaluate a query \
          (optionally repeated, optionally traced), run an update script \
          against a preloaded document, prepare/execute named statements, \
          fetch server statistics, metrics or stored traces, or request \
          shutdown.")
    Term.(
      const action $ unix_socket_arg $ host_arg $ port_arg $ repeat_arg
      $ timeout_arg $ prepare_arg $ execute_arg $ update_arg $ stats_flag
      $ shutdown_flag $ trace_flag $ metrics_arg $ args_arg)

(* Live terminal dashboard over the metrics verb: QPS and latency
   percentiles, queue depth, per-worker utilization, the slow-query
   ring.  QPS is the request-counter delta between frames (first frame:
   cumulative over uptime). *)
let top_cmd =
  let module C = Xqc_server.Client in
  let interval_arg =
    Arg.(
      value & opt int 1000
      & info [ "interval-ms" ] ~docv:"MS" ~doc:"Refresh period.")
  in
  let frames_arg =
    Arg.(
      value & opt int 0
      & info [ "frames" ] ~docv:"N"
          ~doc:"Render N frames then exit (0 = until interrupted).")
  in
  let render_frame ~clear prev_requests prev_t metrics =
    let now = Unix.gettimeofday () in
    let requests =
      match J.field "counters" metrics with
      | Some c -> J.int "server_requests" c
      | None -> 0
    in
    let qps =
      match prev_requests with
      | Some prev when now > prev_t ->
          float_of_int (requests - prev) /. (now -. prev_t)
      | _ ->
          let up = J.num "uptime_s" metrics in
          if up > 0.0 then float_of_int requests /. up else 0.0
    in
    let b = Buffer.create 512 in
    if clear then Buffer.add_string b "\027[H\027[2J";
    Printf.bprintf b "xqc top — up %.0fs  %d workers  %.1f req/s  inflight %d  queue %d/%d  rejected %d\n"
      (J.num "uptime_s" metrics) (J.int "workers" metrics) qps
      (J.int "inflight" metrics) (J.int "queue_depth" metrics)
      (J.int "queue_capacity" metrics) (J.int "admission_rejected" metrics);
    let hist label name =
      match J.field name metrics with
      | Some h ->
          Printf.bprintf b "%-11s n=%-8d mean=%8.3fms  p50=%8.3fms  p95=%8.3fms  p99=%8.3fms\n"
            label (J.int "count" h) (J.num "mean" h) (J.num "p50" h)
            (J.num "p95" h) (J.num "p99" h)
      | None -> ()
    in
    hist "latency" "latency_ms";
    hist "queue wait" "queue_wait_ms";
    hist "eval" "eval_ms";
    hist "serialize" "serialize_ms";
    Buffer.add_string b "workers:\n";
    List.iter
      (fun w ->
        let util = J.num "utilization" w in
        let bar = int_of_float (util *. 20.0) in
        Printf.bprintf b "  %2d [%-20s] %5.1f%%  %d jobs\n" (J.int "worker" w)
          (String.make (min 20 (max 0 bar)) '#')
          (util *. 100.0) (J.int "jobs" w))
      (J.arr "workers_detail" metrics);
    (match J.field "slow_queries" metrics with
    | Some slow ->
        let entries = J.arr "entries" slow in
        if entries <> [] then begin
          Printf.bprintf b "slow queries (>= %.1fms, worst first):\n"
            (J.num "threshold_ms" slow);
          List.iteri
            (fun i e ->
              if i < 8 then
                let src = J.str "source" e in
                let src =
                  if String.length src > 48 then String.sub src 0 45 ^ "..."
                  else src
                in
                Printf.bprintf b "  %8.2fms %-8s %-10s %s\n" (J.num "ms" e)
                  (J.str "op" e) (J.str "outcome" e) src)
            entries
        end
    | None -> ());
    print_string (Buffer.contents b);
    flush stdout;
    (Some requests, now)
  in
  let action unix_socket host port interval_ms frames =
    try
      let client =
        match (unix_socket, port) with
        | Some path, _ -> C.connect_unix path
        | None, Some p -> C.connect_tcp host p
        | None, None -> failwith "give --unix PATH or --port PORT"
      in
      Fun.protect ~finally:(fun () -> C.close client) @@ fun () ->
      let clear = frames <> 1 in
      let prev = ref (None, Unix.gettimeofday ()) in
      let frame () =
        let prev_requests, prev_t = !prev in
        prev := render_frame ~clear prev_requests prev_t (C.metrics client)
      in
      if frames <= 0 then
        while true do
          frame ();
          Unix.sleepf (float_of_int (max 50 interval_ms) /. 1000.0)
        done
      else
        for i = 1 to frames do
          frame ();
          if i < frames then
            Unix.sleepf (float_of_int (max 50 interval_ms) /. 1000.0)
        done;
      0
    with
    | C.Client_error m | Failure m | Sys_error m ->
        prerr_endline ("error: " ^ m);
        1
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard for a running query service: QPS, latency \
          percentiles, queue depth, per-worker utilization and the \
          slow-query ring, refreshed from the metrics verb.")
    Term.(
      const action $ unix_socket_arg $ host_arg $ port_arg $ interval_arg
      $ frames_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "xqc" ~version:"0.1.0"
       ~doc:"An algebraic XQuery compiler (ICDE 2006 reproduction).")
    [
      run_cmd; explain_cmd; gen_cmd; queries_cmd; show_query_cmd; serve_cmd;
      client_cmd; top_cmd;
    ]

let () = Stdlib.exit (Cmd.eval' main_cmd)
