(* Server workloads: [Server.serve] with its default configuration in a
   forked child, preloading the generated document from a file, driven
   over a Unix socket by this process: closed-loop reader connections
   and, for serve-rw, one open-loop writer.  At most 2 client threads,
   one connection each.

   Every read reply is checked against the interpreter oracle.  Writes
   are timed from when they were due, so a stalled server charges its
   stall to every write queued behind it; the lag of the generator
   itself is reported beside them. *)

module W = Workloads
module Client = Xqc_server.Client
module Server = Xqc_server.Server

type result = {
  r_setup_s : float list;
  r_window_s : float;
  r_read_ms : float list;  (** reads that passed the oracle *)
  r_write_ms : float list;  (** applied writes, from their due time *)
  r_write_lag_ms : float list;  (** send time minus due time *)
  r_attempted : int;
  r_failures : (string * int) list;  (** by "<error code> <request>" *)
  r_hwm_mb : float;
  r_before : Json.t;  (** metrics verb at window start *)
  r_after : Json.t;
  r_roots : int;  (** stats verb, store roots, at window end *)
}

let out_dir = "benchmark/out"
let request_timeout_ms = 10_000
let recv_timeout_s = 15.

let connect sock =
  let c = Client.connect_unix sock in
  Unix.setsockopt_float c.Client.fd Unix.SO_RCVTIMEO recv_timeout_s;
  c

let start ~sock ~doc_path =
  flush stdout;
  flush stderr;
  let parent = Unix.getpid () in
  match Unix.fork () with
  | 0 ->
      (try
         Proc.watch_parent parent;
         Server.serve
           { Server.default_config with unix_socket = Some sock; preload = [ ("auction", doc_path) ] };
         Unix._exit 0
       with _ -> Unix._exit 2)
  | pid -> pid

(* Poll until the server answers a ping. *)
let wait_ready ~sock ~pid =
  let deadline = Proc.now () +. 120. in
  let rec loop () =
    if Proc.now () > deadline then failwith "server did not become ready";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "server exited during start-up");
    match
      let c = Client.connect_unix sock in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.ping c)
    with
    | true -> ()
    | false | (exception _) ->
        Thread.delay 0.01;
        loop ()
  in
  loop ()

(* Ask for a graceful shutdown; kill the server if it has not exited
   10 s later. *)
let stop ~sock ~pid =
  let t0 = Proc.now () in
  (try
     let c = connect sock in
     Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.shutdown c)
   with _ -> ());
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Proc.now () < t0 +. 10. ->
        Thread.delay 0.02;
        wait ()
    | 0, _ ->
        Printf.eprintf "server %d did not exit after shutdown; killed\n%!" pid;
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        Proc.waitpid_noeintr pid
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  if Proc.now () -. t0 > 2. then Printf.eprintf "server %d took %.1fs to stop\n%!" pid (Proc.now () -. t0)

let insert_script ~n_open k =
  Printf.sprintf "insert node <bench_note>%d</bench_note> as last into ($auction//open_auction)[%d]" k
    ((k mod min 20 n_open) + 1)

let delete_script = "delete node ($auction//bench_note)[1]"

(* One connection's outcomes; each thread owns its tally. *)
type tally = {
  mutable lat : float list;
  mutable lag : float list;
  mutable attempted : int;
  fails : (string, int) Hashtbl.t;
}

let tally () = { lat = []; lag = []; attempted = 0; fails = Hashtbl.create 4 }
let fail t code = Hashtbl.replace t.fails code (1 + Option.value (Hashtbl.find_opt t.fails code) ~default:0)

(* Send one request over [conn], (re)connecting first when it is down.
   A transport error counts as a failed request and drops the
   connection; a client-side receive timeout surfaces here too. *)
let guarded t conn sock ~what f =
  match
    let c = match !conn with Some c -> c | None -> connect sock in
    conn := Some c;
    f c
  with
  | () -> ()
  | exception (Client.Client_error _ | Unix.Unix_error _ | Sys_error _ | End_of_file) ->
      fail t ("connection " ^ what);
      Option.iter Client.close !conn;
      conn := None;
      Thread.delay 0.01

let reader ~sock ~deadline ~offset ~oracle t () =
  let reads = Array.of_list W.reads in
  let conn = ref None in
  let i = ref offset in
  while Proc.now () < deadline do
    let name, q = reads.(!i mod Array.length reads) in
    incr i;
    t.attempted <- t.attempted + 1;
    let t0 = Proc.now () in
    guarded t conn sock ~what:name (fun c ->
        match Client.query ~timeout_ms:request_timeout_ms c q with
        | Ok text ->
            let ms = (Proc.now () -. t0) *. 1000. in
            if List.assoc_opt name oracle = Some (Oracle.digest text) then t.lat <- ms :: t.lat
            else fail t ("mismatch " ^ name)
        | Error (code, _) -> fail t (code ^ " " ^ name))
  done;
  Option.iter Client.close !conn

(* Open loop: write k is due at [t0 + k / rate], inserts and deletes
   alternating.  Returns (inserted, deleted) as applied. *)
let writer ~sock ~t0 ~deadline ~rate ~n_open t () =
  let conn = ref None in
  let inserted = ref 0 and deleted = ref 0 in
  let rec loop k =
    let due = t0 +. (float_of_int k /. rate) in
    if due < deadline then begin
      let wait = due -. Proc.now () in
      if wait > 0. then Thread.delay wait;
      t.lag <- ((Proc.now () -. due) *. 1000.) :: t.lag;
      t.attempted <- t.attempted + 1;
      let insert = k mod 2 = 0 in
      guarded t conn sock ~what:(if insert then "insert" else "delete") (fun c ->
          match
            Client.update ~timeout_ms:request_timeout_ms c ~doc:"auction"
              (if insert then insert_script ~n_open (k / 2) else delete_script)
          with
          | Ok r ->
              t.lat <- ((Proc.now () -. due) *. 1000.) :: t.lat;
              if insert then inserted := !inserted + r.Client.ur_applied
              else deleted := !deleted + r.Client.ur_applied
          | Error (code, _) -> fail t (code ^ if insert then " insert" else " delete"));
      loop (k + 1)
    end
  in
  loop 0;
  Option.iter Client.close !conn;
  (!inserted, !deleted)

(* The untimed warm-up: every read once, and one write pair. *)
let warm_up ~sock ~writes ~n_open =
  let c = connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  List.iter (fun (_, q) -> ignore (Client.query ~timeout_ms:request_timeout_ms c q)) W.reads;
  if writes then begin
    ignore (Client.update ~timeout_ms:request_timeout_ms c ~doc:"auction" (insert_script ~n_open 0));
    ignore (Client.update ~timeout_ms:request_timeout_ms c ~doc:"auction" delete_script)
  end

let run ~seconds ~seed ~setups (s : W.serve) ~oracles : result =
  let oracle = oracles.(0) in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Proc.mkdir_p out_dir;
  let tag = Printf.sprintf "%d" (Unix.getpid ()) in
  let doc_path = Filename.concat out_dir ("serve-" ^ tag ^ ".xml") in
  Out_channel.with_open_bin doc_path (fun oc -> output_string oc (W.generate ~seed s.s_doc 0));
  let n_open = (Xqc_workload.Xmark.counts_for_bytes s.s_doc.bytes).Xqc_workload.Xmark.n_open in
  let writes = s.s_writes_per_s > 0. in
  (* set-up: from fork to a pingable, warmed-up server; repeated, and
     only the last server is measured *)
  let setup n =
    let sock = Filename.concat out_dir (Printf.sprintf "s%s-%d.sock" tag n) in
    let t0 = Proc.now () in
    let pid = start ~sock ~doc_path in
    (try
       wait_ready ~sock ~pid;
       warm_up ~sock ~writes ~n_open
     with e ->
       stop ~sock ~pid;
       raise e);
    (sock, pid, Proc.now () -. t0)
  in
  let rec setups_loop n acc =
    let sock, pid, secs = setup n in
    if n <= 1 then (sock, pid, List.rev (secs :: acc))
    else begin
      stop ~sock ~pid;
      setups_loop (n - 1) (secs :: acc)
    end
  in
  let sock, pid, setup_s = setups_loop setups [] in
  Fun.protect
    ~finally:(fun () ->
      stop ~sock ~pid;
      try Sys.remove doc_path with Sys_error _ -> ())
  @@ fun () ->
  let control = connect sock in
  Fun.protect ~finally:(fun () -> Client.close control) @@ fun () ->
  let before = Client.metrics control in
  let t0 = Proc.now () in
  let deadline = t0 +. seconds in
  let readers =
    List.init s.s_readers (fun k ->
        let t = tally () in
        (t, Thread.create (reader ~sock ~deadline ~offset:(3 * k) ~oracle t) ()))
  in
  let wt = tally () in
  let written = ref (0, 0) in
  let writer_thread =
    if writes then
      Some
        (Thread.create
           (fun () -> written := writer ~sock ~t0 ~deadline ~rate:s.s_writes_per_s ~n_open wt ())
           ())
    else None
  in
  List.iter (fun (_, th) -> Thread.join th) readers;
  Option.iter Thread.join writer_thread;
  let window = Proc.now () -. t0 in
  let after = Client.metrics control in
  let roots =
    Json.field "store" (Client.stats control) |> Option.map (Json.num0 "roots") |> Option.value ~default:0.
  in
  (* every write still outstanding must be in the document *)
  if writes then begin
    let inserted, deleted = !written in
    wt.attempted <- wt.attempted + 1;
    match Client.query ~timeout_ms:request_timeout_ms control "count($auction//bench_note)" with
    | Ok n when int_of_string_opt (String.trim n) = Some (inserted - deleted) -> ()
    | Ok _ -> fail wt "mismatch outstanding writes"
    | Error (code, _) -> fail wt (code ^ " outstanding writes")
  end;
  let hwm = Proc.vm_hwm_mb pid in
  let tallies = List.map fst readers @ [ wt ] in
  let failures = Hashtbl.create 4 in
  List.iter
    (fun t ->
      Hashtbl.iter
        (fun k n -> Hashtbl.replace failures k (n + Option.value (Hashtbl.find_opt failures k) ~default:0))
        t.fails)
    tallies;
  {
    r_setup_s = setup_s;
    r_window_s = window;
    r_read_ms = List.concat_map (fun (t, _) -> t.lat) readers;
    r_write_ms = wt.lat;
    r_write_lag_ms = wt.lag;
    r_attempted = List.fold_left (fun acc t -> acc + t.attempted) 0 tallies;
    r_failures = Hashtbl.fold (fun k n acc -> (k, n) :: acc) failures [];
    r_hwm_mb = hwm;
    r_before = before;
    r_after = after;
    r_roots = int_of_float roots;
  }

(* Per-layer numbers from the server's own telemetry over the window:
   counter deltas per request, histogram means over the window's
   samples, lock wait per request, worker busy share. *)
let layers (r : result) : (string * float) list =
  let ops = float_of_int (max 1 r.r_attempted) in
  let counter json name = Option.value (Option.bind (Json.field "counters" json) (fun c -> Json.num (Json.field name c))) ~default:0. in
  let delta name = counter r.r_after name -. counter r.r_before name in
  let window_mean name =
    match (Json.field name r.r_before, Json.field name r.r_after) with
    | Some h0, Some h1 ->
        let c0 = Json.num0 "count" h0 and c1 = Json.num0 "count" h1 in
        if c1 > c0 then ((c1 *. Json.num0 "mean" h1) -. (c0 *. Json.num0 "mean" h0)) /. (c1 -. c0) else 0.
    | _ -> 0.
  in
  let lock_wait json = List.fold_left (fun acc l -> acc +. Json.num0 "wait_ms" l) 0. (Json.list "locks" json) in
  let busy_idle json =
    List.fold_left
      (fun (b, i) w -> (b +. Json.num0 "busy_s" w, i +. Json.num0 "idle_s" w))
      (0., 0.) (Json.list "workers_detail" json)
  in
  let b0, i0 = busy_idle r.r_before and b1, i1 = busy_idle r.r_after in
  let hits = delta "plan_cache_hits" and misses = delta "plan_cache_misses" in
  [
    ("store.index_hits", delta "index_hits" /. ops);
    ("store.index_fallbacks", delta "index_fallbacks" /. ops);
    ("store.roots", float_of_int r.r_roots);
    ("runtime.par_tasks", delta "par_tasks" /. ops);
    ("codegen.fused_rows", delta "fused_rows" /. ops);
    ("codegen.fused_fallbacks", delta "fused_fallbacks" /. ops);
    ("relational.rel_subplans", delta "rel_subplans" /. ops);
    ("relational.rel_rows", delta "rel_rows" /. ops);
    ("update.updates_applied", delta "updates_applied" /. ops);
    ("update.incremental_index_patches", delta "incremental_index_patches" /. ops);
    ("update.full_renumbers", delta "full_renumbers" /. ops);
    ("update.snapshot_versions_live", Json.num0 "snapshot_versions_live" r.r_after);
    ("server.queue_wait_ms.mean", window_mean "queue_wait_ms");
    ("server.eval_ms.mean", window_mean "eval_ms");
    ("server.serialize_ms.mean", window_mean "serialize_ms");
    ("server.lock_wait_ms", (lock_wait r.r_after -. lock_wait r.r_before) /. ops);
    ( "server.worker_utilization",
      let busy = b1 -. b0 and total = b1 -. b0 +. (i1 -. i0) in
      if total > 0. then busy /. total else 0. );
    ("server.plan_cache_hit_ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
    ("server.admission_rejected", Json.num0 "admission_rejected" r.r_after -. Json.num0 "admission_rejected" r.r_before);
  ]
