(* Benchmark harness: regenerates every table of the paper's evaluation
   (Section 7).

     main.exe table3    — Table 3: XMark Q1-20 total time on a 1MB document
                          under the four engine configurations
     main.exe table4    — Table 4: scalability of Q8/Q9/Q10/Q12/Q20,
                          NL join vs XQuery hash/sort join
     main.exe table5    — Table 5: Clio N2/N3/N4 on a 250KB document
     main.exe figure4   — Figure 4: GroupBy input/output on the paper's
                          avg example, plus the P2-style plan
     main.exe saxon     — the Section 7 prose comparison (XMark 1-20,
                          optimized engine vs the Saxon stand-in)
     main.exe ablation  — extra: decomposition of the optimizations
     main.exe all       — everything above

   Whole-query times are wall-clock measurements of single runs (the
   paper's methodology); each cell runs in a forked child with a timeout
   so that deliberately quadratic configurations print ">Ns" like the
   paper's ">1h" cells.  Pass --paper for the paper's document sizes
   (10/20/50MB in Table 4; the default scales them down 10x so the
   quadratic cells finish in CI time — growth shape is unaffected). *)

let cell_timeout = ref 240.0
let paper_scale = ref false

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

let format_time (s : float) : string =
  if s >= 3600.0 then Printf.sprintf "%dh%02dm" (int_of_float s / 3600) (int_of_float s mod 3600 / 60)
  else if s >= 60.0 then Printf.sprintf "%dm%04.1fs" (int_of_float s / 60) (Float.rem s 60.0)
  else Printf.sprintf "%.2fs" s

(* Run [f] in a forked child with a timeout; the child reports the
   elapsed seconds through a pipe.  Timed-out children are killed. *)
let measure ?(timeout = !cell_timeout) (f : unit -> unit) :
    [ `Time of float | `Timeout | `Failed of string ] =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let result =
        try
          let t0 = Unix.gettimeofday () in
          f ();
          Printf.sprintf "T %f" (Unix.gettimeofday () -. t0)
        with e -> "E " ^ Printexc.to_string e
      in
      let oc = Unix.out_channel_of_descr wr in
      output_string oc result;
      flush oc;
      Unix.close wr;
      (* _exit: skip at_exit handlers so the child does not re-flush the
         parent's inherited stdout buffer *)
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let deadline = Unix.gettimeofday () +. timeout in
      let rec wait_child () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            if Unix.gettimeofday () > deadline then (
              Unix.kill pid Sys.sigkill;
              ignore (Unix.waitpid [] pid);
              None)
            else (
              ignore (Unix.select [] [] [] 0.05);
              wait_child ())
        | _, _ -> Some ()
      in
      let finished = wait_child () in
      let buf = Buffer.create 64 in
      let chunk = Bytes.create 256 in
      (try
         let rec drain () =
           (* the child has exited (or been killed); the pipe drains
              without blocking indefinitely *)
           match Unix.select [ rd ] [] [] 0.2 with
           | [ _ ], _, _ ->
               let n = Unix.read rd chunk 0 256 in
               if n > 0 then (
                 Buffer.add_subbytes buf chunk 0 n;
                 drain ())
           | _ -> ()
         in
         drain ()
       with Unix.Unix_error _ -> ());
      Unix.close rd;
      let payload = Buffer.contents buf in
      match finished with
      | None -> `Timeout
      | Some () ->
          if String.length payload > 2 && payload.[0] = 'T' then
            `Time (float_of_string (String.trim (String.sub payload 2 (String.length payload - 2))))
          else if String.length payload > 2 then
            `Failed (String.sub payload 2 (String.length payload - 2))
          else `Failed "no result from child"

let cell ?(timeout = !cell_timeout) (f : unit -> unit) : string =
  match measure ~timeout f with
  | `Time t -> format_time t
  | `Timeout -> Printf.sprintf "> %s" (format_time timeout)
  | `Failed m -> "FAILED: " ^ m

(* ------------------------------------------------------------------ *)
(* Shared set-up                                                       *)
(* ------------------------------------------------------------------ *)

let strategies_t3 =
  [
    ("No algebra", Xqc.No_algebra);
    ("Algebra + no optim", Xqc.Algebra_unoptimized);
    ("Optim + nested-loop joins", Xqc.Optimized_nl);
    ("Optim + XQuery joins", Xqc.Optimized);
  ]

let make_xmark_ctx doc =
  let ctx = Xqc.context () in
  Xqc.bind_variable ctx "auction" [ Xqc.Item.Node doc ];
  ctx

let run_query strategy ctx q =
  ignore (Xqc.run (Xqc.prepare ~strategy q) ctx)

let run_and_serialize strategy ctx q =
  ignore (Xqc.serialize (Xqc.run (Xqc.prepare ~strategy q) ctx))

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

(* Total time for all twenty XMark queries on a 1MB document, including
   parsing the document once and serializing every result. *)
let table3 () =
  let size = 1_000_000 in
  Printf.printf "\n=== Table 3: XMark Q1-20 total time, %dKB document ===\n"
    (size / 1000);
  Printf.printf "(includes document load and result serialization, as in the paper)\n\n";
  let xml = Xqc_workload.Xmark.generate_string ~target_bytes:size () in
  Printf.printf "%-28s %s\n" "Implementation" "Total time";
  List.iter
    (fun (label, strategy) ->
      let result =
        cell (fun () ->
            let doc = Xqc.parse_document ~uri:"xmark.xml" xml in
            let ctx = make_xmark_ctx doc in
            List.iter
              (fun (_, q) -> run_and_serialize strategy ctx q)
              Xqc_workload.Xmark_queries.all)
      in
      Printf.printf "%-28s %s\n" label result)
    strategies_t3

(* ------------------------------------------------------------------ *)
(* Table 4                                                             *)
(* ------------------------------------------------------------------ *)

(* Query evaluation time only (document pre-loaded, serialization
   excluded) for the join queries at increasing document sizes. *)
let table4 () =
  let sizes =
    if !paper_scale then [ 10_000_000; 20_000_000; 50_000_000 ]
    else [ 1_000_000; 2_000_000; 5_000_000 ]
  in
  let queries = [ "Q8"; "Q9"; "Q10"; "Q12"; "Q20" ] in
  Printf.printf "\n=== Table 4: scalability of selected XMark queries ===\n";
  Printf.printf "(evaluation time only; document load excluded)\n\n";
  Printf.printf "%-6s %-8s %-12s %-12s\n" "Query" "Size" "NL Join" "XQuery Join";
  let docs =
    List.map
      (fun size ->
        let doc = Xqc_workload.Xmark.generate ~target_bytes:size () in
        (size, doc))
      sizes
  in
  List.iter
    (fun qname ->
      let q = Xqc_workload.Xmark_queries.find qname in
      List.iter
        (fun (size, doc) ->
          let ctx = make_xmark_ctx doc in
          let nl = cell (fun () -> run_query Xqc.Optimized_nl ctx q) in
          let hash = cell (fun () -> run_query Xqc.Optimized ctx q) in
          Printf.printf "%-6s %-8s %-12s %-12s\n" qname
            (Printf.sprintf "%dMB"
               (int_of_float (Float.round (float_of_int size /. 1_000_000.))))
            nl hash)
        docs)
    queries

(* ------------------------------------------------------------------ *)
(* Table 5                                                             *)
(* ------------------------------------------------------------------ *)

let table5 () =
  let size = 250_000 in
  Printf.printf "\n=== Table 5: Clio queries on a %dKB document ===\n" (size / 1000);
  Printf.printf "(Saxon 8.1.1 column reproduced by the indexed Core interpreter; see DESIGN.md)\n\n";
  Printf.printf "%-6s %-12s %-12s %-12s %-14s\n" "Query" "No optim" "NL Join"
    "Hash Join" "Saxon-like";
  let doc = Xqc_workload.Clio.generate ~target_bytes:size () in
  let ctx = Xqc.context () in
  Xqc.bind_variable ctx "doc" [ Xqc.Item.Node doc ];
  List.iter
    (fun (name, q) ->
      let run strategy = cell (fun () -> run_query strategy ctx q) in
      let no_optim = run Xqc.Algebra_unoptimized in
      let nl = run Xqc.Optimized_nl in
      let hash = run Xqc.Optimized in
      let saxon = run Xqc.Saxon_like in
      Printf.printf "%-6s %-12s %-12s %-12s %-14s\n" name no_optim nl hash saxon)
    [ ("N2", Xqc_workload.Clio.n2); ("N3", Xqc_workload.Clio.n3);
      ("N4", Xqc_workload.Clio.n4) ]

(* ------------------------------------------------------------------ *)
(* Figure 4                                                            *)
(* ------------------------------------------------------------------ *)

let figure4 () =
  Printf.printf "\n=== Figure 4 / Section 5 example: the XQuery GroupBy ===\n\n";
  let q =
    "for $x in (1,1,3) let $a := avg(for $y in (1,2) where $x <= $y return $y \
     * 10) return ($x, $a)"
  in
  Printf.printf "Query: %s\n\n" q;
  Printf.printf "%s\n" (Xqc.explain ~strategy:Xqc.Optimized q);
  let result = Xqc.eval_string ~strategy:Xqc.Optimized q in
  Printf.printf "Result: %s   (paper expects: 1 15 1 15 3)\n" (Xqc.serialize result)

(* ------------------------------------------------------------------ *)
(* Saxon comparison (Section 7 prose)                                  *)
(* ------------------------------------------------------------------ *)

let saxon () =
  let size = if !paper_scale then 10_000_000 else 2_000_000 in
  Printf.printf
    "\n=== Section 7 prose: XMark Q1-20 on a %dMB document, optimized engine \
     vs Saxon stand-in ===\n\n"
    (size / 1_000_000);
  let doc = Xqc_workload.Xmark.generate ~target_bytes:size () in
  let ctx = make_xmark_ctx doc in
  let total strategy =
    cell (fun () ->
        List.iter
          (fun (_, q) -> run_and_serialize strategy ctx q)
          Xqc_workload.Xmark_queries.all)
  in
  Printf.printf "%-28s %s\n" "Galax-style (optimized)" (total Xqc.Optimized);
  Printf.printf "%-28s %s\n" "Saxon stand-in (indexed)" (total Xqc.Saxon_like)

(* ------------------------------------------------------------------ *)
(* Ablation (extra)                                                    *)
(* ------------------------------------------------------------------ *)

let ablation () =
  Printf.printf "\n=== Ablation: decomposing the optimizations (extra) ===\n\n";
  let xdoc = Xqc_workload.Xmark.generate ~target_bytes:1_000_000 () in
  let xctx = make_xmark_ctx xdoc in
  let ddoc = Xqc_workload.Clio.generate ~target_bytes:250_000 () in
  let dctx = Xqc.context () in
  Xqc.bind_variable dctx "doc" [ Xqc.Item.Node ddoc ];
  let row label ctx q =
    Printf.printf "%s\n" label;
    List.iter
      (fun (slabel, strategy) ->
        Printf.printf "  %-26s %s\n" slabel
          (cell (fun () -> run_query strategy ctx q)))
      [
        ("interpreter (dyn env)", Xqc.No_algebra);
        ("interpreter + index", Xqc.Saxon_like);
        ("algebra, no rewriting", Xqc.Algebra_unoptimized);
        ("unnesting, NL joins", Xqc.Optimized_nl);
        ("unnesting, XQuery joins", Xqc.Optimized);
      ]
  in
  row "XMark Q8 (equi-join + group-by), 1MB" xctx (Xqc_workload.Xmark_queries.q8);
  row "XMark Q12 (inequality join -> sort join), 1MB" xctx (Xqc_workload.Xmark_queries.q12);
  row "Clio N3 (3-way join, triple nesting), 250KB" dctx Xqc_workload.Clio.n3

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let flags, cmds = List.partition (fun a -> String.length a > 2 && String.sub a 0 2 = "--") (List.tl args) in
  if List.mem "--paper" flags then (
    paper_scale := true;
    cell_timeout := 7200.0);
  List.iter
    (fun f ->
      let prefix = "--timeout=" in
      let n = String.length prefix in
      if String.length f > n && String.sub f 0 n = prefix then
        cell_timeout := float_of_string (String.sub f n (String.length f - n)))
    flags;
  let run = function
    | "table3" -> table3 ()
    | "table4" -> table4 ()
    | "table5" -> table5 ()
    | "figure4" -> figure4 ()
    | "saxon" -> saxon ()
    | "ablation" -> ablation ()
    | "all" ->
        figure4 ();
        table3 ();
        table4 ();
        table5 ();
        saxon ();
        ablation ()
    | other ->
        Printf.eprintf
          "unknown benchmark %S (expected table3|table4|table5|figure4|saxon|ablation|all)\n"
          other;
        Stdlib.exit 1
  in
  match cmds with [] -> run "all" | cmds -> List.iter run cmds
