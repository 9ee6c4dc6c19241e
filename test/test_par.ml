(* Intra-query parallelism: partitioned execution must be observationally
   identical to sequential execution — same serialized results, same
   errors, same order — for every engine strategy, with the fused tier
   on and off, at several partition degrees.  The width gate is lowered
   to 1 so the machinery actually engages on the small random documents;
   a separate test keeps the default gate and checks the graceful
   sequential no-op. *)

let strategies = Xqc.all_strategies

(* Run [f] with the domain budget forced to [k] and the planner/runtime
   width gates lowered so every eligible operator actually partitions. *)
let with_par k f =
  let saved_min = !Xqc.Par_exec.par_min_items in
  let saved_thr = !Xqc.Planner.default_par_threshold in
  Xqc.Domain_pool.set_budget (Some k);
  Xqc.Par_exec.par_min_items := 1;
  Xqc.Planner.default_par_threshold := 0.;
  Fun.protect
    ~finally:(fun () ->
      Xqc.Domain_pool.set_budget None;
      Xqc.Par_exec.par_min_items := saved_min;
      Xqc.Planner.default_par_threshold := saved_thr)
    f

let with_fuse mode f =
  let saved = !Xqc.Codegen.mode in
  Xqc.Codegen.mode := mode;
  Fun.protect ~finally:(fun () -> Xqc.Codegen.mode := saved) f

let counter name =
  match List.assoc_opt name (Xqc.Obs.global_counters ()) with
  | Some v -> v
  | None -> 0

(* -------- random document generator (as in test_equivalence) -------- *)

let doc_gen : Xqc.Node.t QCheck.Gen.t =
  let open QCheck.Gen in
  let value = oneofl [ "1"; "2"; "3"; "10"; "1.5"; "0" ] in
  let person i =
    value >>= fun age ->
    oneofl [ "a"; "b"; "c" ] >>= fun name ->
    int_bound 2 >>= fun pets ->
    return
      (Printf.sprintf
         {|<person id="p%d" age="%s"><name>%s</name>%s</person>|} i age name
         (String.concat ""
            (List.init pets (fun p -> Printf.sprintf "<pet>x%d</pet>" p))))
  in
  let order _i =
    value >>= fun amount ->
    int_bound 6 >>= fun who ->
    return
      (Printf.sprintf {|<order buyer="p%d"><amount>%s</amount></order>|} who
         amount)
  in
  int_range 2 7 >>= fun np ->
  int_range 0 8 >>= fun no ->
  let rec seq f n acc =
    if n = 0 then return (List.rev acc)
    else f n >>= fun x -> seq f (n - 1) (x :: acc)
  in
  seq person np [] >>= fun persons ->
  seq order no [] >>= fun orders ->
  return
    (Xqc.parse_document
       (Printf.sprintf "<db><people>%s</people><orders>%s</orders></db>"
          (String.concat "" persons) (String.concat "" orders)))

(* Queries chosen to exercise the partitioned operators: strict step
   chains, hash joins (both build sides arise from the estimates),
   streaming aggregates over fused pipelines, and order-sensitive
   consumers downstream of a partitioned scan. *)
let queries =
  [|
    "count($d//person)";
    "$d//person/name/text()";
    "for $p in $d//person where $p/@age > 2 return $p/@id";
    "for $p in $d//person, $o in $d//order where $o/@buyer = $p/@id return \
     <hit>{$p/name/text()}</hit>";
    "for $p in $d//person let $os := (for $o in $d//order where $o/@buyer = \
     $p/@id return $o) return <p n=\"{$p/name/text()}\">{count($os)}</p>";
    "for $p in $d//person order by $p/@age descending, $p/@id return \
     $p/name/text()";
    "sum(for $o in $d//order return $o/amount[. castable as xs:double] cast \
     as xs:double?)";
    "some $p in $d//person satisfies $p/@age = 10";
    "$d//person[2]/name/text()";
    "$d//person[last()]/@id";
    "for $a in $d//person, $b in $d//person where $a/@age = $b/@age return 1";
    "distinct-values($d//order/@buyer)";
    "for $p in $d//person[position() > 1] return $p/@id";
    "count(for $i in $d//person where $i/@age >= 1 return $i)";
    "for $x in ($d//person union $d//order) return name($x)";
  |]

let arb =
  QCheck.make
    ~print:(fun (qi, _) -> queries.(qi))
    QCheck.Gen.(pair (int_bound (Array.length queries - 1)) doc_gen)

let run_one strategy doc q =
  match
    Xqc.eval_string ~strategy
      ~variables:[ ("d", [ Xqc.Item.Node doc ]) ]
      q
  with
  | items -> "OK:" ^ Xqc.serialize items
  | exception Xqc.Error _ -> "ERROR"

(* The core property: for each strategy, the partitioned run agrees
   byte-for-byte with that strategy's own sequential run, for every
   degree and both fuse modes. *)
let prop_parallel_equals_sequential (qi, doc) =
  let q = queries.(qi) in
  List.for_all
    (fun strategy ->
      let reference = run_one strategy doc q in
      List.for_all
        (fun k ->
          List.for_all
            (fun fuse ->
              let got =
                with_par k (fun () ->
                    with_fuse fuse (fun () -> run_one strategy doc q))
              in
              if String.equal got reference then true
              else
                QCheck.Test.fail_reportf
                  "strategy %s, par=%d, fuse=%s:\n  sequential: %s\n  \
                   parallel:   %s"
                  (Xqc.strategy_name strategy)
                  k
                  (match fuse with
                  | Xqc.Codegen.Off -> "off"
                  | Xqc.Codegen.Auto -> "auto"
                  | Xqc.Codegen.Force -> "force")
                  reference got)
            [ Xqc.Codegen.Off; Xqc.Codegen.Force ])
        [ 2; 3; 8 ])
    strategies

let test_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"parallel(K) = sequential" ~count:25 arb
       prop_parallel_equals_sequential)

(* -------- determinism under real contention -------- *)

(* The same prepared plan, run repeatedly at a high degree over a
   document wide enough to engage every partition: all runs must give
   one answer, and it must be the sequential answer.  This is the test
   that would catch an order-dependent merge or a racy register. *)
let test_determinism () =
  let doc = Xqc_workload.Xmark.generate ~target_bytes:200_000 () in
  let q =
    "for $i in $auction/site/regions//item where $i/location = \"United \
     States\" return $i/name/text()"
  in
  let run () =
    Xqc.serialize
      (Xqc.eval_string ~variables:[ ("auction", [ Xqc.Item.Node doc ]) ] q)
  in
  let reference = run () in
  with_par 8 (fun () ->
      for i = 1 to 10 do
        let got = run () in
        if not (String.equal got reference) then
          Alcotest.failf "run %d diverged from the sequential result" i
      done)

(* -------- the machinery actually engages -------- *)

let test_par_tasks_counted () =
  let doc = Xqc_workload.Xmark.generate ~target_bytes:200_000 () in
  let q = "count($auction/site/regions//item/name)" in
  let run () =
    Xqc.serialize
      (Xqc.eval_string ~variables:[ ("auction", [ Xqc.Item.Node doc ]) ] q)
  in
  let reference = run () in
  let before = counter "par_tasks" in
  let got = with_par 4 run in
  Alcotest.(check string) "same answer" reference got;
  Alcotest.(check bool) "partition tasks ran" true (counter "par_tasks" > before)

(* -------- graceful no-op at budget 1 -------- *)

let test_budget_one_noop () =
  let doc = Xqc_workload.Xmark.generate ~target_bytes:50_000 () in
  let q = "count($auction/site/regions//item)" in
  let run () =
    Xqc.serialize
      (Xqc.eval_string ~variables:[ ("auction", [ Xqc.Item.Node doc ]) ] q)
  in
  let reference = run () in
  Xqc.Domain_pool.set_budget (Some 1);
  Fun.protect ~finally:(fun () -> Xqc.Domain_pool.set_budget None)
  @@ fun () ->
  let tasks = counter "par_tasks" in
  let helpers = Xqc.Domain_pool.helpers_alive () in
  let got = run () in
  Alcotest.(check string) "same answer" reference got;
  Alcotest.(check int) "no partition tasks" tasks (counter "par_tasks");
  Alcotest.(check int) "no helper domains spawned" helpers
    (Xqc.Domain_pool.helpers_alive ())

(* -------- chunking -------- *)

let test_chunk () =
  let xs = List.init 10 Fun.id in
  List.iter
    (fun k ->
      let chunks = Xqc.Par_exec.chunk k xs in
      Alcotest.(check (list int)) "coverage in order" xs (List.concat chunks);
      Alcotest.(check bool)
        "at most k non-empty chunks" true
        (List.length chunks <= max 1 k
        && List.for_all (fun c -> c <> []) chunks))
    [ 1; 2; 3; 4; 10; 16 ];
  Alcotest.(check (list (list int))) "singleton" [ [ 7 ] ]
    (Xqc.Par_exec.chunk 4 [ 7 ]);
  Alcotest.(check (list (list int))) "empty" [ [] ] (Xqc.Par_exec.chunk 3 [])

(* -------- pool batch semantics -------- *)

let test_parallel_list () =
  Xqc.Domain_pool.set_budget (Some 4);
  Fun.protect ~finally:(fun () -> Xqc.Domain_pool.set_budget None)
  @@ fun () ->
  let got = Xqc.Domain_pool.parallel_list (List.init 50 (fun i () -> i * i)) in
  Alcotest.(check (list int)) "results in order" (List.init 50 (fun i -> i * i))
    got;
  (* nested batches must not deadlock *)
  let nested =
    Xqc.Domain_pool.parallel_list
      (List.init 6 (fun i () ->
           List.fold_left ( + ) 0
             (Xqc.Domain_pool.parallel_list (List.init 8 (fun j () -> (i * 8) + j)))))
  in
  Alcotest.(check int) "nested sum" (List.fold_left ( + ) 0 (List.init 48 Fun.id))
    (List.fold_left ( + ) 0 nested);
  (* the first task exception surfaces unwrapped *)
  match
    Xqc.Domain_pool.parallel_list
      (List.init 8 (fun i () -> if i = 5 then failwith "boom" else i))
  with
  | _ -> Alcotest.fail "expected the task failure to propagate"
  | exception Failure m -> Alcotest.(check string) "original exception" "boom" m

(* -------- plan-cache keying: flipping any execution mode replans ---- *)

let test_plan_cache_modes () =
  let q = "for $x in (1,2,3) return $x + 1" in
  let misses () = counter "plan_cache_misses" in
  let base () = ignore (Xqc.prepare_cached q) in
  let check_flip name flip restore =
    Xqc.clear_plan_cache ();
    base ();
    let warm = misses () in
    base ();
    Alcotest.(check int) (name ^ ": warm hit") warm (misses ());
    flip ();
    Fun.protect ~finally:restore (fun () ->
        base ();
        Alcotest.(check int) (name ^ ": flip replans") (warm + 1) (misses ()))
  in
  check_flip "strategy"
    (fun () -> ignore (Xqc.prepare_cached ~strategy:Xqc.Optimized_nl q))
    (fun () -> ());
  (* the strategy flip above already compiled under nl; re-anchor *)
  let saved_store = !Xqc.Store.mode in
  check_flip "index mode"
    (fun () -> Xqc.Store.mode := Xqc.Store.Off)
    (fun () -> Xqc.Store.mode := saved_store);
  let saved_cg = !Xqc.Codegen.mode in
  check_flip "codegen mode"
    (fun () -> Xqc.Codegen.mode := Xqc.Codegen.Off)
    (fun () -> Xqc.Codegen.mode := saved_cg);
  check_flip "par degree"
    (fun () -> Xqc.Domain_pool.set_budget (Some 3))
    (fun () -> Xqc.Domain_pool.set_budget None);
  (* projection is an explicit prepare_cached argument *)
  Xqc.clear_plan_cache ();
  base ();
  let warm = misses () in
  ignore (Xqc.prepare_cached ~project:true q);
  Alcotest.(check int) "project: flip replans" (warm + 1) (misses ())

(* -------- fn:collection and per-document fan-out -------- *)

let mk_db i =
  Xqc.parse_document
    (Printf.sprintf "<db><people>%s</people></db>"
       (String.concat ""
          (List.init (i + 2) (fun p ->
               Printf.sprintf {|<person id="d%dp%d"><name>n%d</name></person>|}
                 i p p))))

let test_collection_builtin () =
  let docs = [ mk_db 0; mk_db 1; mk_db 2 ] in
  let ctx = Xqc.context () in
  Xqc.Dynamic_ctx.bind_collection ctx "c" docs;
  let run q = Xqc.serialize (Xqc.run (Xqc.prepare q) ctx) in
  Alcotest.(check string) "count across documents" "9"
    (run {|count(collection("c")//person)|});
  (* the sequence fn:collection returns is in binding order *)
  Alcotest.(check string) "first member is first bound doc" "d0p0"
    (run {|string((collection("c"))[1]//person[1]/@id)|});
  match Xqc.run (Xqc.prepare {|collection("missing")|}) ctx with
  | _ -> Alcotest.fail "unbound collection must raise"
  | exception Xqc.Error _ -> ()

let test_collection_parallel () =
  let docs = List.init 5 mk_db in
  let q = {|for $p in collection("c")/db/people/person return $p/@id|} in
  let run () =
    let ctx = Xqc.context () in
    Xqc.Dynamic_ctx.bind_collection ctx "c" docs;
    Xqc.serialize (Xqc.run (Xqc.prepare q) ctx)
  in
  let reference = run () in
  Alcotest.(check string) "per-document fan-out preserves order" reference
    (with_par 4 run)

let test_chunk_by_root () =
  let d1 = mk_db 0 and d2 = mk_db 1 in
  Xqc.Node.renumber d1;
  Xqc.Node.renumber d2;
  let items1 = [ Xqc.Item.Node d1 ] and items2 = [ Xqc.Item.Node d2 ] in
  (* nodes carry parent back-pointers, so compare physically *)
  let same a b =
    List.length a = List.length b
    && List.for_all2
         (fun x y ->
           match (x, y) with
           | Xqc.Item.Node m, Xqc.Item.Node n -> m == n
           | _ -> false)
         a b
  in
  (match Xqc.Par_exec.chunk_by_root (items1 @ items2) with
  | Some [ c1; c2 ] ->
      Alcotest.(check bool) "chunk 1 = doc 1" true (same c1 items1);
      Alcotest.(check bool) "chunk 2 = doc 2" true (same c2 items2)
  | _ -> Alcotest.fail "two documents must make two chunks");
  Alcotest.(check bool) "single root: no doc chunking" true
    (Option.is_none (Xqc.Par_exec.chunk_by_root items1));
  Alcotest.(check bool) "atoms: no doc chunking" true
    (Option.is_none
       (Xqc.Par_exec.chunk_by_root
          [ Xqc.Item.Atom (Xqc.Atomic.Integer 1); Xqc.Item.Atom (Xqc.Atomic.Integer 2) ]))

(* -------- plan-cache keying: the sixth mode and the run-time knobs ---- *)

(* An applied update publishes a new document generation: a plan costed
   against the old statistics must not be served for the new state. *)
let test_plan_cache_docs_gen () =
  let q = "for $x in (1,2,3) return $x + 1" in
  let misses () = counter "plan_cache_misses" in
  Xqc.Version.clear ();
  Fun.protect ~finally:Xqc.Version.clear @@ fun () ->
  Xqc.Version.register "g" (Xqc.parse_document ~uri:"g" "<r/>");
  Xqc.clear_plan_cache ();
  ignore (Xqc.prepare_cached q);
  let warm = misses () in
  ignore (Xqc.prepare_cached q);
  Alcotest.(check int) "same generation: hit" warm (misses ());
  ignore (Xqc.Update.execute ~uri:"g" "insert node <a/> into doc(\"g\")/r");
  ignore (Xqc.prepare_cached q);
  Alcotest.(check int) "new generation: replan" (warm + 1) (misses ())

(* [Eval.force_materialize] is read when a prepared plan runs, not when
   it is compiled, so it is not part of the cache key: flipping it must
   hit the cached plan, and that plan must give the streamed answer. *)
let test_plan_cache_materialize () =
  let q = {|for $p in $d//person where $p/name != "n0" return $p/@id|} in
  let ctx = Xqc.context () in
  Xqc.bind_variable ctx "d" [ Xqc.Item.Node (mk_db 3) ];
  let run () = Xqc.serialize (Xqc.run (Xqc.prepare_cached q) ctx) in
  Xqc.clear_plan_cache ();
  let streamed = run () in
  let warm = counter "plan_cache_misses" in
  let saved = !Xqc.Eval.force_materialize in
  Xqc.Eval.force_materialize := true;
  let materialized =
    Fun.protect ~finally:(fun () -> Xqc.Eval.force_materialize := saved) run
  in
  Alcotest.(check int) "flip hits the cache" warm (counter "plan_cache_misses");
  Alcotest.(check string) "materialized = streamed" streamed materialized

(* [Codegen.mode] is a cache-key field: each mode gets its own cached
   plan, and the fused and interpreted plans agree. *)
let test_plan_cache_codegen_agree () =
  let q = {|count(for $p in $d//person where $p/name = "n1" return $p)|} in
  let ctx = Xqc.context () in
  Xqc.bind_variable ctx "d" [ Xqc.Item.Node (mk_db 4) ];
  let run mode =
    with_fuse mode (fun () -> Xqc.serialize (Xqc.run (Xqc.prepare_cached q) ctx))
  in
  Xqc.clear_plan_cache ();
  let fused = run Xqc.Codegen.Force in
  let interp = run Xqc.Codegen.Off in
  Alcotest.(check int) "one plan per mode" 2 (Xqc.plan_cache_size ());
  Alcotest.(check string) "fused = interpreted" interp fused;
  Alcotest.(check string) "the count itself" "1" fused

(* -------- budget resolution -------- *)

(* The explicit override beats the environment and the hardware count,
   and declared server workers split it, never below one per query. *)
let test_budget_override () =
  Fun.protect
    ~finally:(fun () ->
      Xqc.Domain_pool.set_budget None;
      Xqc.Domain_pool.set_reserved_workers 1)
  @@ fun () ->
  let degree () = Xqc.Domain_pool.query_degree () in
  Xqc.Domain_pool.set_budget (Some 4);
  Alcotest.(check int) "override" 4 (degree ());
  Xqc.Domain_pool.set_reserved_workers 2;
  Alcotest.(check int) "two workers share it" 2 (degree ());
  Xqc.Domain_pool.set_reserved_workers 8;
  Alcotest.(check int) "more workers than budget" 1 (degree ());
  Xqc.Domain_pool.set_reserved_workers 1;
  Xqc.Domain_pool.set_budget (Some 0);
  Alcotest.(check int) "non-positive override clamps" 1 (degree ())

(* With no override and no XQC_PAR, the budget is the hardware count. *)
let test_budget_hardware_default () =
  Xqc.Domain_pool.set_budget None;
  Xqc.Domain_pool.set_reserved_workers 1;
  match Sys.getenv_opt "XQC_PAR" with
  | Some _ -> ()
  | None ->
      Alcotest.(check int) "recommended domain count"
        (Domain.recommended_domain_count ())
        (Xqc.Domain_pool.query_degree ())

(* -------- budget resolution under concurrent first use -------- *)

(* Registered first in main, before anything else in the process has
   asked for the budget: several domains resolving the hardware budget
   at the same moment — what a server's first concurrent requests do —
   must all get the same degree and none may raise.  More domains than
   cores, so some are descheduled mid-resolution: with 4 on an idle
   2-core machine a racy resolution slipped through every run. *)
let test_concurrent_first_budget () =
  let n = 16 in
  let arrived = Atomic.make 0 in
  let domains =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr arrived;
            while Atomic.get arrived < n do
              Domain.cpu_relax ()
            done;
            Xqc.Domain_pool.query_degree ()))
  in
  let degrees = List.map Domain.join domains in
  Alcotest.(check (list int))
    "every domain sees one degree"
    (List.init n (fun _ -> List.hd degrees))
    degrees

let () =
  Alcotest.run "par"
    [
      ( "budget",
        [
          Alcotest.test_case "concurrent first use" `Quick test_concurrent_first_budget;
          Alcotest.test_case "hardware default" `Quick test_budget_hardware_default;
          Alcotest.test_case "override and workers" `Quick test_budget_override;
        ] );
      ("equivalence", [ test_equivalence ]);
      ( "determinism",
        [ Alcotest.test_case "repeated runs agree" `Quick test_determinism ] );
      ( "engagement",
        [
          Alcotest.test_case "par_tasks advance" `Quick test_par_tasks_counted;
          Alcotest.test_case "budget 1 is a no-op" `Quick test_budget_one_noop;
        ] );
      ( "pool",
        [
          Alcotest.test_case "chunk" `Quick test_chunk;
          Alcotest.test_case "parallel_list" `Quick test_parallel_list;
        ] );
      ( "plan-cache",
        [
          Alcotest.test_case "mode knobs replan" `Quick test_plan_cache_modes;
          Alcotest.test_case "update replans" `Quick test_plan_cache_docs_gen;
          Alcotest.test_case "materialize is run-time" `Quick
            test_plan_cache_materialize;
          Alcotest.test_case "codegen modes agree" `Quick
            test_plan_cache_codegen_agree;
        ] );
      ( "collection",
        [
          Alcotest.test_case "builtin" `Quick test_collection_builtin;
          Alcotest.test_case "parallel fan-out" `Quick test_collection_parallel;
          Alcotest.test_case "chunk by root" `Quick test_chunk_by_root;
        ] );
    ]
