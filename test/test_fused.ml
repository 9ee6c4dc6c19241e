(* Unit tests for the fused-loop compiled execution tier (lib/codegen):
   EXPLAIN rendering of fused segments, splice points where a fused
   pipeline feeds a blocking operator, the runtime-fallback protocol
   (multi-node sources, user declarations shadowing a fused builtin),
   the [Codegen.mode] knob, and the allocation win the tier exists for.
   Cross-engine result equivalence is covered separately by the QCheck
   properties in test_equivalence.ml. *)

let xmark = lazy (Xqc_workload.Xmark.generate ~target_bytes:300_000 ())

let with_fuse mode f =
  let saved = !Xqc.Codegen.mode in
  Xqc.Codegen.mode := mode;
  Fun.protect ~finally:(fun () -> Xqc.Codegen.mode := saved) f

let counter name =
  match List.assoc_opt name (Xqc.Obs.global_counters ()) with
  | Some v -> v
  | None -> 0

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

let eval_xmark q =
  let variables = [ ("auction", [ Xqc.Item.Node (Lazy.force xmark) ]) ] in
  Xqc.serialize (Xqc.eval_string ~variables q)

(* EXPLAIN renders the segments the evaluator will fuse — and renders
   nothing when the tier is off, so the plan text doubles as a check
   that the knob reached the planner. *)
let test_explain_segments () =
  let q = "$auction/site/regions//item/name" in
  let on = with_fuse Xqc.Codegen.Force (fun () -> Xqc.explain q) in
  Alcotest.(check bool)
    "explain lists fused segments" true
    (contains on "=== Fused segments ===");
  Alcotest.(check bool) "segment shows instruction count" true (contains on "instrs");
  let off = with_fuse Xqc.Codegen.Off (fun () -> Xqc.explain q) in
  Alcotest.(check bool)
    "no fused section when the tier is off" false
    (contains off "=== Fused segments ===")

(* A fused scan spliced under a blocking OrderBy: the segment produces
   the tuple batch, the interpreted sort consumes it.  The plan must
   show both, and the answer must match the fully interpreted run. *)
let test_orderby_splice () =
  let q =
    {|for $i in $auction/site/regions/africa/item
      where $i/location = "United States"
      order by $i/name
      return $i/name|}
  in
  let plan = with_fuse Xqc.Codegen.Force (fun () -> Xqc.explain q) in
  Alcotest.(check bool)
    "fused segment under the sort" true
    (contains plan "=== Fused segments ===");
  let fused = with_fuse Xqc.Codegen.Force (fun () -> eval_xmark q) in
  let interp = with_fuse Xqc.Codegen.Off (fun () -> eval_xmark q) in
  Alcotest.(check string) "fused agrees across the splice" interp fused

(* A compiled program whose runtime source is a two-node sequence is
   outside the single-root proof: it must raise [Fallback], splice in
   the interpreted twin, record the event — and still be right. *)
let test_multinode_fallback () =
  with_fuse Xqc.Codegen.Force @@ fun () ->
  let d1 = Xqc.parse_document "<r><item>a</item></r>" in
  let d2 = Xqc.parse_document "<r><item>b</item></r>" in
  let p = Xqc.prepare "$docs/r/item" in
  let ctx = Xqc.context () in
  Xqc.bind_variable ctx "docs" [ Xqc.Item.Node d1; Xqc.Item.Node d2 ];
  let before = counter "fused_fallbacks" in
  let got = Xqc.serialize (Xqc.run p ctx) in
  Alcotest.(check string)
    "interpreted twin result" "<item>a</item><item>b</item>" got;
  Alcotest.(check bool)
    "fallback recorded" true
    (counter "fused_fallbacks" > before)

(* A user declaration shadowing fn:count at run time: the lowered
   aggregate baked the builtin in, so the program must detect the
   shadow and defer to the interpreted twin (which dispatches to the
   user function). *)
let test_shadowed_builtin_fallback () =
  with_fuse Xqc.Codegen.Force @@ fun () ->
  let q =
    {|declare function fn:count($x) { 999 };
      count(for $i in $d/r/item where $i = "a" return $i)|}
  in
  let d = Xqc.parse_document "<r><item>a</item><item>b</item></r>" in
  let variables = [ ("d", [ Xqc.Item.Node d ]) ] in
  let before = counter "fused_fallbacks" in
  let got = Xqc.serialize (Xqc.eval_string ~variables q) in
  Alcotest.(check string) "user function wins" "999" got;
  Alcotest.(check bool)
    "shadow fallback recorded" true
    (counter "fused_fallbacks" > before)

(* The fused tier's reason to exist: a filtered count over the item
   table runs in the bytecode loop with no per-tuple allocation, so its
   allocation footprint must sit well below the closure interpreter's.
   Both runs pay the same per-run plan-compilation cost ([Eval.run]
   rebuilds closures each run), so the document must be big enough for
   execution allocation to dominate that shared baseline. *)
let test_allocation_win () =
  let q =
    {|count(for $i in $auction/site/regions//item
           where $i/location = "United States"
           return $i)|}
  in
  let big = Xqc_workload.Xmark.generate ~target_bytes:2_000_000 () in
  let p = Xqc.prepare q in
  let ctx = Xqc.context () in
  Xqc.bind_variable ctx "auction" [ Xqc.Item.Node big ];
  let measure mode =
    with_fuse mode @@ fun () ->
    ignore (Xqc.run p ctx);
    let a = Gc.allocated_bytes () in
    let r = Xqc.run p ctx in
    let b = Gc.allocated_bytes () in
    (Xqc.serialize r, b -. a)
  in
  let fused, alloc_fused = measure Xqc.Codegen.Force in
  let interp, alloc_interp = measure Xqc.Codegen.Off in
  Alcotest.(check string) "same count" interp fused;
  if not (alloc_fused *. 2.0 < alloc_interp) then
    Alcotest.failf "fused path allocated %.0f bytes vs interpreted %.0f"
      alloc_fused alloc_interp

(* The obs counters behind `xqc serve`'s metrics plane: a fused run
   must account its executions and rows. *)
let test_counters () =
  with_fuse Xqc.Codegen.Force @@ fun () ->
  let execs = counter "fused_execs" and rows = counter "fused_rows" in
  let got = eval_xmark "count(for $i in $auction/site/regions/africa/item return $i/name)" in
  Alcotest.(check bool) "nonempty result" true (String.length got > 0);
  Alcotest.(check bool) "fused_execs advanced" true (counter "fused_execs" > execs);
  Alcotest.(check bool) "fused_rows advanced" true (counter "fused_rows" > rows)

let () =
  Alcotest.run "fused"
    [
      ( "explain",
        [
          Alcotest.test_case "segments rendered" `Quick test_explain_segments;
          Alcotest.test_case "orderby splice" `Quick test_orderby_splice;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "multi-node source" `Quick test_multinode_fallback;
          Alcotest.test_case "shadowed builtin" `Quick
            test_shadowed_builtin_fallback;
        ] );
      ( "perf",
        [
          Alcotest.test_case "allocation win" `Quick test_allocation_win;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
    ]
