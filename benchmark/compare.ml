(* [main.exe compare OLD NEW]: two sets of untraced run records (JSON
   lines, as [run] appends them), judged per (workload, end-to-end
   metric) by the bounds in BENCHMARK.json:

   - improved: at least 10 pairs (the i-th old run against the i-th new
     run of the workload, which is the order alternating runs are
     recorded in), the new run better in at least 9/10 of them, and the
     medians further apart than the old runs' interquartile range;
   - worse: the new median worse than the old by more than the bound;
   - unresolved: neither, and the spread (interquartile range over
     median) of either side exceeds the bound;
   - unchanged: otherwise.

   Exits 1 when any row is worse. *)

type verdict = Improved | Worse | Unresolved | Unchanged

let verdict_name = function
  | Improved -> "improved"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Unchanged -> "unchanged"

let judge (m : Spec.metric) ~old ~new_ =
  let bound = Option.value m.m_bound ~default:0. in
  let better a b = if m.m_lower_is_better then a < b else a > b in
  let mo = Stats.median old and mn = Stats.median new_ in
  let q1o, q3o = Stats.quartiles old and q1n, q3n = Stats.quartiles new_ in
  let spread q1 q3 med = (q3 -. q1) /. Float.abs med in
  let pairs = min (List.length old) (List.length new_) in
  let take l = List.filteri (fun i _ -> i < pairs) l in
  let wins = List.fold_left2 (fun acc n o -> if better n o then acc + 1 else acc) 0 (take new_) (take old) in
  let worse_by = (if m.m_lower_is_better then mn -. mo else mo -. mn) /. Float.abs mo in
  if pairs >= 10 && wins * 10 >= 9 * pairs && better mn mo && Float.abs (mn -. mo) > q3o -. q1o then Improved
  else if worse_by > bound then Worse
  else if spread q1o q3o mo > bound || spread q1n q3n mn > bound then Unresolved
  else Unchanged

(* metric values of a workload's untraced records, in file order *)
let values records workload name =
  List.filter_map
    (fun r ->
      if Json.str "workload" r = Some workload && Json.field "trace" r = Some (Json.Bool false) then
        Option.bind (Json.field "metrics" r) (fun ms -> Json.num (Json.field name ms))
      else None)
    records

let run old_path new_path =
  let spec = Spec.load () in
  let old = Json.read_lines old_path and new_ = Json.read_lines new_path in
  Printf.printf "%-14s %-16s %5s %12s %12s %8s %8s  %s\n" "workload" "metric" "runs" "old median" "new median"
    "change" "bound" "verdict";
  let any_worse = ref false in
  List.iter
    (fun workload ->
      List.iter
        (fun (m : Spec.metric) ->
          match (values old workload m.m_name, values new_ workload m.m_name) with
          | [], _ | _, [] -> ()
          | o, n ->
              let v = judge m ~old:o ~new_:n in
              if v = Worse then any_worse := true;
              let mo = Stats.median o and mn = Stats.median n in
              Printf.printf "%-14s %-16s %2d/%-2d %12.4g %12.4g %+7.1f%% %7.0f%%  %s\n" workload m.m_name
                (List.length o) (List.length n) mo mn
                ((mn -. mo) /. Float.abs mo *. 100.)
                (Option.value m.m_bound ~default:0. *. 100.)
                (verdict_name v))
        spec.end_to_end)
    spec.workloads;
  if !any_worse then exit 1
