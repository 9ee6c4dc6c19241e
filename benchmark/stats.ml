(* Order statistics for every timing the benchmark reports and compares.
   One definition, nearest rank, so a p50 in a run record and a quartile
   in [compare] mean the same thing. *)

(* The nearest-rank [p]-th percentile of an ascending array: the value
   at 1-based rank ceil(p/100 * n), clamped to [1, n].  For p50 of 100
   values that is the 50th value, for p99 the 99th.  [nan] when empty. *)
let percentile (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.)) in
    sorted.(max 1 (min n rank) - 1)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = percentile (sorted xs) 50.

(* (first quartile, third quartile) *)
let quartiles xs =
  let a = sorted xs in
  (percentile a 25., percentile a 75.)

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The highest of the usual percentiles that keeps at least ten samples
   above it: what a sample of [n] can support as its tail. *)
let supported_tail n =
  List.find_opt
    (fun p -> float_of_int n *. (100. -. p) /. 100. >= 10.)
    [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* Checks run by [main.exe selftest]. *)
let selftest () =
  let check name got want =
    if not (Float.equal got want) then
      failwith (Printf.sprintf "%s: got %g, want %g" name got want)
  in
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check "p50 of 1..100" (percentile hundred 50.) 50.;
  check "p99 of 1..100" (percentile hundred 99.) 99.;
  check "p90 of 1..100" (percentile hundred 90.) 90.;
  check "p100 of 1..100" (percentile hundred 100.) 100.;
  check "p0 clamps to the minimum" (percentile hundred 0.) 1.;
  check "p50 of 1..7" (percentile (Array.init 7 (fun i -> float_of_int (i + 1))) 50.) 4.;
  check "p50 of one value" (percentile [| 3.5 |] 50.) 3.5;
  if not (Float.is_nan (percentile [||] 50.)) then failwith "empty sample is not nan";
  check "median sorts its input" (median [ 3.; 1.; 2. ]) 2.;
  let q1, q3 = quartiles (List.init 8 (fun i -> float_of_int (i + 1))) in
  check "q1 of 1..8" q1 2.;
  check "q3 of 1..8" q3 6.;
  if supported_tail 100 <> Some 90. then failwith "100 samples support p90";
  if supported_tail 1000 <> Some 99. then failwith "1000 samples support p99";
  if supported_tail 5 <> None then failwith "5 samples support no tail"
