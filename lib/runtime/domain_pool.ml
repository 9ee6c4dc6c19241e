(* A small shared domain pool: one budget for every source of
   parallelism in the process.

   The query server's worker domains and the intra-query partition
   tasks of Par_exec draw from the same global budget, so a 4-domain
   box running 4 server workers does not fan each request out 4-ways
   again (16 runnable domains on 4 cores is how the 1->4 worker
   regression in bench/BENCH_server.json happened in the first place).

   Budget resolution order: the --par CLI override, then the XQC_PAR
   environment variable (off|0|no disables, a positive integer forces),
   then [Domain.recommended_domain_count ()].  On a single-core box the
   default budget is 1 and every parallel construct degrades to the
   plain sequential loop — graceful no-op, no helper domain is ever
   spawned.

   Execution model: [parallel_list] turns a list of thunks into a batch
   of claimable cells.  The cells are published to a global queue served
   by lazily-spawned helper domains (at most budget-1 of them, ever),
   and then the *caller claims and runs unclaimed cells itself*.  Every
   cell is claimed exactly once with a compare-and-set, so the batch
   completes even when no helper is free — the caller just runs the
   whole batch inline.  That property makes nested batches
   deadlock-free: a helper that submits a sub-batch finishes it with its
   own hands if nobody else will.  Stale queue entries for cells the
   caller already ran are drained as no-ops. *)

module Obs = Xqc_obs.Obs

let c_tasks = Obs.global_counter "par_tasks"
let c_batches = Obs.global_counter "par_batches"
let c_inline = Obs.global_counter "par_inline"
let c_stolen = Obs.global_counter "par_tasks_helped"

(* ------------------------------------------------------------------ *)
(* Budget                                                              *)
(* ------------------------------------------------------------------ *)

let env_budget =
  match Option.map String.lowercase_ascii (Sys.getenv_opt "XQC_PAR") with
  | Some ("off" | "0" | "no") -> Some 1
  | Some s -> (
      match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None)
  | None -> None

let override : int option ref = ref None

(* The hardware budget is resolved on first use, not at module
   initialisation: [Domain.recommended_domain_count] follows the CPU
   affinity, so a process that pins itself before running queries gets
   the pinned count.  It is memoised in an atomic, not a [lazy]: OCaml
   5's [Lazy.force] raises [Lazy.Undefined] when two domains force the
   same suspension at once, which is what a server's first concurrent
   requests do.  Racing first users may each compute it; the first to
   publish wins, so every caller sees one value. *)
let hw_cell = Atomic.make 0

let hw_budget () =
  if Atomic.get hw_cell = 0 then
    ignore (Atomic.compare_and_set hw_cell 0 (Domain.recommended_domain_count ()));
  Atomic.get hw_cell

let budget () =
  match !override with
  | Some n -> max 1 n
  | None -> ( match env_budget with Some n -> n | None -> hw_budget ())

let set_budget o = override := o

(* Server workers register themselves so per-query parallelism shares
   the budget instead of multiplying it: with W workers on a B-domain
   budget each in-flight query gets about B/W partition slots. *)
let reserved = ref 1
let set_reserved_workers w = reserved := max 1 w
let query_degree () = max 1 (budget () / max 1 !reserved)

(* ------------------------------------------------------------------ *)
(* Helper domains and the claimable-cell queue                         *)
(* ------------------------------------------------------------------ *)

let qm = Mutex.create ()
let qc = Condition.create ()
let queue : (unit -> unit) Queue.t = Queue.create ()
let stop = ref false
let helpers : unit Domain.t list ref = ref []
let spawned = ref 0

let helper_loop () =
  let rec loop () =
    Mutex.lock qm;
    while Queue.is_empty queue && not !stop do
      Condition.wait qc qm
    done;
    if Queue.is_empty queue then Mutex.unlock qm (* stop requested *)
    else begin
      let job = Queue.pop queue in
      Mutex.unlock qm;
      (try job () with _ -> ());
      loop ()
    end
  in
  loop ()

(* Helpers are joined at exit so the main domain never terminates while
   pool domains are parked on the condition variable. *)
let shutdown () =
  Mutex.lock qm;
  stop := true;
  Condition.broadcast qc;
  Mutex.unlock qm;
  List.iter Domain.join !helpers;
  helpers := []

let () = at_exit shutdown

(* Lazily top the pool up to [want] helpers (never beyond budget-1). *)
let ensure_helpers (want : int) =
  let cap = min want (budget () - 1) in
  if !spawned < cap then begin
    Mutex.lock qm;
    while !spawned < cap && not !stop do
      helpers := Domain.spawn helper_loop :: !helpers;
      incr spawned
    done;
    Mutex.unlock qm
  end

let helpers_alive () = !spawned

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)
(* ------------------------------------------------------------------ *)

let parallel_list (fs : (unit -> 'a) list) : 'a list =
  match fs with
  | [] -> []
  | [ f ] ->
      Obs.incr_counter c_inline;
      [ f () ]
  | _ when budget () <= 1 ->
      Obs.incr_counter c_inline;
      List.map (fun f -> f ()) fs
  | _ ->
      let thunks = Array.of_list fs in
      let n = Array.length thunks in
      let results : 'a option array = Array.make n None in
      let claimed = Array.init n (fun _ -> Atomic.make false) in
      let pending = Atomic.make n in
      let failed : exn option Atomic.t = Atomic.make None in
      let bm = Mutex.create () and bc = Condition.create () in
      let exec ~helped k =
        if Atomic.compare_and_set claimed.(k) false true then begin
          (try results.(k) <- Some (thunks.(k) ())
           with e ->
             ignore (Atomic.compare_and_set failed None (Some e)));
          Obs.incr_counter c_tasks;
          if helped then Obs.incr_counter c_stolen;
          if Atomic.fetch_and_add pending (-1) = 1 then begin
            Mutex.lock bm;
            Condition.broadcast bc;
            Mutex.unlock bm
          end
        end
      in
      Obs.incr_counter c_batches;
      ensure_helpers (n - 1);
      (* publish cells 1..n-1; the caller starts on cell 0 and then
         sweeps for anything the helpers did not get to *)
      Mutex.lock qm;
      for k = 1 to n - 1 do
        Queue.add (fun () -> exec ~helped:true k) queue
      done;
      Condition.broadcast qc;
      Mutex.unlock qm;
      for k = 0 to n - 1 do
        exec ~helped:false k
      done;
      Mutex.lock bm;
      while Atomic.get pending > 0 do
        Condition.wait bc bm
      done;
      Mutex.unlock bm;
      (* re-raise the first task failure as if it happened inline, so
         Timeout / Dynamic_error behave identically to sequential runs *)
      (match Atomic.get failed with Some e -> raise e | None -> ());
      Array.to_list
        (Array.map
           (function Some v -> v | None -> assert false)
           results)

let run_thunks (fs : (unit -> unit) list) : unit =
  ignore (parallel_list fs : unit list)
