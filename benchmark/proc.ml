(* Forked children: each episode, oracle computation and server runs in
   its own process, so it starts from a fresh heap, store and counters,
   and its peak memory is its own.

   The parent never runs the engine itself and never spawns a domain:
   OCaml 5 forbids [fork] once other domains exist, and whatever the
   parent allocates is inherited by every child. *)

let now = Unix.gettimeofday

external pin_first_cpu : unit -> int = "bench_pin_first_cpu"

(* Run this process, and every thread and child it starts from now on,
   on one CPU: the lowest-numbered one it may use.  The engine then sees
   one CPU, so its parallelism budget defaults to 1 and it spawns no
   helper domain.  On a shared 2-vCPU host, work spread over both vCPUs
   measures what else the host runs (README.md has the numbers).
   [None] if the affinity could not be set. *)
let pin_to_one_cpu () = match pin_first_cpu () with -1 -> None | cpu -> Some cpu

(* Peak resident set of a process, from /proc, in MB. *)
let vm_hwm_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_lines with
  | lines ->
      List.find_map
        (fun l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> Option.map (fun kb -> float_of_int kb /. 1024.) (int_of_string_opt kb)
              | [] -> None)
          | _ -> None)
        lines
      |> Option.value ~default:Float.nan
  | exception Sys_error _ -> Float.nan

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let rec waitpid_noeintr pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

(* Run [f] in a forked child and return its value, marshalled back over
   a pipe.  A child that raises, dies or outlives [timeout] seconds
   gives [Error]; a late child is killed.  Either way it has exited when
   this returns. *)
let in_child ~timeout (f : unit -> 'a) : ('a, string) result =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      (try
         Marshal.to_channel oc (result : ('a, string) result) [];
         close_out oc
       with _ -> ());
      (* skip at_exit: the parent's buffered output is not the child's to flush *)
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let deadline = now () +. timeout in
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec drain () =
        let left = deadline -. now () in
        if left <= 0. then false
        else
          match Unix.select [ rd ] [] [] left with
          | [], _, _ -> false
          | _ -> (
              match Unix.read rd chunk 0 (Bytes.length chunk) with
              | 0 -> true
              | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  drain ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      let finished = drain () in
      Unix.close rd;
      if not finished then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      waitpid_noeintr pid;
      if not finished then Error "timeout"
      else if Buffer.length buf = 0 then Error "child died"
      else (Marshal.from_string (Buffer.contents buf) 0 : ('a, string) result)

(* Exit when the parent goes away, so a killed benchmark leaves no
   server behind.  Runs as a thread in long-lived children. *)
let watch_parent parent =
  ignore
    (Thread.create
       (fun () ->
         while true do
           Thread.delay 0.5;
           if Unix.getppid () <> parent then Unix._exit 3
         done)
       ())
