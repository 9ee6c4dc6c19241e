(* The benchmark's own tracing: spans around each call into a layer's
   public function, recorded from the benchmark's side of the call.

   Each closed span adds its self time (its duration minus the part its
   child spans cover) to its name's total, so per-layer numbers come out
   without keeping every span.  The first [keep] spans are also kept in
   memory, with start, end, parent and round id, for the Chrome
   trace-event file written when the run ends. *)

type span = {
  s_name : string;
  s_id : int;
  s_parent : int;  (** 0 for a root span *)
  s_round : int;
  s_start : float;  (** seconds, [Unix.gettimeofday] *)
  s_stop : float;
  s_detail : string;  (** "" or e.g. the query name *)
}

type frame = {
  f_name : string;
  f_id : int;
  f_detail : string;
  f_start : float;
  mutable f_children : float;  (** seconds covered by closed children *)
}

type t = {
  mutable stack : frame list;  (** open spans, innermost first *)
  mutable next_id : int;
  mutable round : int;
  self : (string, float ref) Hashtbl.t;  (** seconds, by span name *)
  detail_self : (string * string, float ref) Hashtbl.t;  (** by (name, detail) *)
  mutable kept : span list;  (** newest first *)
  mutable kept_n : int;
  keep : int;
}

let create ~keep =
  {
    stack = [];
    next_id = 1;
    round = 0;
    self = Hashtbl.create 16;
    detail_self = Hashtbl.create 32;
    kept = [];
    kept_n = 0;
    keep;
  }

let set_round t r = t.round <- r

let add tbl key secs =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r +. secs
  | None -> Hashtbl.add tbl key (ref secs)

let close t (f : frame) =
  let stop = Unix.gettimeofday () in
  let dur = stop -. f.f_start in
  (match t.stack with _ :: rest -> t.stack <- rest | [] -> ());
  let self = dur -. f.f_children in
  add t.self f.f_name self;
  if f.f_detail <> "" then add t.detail_self (f.f_name, f.f_detail) self;
  (match t.stack with parent :: _ -> parent.f_children <- parent.f_children +. dur | [] -> ());
  if t.kept_n < t.keep then begin
    t.kept_n <- t.kept_n + 1;
    t.kept <-
      {
        s_name = f.f_name;
        s_id = f.f_id;
        s_parent = (match t.stack with p :: _ -> p.f_id | [] -> 0);
        s_round = t.round;
        s_start = f.f_start;
        s_stop = stop;
        s_detail = f.f_detail;
      }
      :: t.kept
  end

(* Time [f] as a span named [name] under the innermost open span. *)
let within t ?(detail = "") name f =
  let frame =
    { f_name = name; f_id = t.next_id; f_detail = detail; f_start = Unix.gettimeofday (); f_children = 0. }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- frame :: t.stack;
  Fun.protect ~finally:(fun () -> close t frame) f

let self_secs t name = match Hashtbl.find_opt t.self name with Some r -> !r | None -> 0.

(* Self seconds of the spans named [name], by detail. *)
let detail_secs t name =
  Hashtbl.fold (fun (n, d) r acc -> if n = name then (d, !r) :: acc else acc) t.detail_self []

let kept t = List.rev t.kept

(* Chrome trace-event JSON (loadable in chrome://tracing or Perfetto):
   one complete ("X") event per span, timestamps in microseconds from
   the first span, episodes as thread ids. *)
let write_chrome path (episodes : span list list) =
  let t0 =
    List.fold_left
      (fun acc spans -> List.fold_left (fun acc s -> Float.min acc s.s_start) acc spans)
      infinity episodes
  in
  let us x = Json.Float ((x -. t0) *. 1e6) in
  let events =
    List.concat
      (List.mapi
         (fun ep spans ->
           List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.Str (if s.s_detail = "" then s.s_name else s.s_name ^ " " ^ s.s_detail));
                   ("cat", Json.Str (List.hd (String.split_on_char '.' s.s_name)));
                   ("ph", Json.Str "X");
                   ("ts", us s.s_start);
                   ("dur", Json.Float ((s.s_stop -. s.s_start) *. 1e6));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int (ep + 1));
                   ( "args",
                     Json.Obj
                       [ ("id", Json.Int s.s_id); ("parent", Json.Int s.s_parent); ("round", Json.Int s.s_round) ] );
                 ])
             spans)
         episodes)
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Json.to_string (Json.Obj [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ms") ]));
      output_char oc '\n')
