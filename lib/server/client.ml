(* A small synchronous client for the query service: one connection, one
   request in flight at a time (the server itself multiplexes across
   connections, not within one).  Typed helpers cover every protocol op;
   [rpc] is the raw escape hatch. *)

module Obs = Xqc_obs.Obs

exception Client_error of string

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel; mutable next_id : int }

let make fd = { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; next_id = 1 }

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with Unix.Unix_error (e, _, _) ->
     Unix.close fd;
     raise (Client_error (Printf.sprintf "connect %s: %s" path (Unix.error_message e))));
  make fd

let connect_tcp host port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     let addr = (Unix.gethostbyname host).Unix.h_addr_list.(0) in
     Unix.connect fd (Unix.ADDR_INET (addr, port))
   with
  | Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      raise (Client_error (Printf.sprintf "connect %s:%d: %s" host port (Unix.error_message e)))
  | Not_found ->
      Unix.close fd;
      raise (Client_error (Printf.sprintf "unknown host %s" host)));
  make fd

(* Closing the output channel flushes it and closes the shared
   descriptor.  The descriptor must not be closed a second time: by then
   its number may belong to a socket another thread just opened. *)
let close t = close_out_noerr t.oc

let field name = function
  | Obs.Obj fields -> List.assoc_opt name fields
  | _ -> None

(* Send one request line and read the matching response line. *)
let rpc (t : t) (req : Protocol.request) : Obs.json =
  let id = Obs.Int t.next_id in
  t.next_id <- t.next_id + 1;
  output_string t.oc (Protocol.encode_request ~id req);
  output_char t.oc '\n';
  flush t.oc;
  match input_line t.ic with
  | exception End_of_file -> raise (Client_error "server closed the connection")
  | line -> (
      match Json_parse.parse line with
      | json -> json
      | exception Json_parse.Parse_error m ->
          raise (Client_error ("malformed response: " ^ m)))

(* Ok payload or [Error (code, message)]. *)
let result_of (json : Obs.json) : (Obs.json, string * string) result =
  match field "status" json with
  | Some (Obs.Str "ok") -> Ok json
  | Some (Obs.Str "error") ->
      let str name =
        match field name json with Some (Obs.Str s) -> s | _ -> ""
      in
      Error (str "code", str "message")
  | _ -> raise (Client_error "response has no status field")

(* Full ok-response object — for callers that want trace_id / items /
   the embedded span tree alongside the result text. *)
let query_json ?timeout_ms ?(trace = false) t source :
    (Obs.json, string * string) result =
  result_of (rpc t (Protocol.Query { source; timeout_ms; trace }))

let query ?timeout_ms ?(trace = false) t source :
    (string, string * string) result =
  match query_json ?timeout_ms ~trace t source with
  | Error _ as e -> e
  | Ok json -> (
      match field "result" json with
      | Some (Obs.Str s) -> Ok s
      | _ -> raise (Client_error "ok response has no result field"))

let prepare t ~name source : (unit, string * string) result =
  Result.map (fun _ -> ()) (result_of (rpc t (Protocol.Prepare { name; source })))

let execute_json ?timeout_ms ?(trace = false) t name :
    (Obs.json, string * string) result =
  result_of (rpc t (Protocol.Execute { name; timeout_ms; trace }))

let execute ?timeout_ms ?(trace = false) t name :
    (string, string * string) result =
  match execute_json ?timeout_ms ~trace t name with
  | Error _ as e -> e
  | Ok json -> (
      match field "result" json with
      | Some (Obs.Str s) -> Ok s
      | _ -> raise (Client_error "ok response has no result field"))

(* Outcome of an applied update script, from the server's ok response. *)
type update_result = {
  ur_applied : int;  (** update primitives applied *)
  ur_version : int;  (** published document version id *)
  ur_in_place : bool;  (** live head patched (vs copy published) *)
}

let update_json ?timeout_ms ?(trace = false) t ~doc source :
    (Obs.json, string * string) result =
  result_of (rpc t (Protocol.Update { doc; source; timeout_ms; trace }))

let update ?timeout_ms ?(trace = false) t ~doc source :
    (update_result, string * string) result =
  match update_json ?timeout_ms ~trace t ~doc source with
  | Error _ as e -> e
  | Ok json ->
      let int name =
        match field name json with
        | Some (Obs.Int n) -> n
        | _ -> raise (Client_error ("ok response has no " ^ name ^ " field"))
      in
      let in_place =
        match field "in_place" json with Some (Obs.Bool b) -> b | _ -> false
      in
      Ok
        {
          ur_applied = int "applied";
          ur_version = int "version";
          ur_in_place = in_place;
        }

let stats t : Obs.json =
  match result_of (rpc t Protocol.Stats) with
  | Ok json -> Option.value (field "stats" json) ~default:Obs.Null
  | Error (code, m) -> raise (Client_error (Printf.sprintf "stats: %s: %s" code m))

(* Dig an [Int] counter out of a stats response, e.g.
   [stat_counter s "plan_cache_hits"]. *)
let stat_counter (stats : Obs.json) name : int option =
  match field "counters" stats with
  | Some counters -> (
      match field name counters with Some (Obs.Int n) -> Some n | _ -> None)
  | None -> None

let metrics t : Obs.json =
  match result_of (rpc t (Protocol.Metrics Protocol.Json_format)) with
  | Ok json -> Option.value (field "metrics" json) ~default:Obs.Null
  | Error (code, m) ->
      raise (Client_error (Printf.sprintf "metrics: %s: %s" code m))

let metrics_prometheus t : string =
  match result_of (rpc t (Protocol.Metrics Protocol.Prometheus_format)) with
  | Ok json -> (
      match field "text" json with
      | Some (Obs.Str s) -> s
      | _ -> raise (Client_error "metrics response has no text field"))
  | Error (code, m) ->
      raise (Client_error (Printf.sprintf "metrics: %s: %s" code m))

let fetch_trace t trace_id : (Obs.json, string * string) result =
  match result_of (rpc t (Protocol.Trace_get (Some trace_id))) with
  | Error _ as e -> e
  | Ok json -> (
      match field "trace" json with
      | Some tr -> Ok tr
      | None -> raise (Client_error "ok response has no trace field"))

let recent_traces t : Obs.json list =
  match result_of (rpc t (Protocol.Trace_get None)) with
  | Ok json -> (
      match field "traces" json with Some (Obs.Arr l) -> l | _ -> [])
  | Error (code, m) ->
      raise (Client_error (Printf.sprintf "trace: %s: %s" code m))

let ping t : bool =
  match result_of (rpc t Protocol.Ping) with Ok _ -> true | Error _ -> false

let shutdown t : unit =
  match result_of (rpc t Protocol.Shutdown) with
  | Ok _ -> ()
  | Error (code, m) -> raise (Client_error (Printf.sprintf "shutdown: %s: %s" code m))
