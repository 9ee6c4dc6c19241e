(* Wire protocol: newline-delimited JSON, one request object per line,
   one response object per line.

   Request grammar (fields beyond these are ignored):

     {"op":"query",    "q":SOURCE, "id":ID?, "timeout_ms":N?, "trace":BOOL?}
     {"op":"prepare",  "name":NAME, "q":SOURCE, "id":ID?}
     {"op":"execute",  "name":NAME, "id":ID?, "timeout_ms":N?, "trace":BOOL?}
     {"op":"update",   "doc":NAME, "q":SCRIPT, "id":ID?, "timeout_ms":N?, "trace":BOOL?}
     {"op":"stats",    "id":ID?}
     {"op":"metrics",  "id":ID?, "format":"json"|"prometheus"?}
     {"op":"trace",    "id":ID?, "trace_id":N?}
     {"op":"ping",     "id":ID?}
     {"op":"shutdown", "id":ID?}

   Every query, prepare, execute and update is traced, and its response
   carries "trace_id"; "trace":true also embeds the span tree in the
   response.  "op":"trace" with a trace_id fetches one stored trace;
   without, it lists recent trace summaries.  "op":"metrics" serves the
   full telemetry plane — JSON by default, Prometheus text exposition
   (as the "text" field) with "format":"prometheus".

   Responses echo the request's "id" (Null when absent) and carry
   "status":"ok" plus op-specific fields, or "status":"error" with a
   machine-readable "code" and a human "message".  Error codes:
   bad_request, unknown_statement, unknown_document, unknown_trace,
   timeout, overloaded, query_error, shutting_down, internal,
   result_too_large (a query result that would serialize to more than
   the server's size cap; nothing of it is built or sent), and
   request_too_large (a request line over that cap; the server then
   closes the connection).

   "op":"update" runs an XQUF script against the preloaded document
   named "doc", under its MVCC write lock; ok responses carry "applied"
   (primitives applied), "version" (published version id) and
   "in_place" (whether the live head was patched vs a copy published
   for admitted readers). *)

module Obs = Xqc_obs.Obs

type metrics_format = Json_format | Prometheus_format

type request =
  | Query of { source : string; timeout_ms : int option; trace : bool }
  | Prepare of { name : string; source : string }
  | Execute of { name : string; timeout_ms : int option; trace : bool }
  | Update of { doc : string; source : string; timeout_ms : int option; trace : bool }
      (** run an XQUF script against the preloaded document [doc] *)
  | Stats
  | Metrics of metrics_format
  | Trace_get of int option
  | Ping
  | Shutdown

(* A decoded request line: the id is recovered even when the request
   itself is malformed, so the error response can still be correlated. *)
type envelope = { id : Obs.json; req : (request, string) result }

let field name = function
  | Obs.Obj fields -> List.assoc_opt name fields
  | _ -> None

let str_field name json =
  match field name json with
  | Some (Obs.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let timeout_field json =
  match field "timeout_ms" json with
  | Some (Obs.Int n) when n > 0 -> Ok (Some n)
  | Some (Obs.Int _) -> Error "field \"timeout_ms\" must be positive"
  | Some _ -> Error "field \"timeout_ms\" must be an integer"
  | None -> Ok None

let trace_field json =
  match field "trace" json with
  | Some (Obs.Bool b) -> Ok b
  | Some _ -> Error "field \"trace\" must be a boolean"
  | None -> Ok false

let format_field json =
  match field "format" json with
  | Some (Obs.Str ("json" | "")) | None -> Ok Json_format
  | Some (Obs.Str ("prometheus" | "prom" | "text")) -> Ok Prometheus_format
  | Some _ -> Error "field \"format\" must be \"json\" or \"prometheus\""

let trace_id_field json =
  match field "trace_id" json with
  | Some (Obs.Int n) -> Ok (Some n)
  | Some _ -> Error "field \"trace_id\" must be an integer"
  | None -> Ok None

let decode_request (line : string) : envelope =
  match Json_parse.parse line with
  | exception Json_parse.Parse_error m ->
      { id = Obs.Null; req = Error ("invalid JSON: " ^ m) }
  | Obs.Obj _ as json ->
      let id = Option.value (field "id" json) ~default:Obs.Null in
      let req =
        match str_field "op" json with
        | Error m -> Error m
        | Ok "query" ->
            Result.bind (str_field "q" json) (fun source ->
                Result.bind (timeout_field json) (fun timeout_ms ->
                    Result.map
                      (fun trace -> Query { source; timeout_ms; trace })
                      (trace_field json)))
        | Ok "prepare" ->
            Result.bind (str_field "name" json) (fun name ->
                Result.map
                  (fun source -> Prepare { name; source })
                  (str_field "q" json))
        | Ok "execute" ->
            Result.bind (str_field "name" json) (fun name ->
                Result.bind (timeout_field json) (fun timeout_ms ->
                    Result.map
                      (fun trace -> Execute { name; timeout_ms; trace })
                      (trace_field json)))
        | Ok "update" ->
            Result.bind (str_field "doc" json) (fun doc ->
                Result.bind (str_field "q" json) (fun source ->
                    Result.bind (timeout_field json) (fun timeout_ms ->
                        Result.map
                          (fun trace -> Update { doc; source; timeout_ms; trace })
                          (trace_field json))))
        | Ok "stats" -> Ok Stats
        | Ok "metrics" -> Result.map (fun f -> Metrics f) (format_field json)
        | Ok "trace" -> Result.map (fun n -> Trace_get n) (trace_id_field json)
        | Ok "ping" -> Ok Ping
        | Ok "shutdown" -> Ok Shutdown
        | Ok other -> Error (Printf.sprintf "unknown op %S" other)
      in
      { id; req }
  | _ -> { id = Obs.Null; req = Error "request must be a JSON object" }

(* Client-side encoding of the same grammar. *)
let encode_request ?(id = Obs.Null) (req : request) : string =
  let timeout fields = function
    | Some ms -> fields @ [ ("timeout_ms", Obs.Int ms) ]
    | None -> fields
  in
  let traced fields = function
    | true -> fields @ [ ("trace", Obs.Bool true) ]
    | false -> fields
  in
  let op, fields =
    match req with
    | Query { source; timeout_ms; trace } ->
        ("query", traced (timeout [ ("q", Obs.Str source) ] timeout_ms) trace)
    | Prepare { name; source } ->
        ("prepare", [ ("name", Obs.Str name); ("q", Obs.Str source) ])
    | Execute { name; timeout_ms; trace } ->
        ("execute", traced (timeout [ ("name", Obs.Str name) ] timeout_ms) trace)
    | Update { doc; source; timeout_ms; trace } ->
        ( "update",
          traced
            (timeout [ ("doc", Obs.Str doc); ("q", Obs.Str source) ] timeout_ms)
            trace )
    | Stats -> ("stats", [])
    | Metrics Json_format -> ("metrics", [ ("format", Obs.Str "json") ])
    | Metrics Prometheus_format ->
        ("metrics", [ ("format", Obs.Str "prometheus") ])
    | Trace_get (Some n) -> ("trace", [ ("trace_id", Obs.Int n) ])
    | Trace_get None -> ("trace", [])
    | Ping -> ("ping", [])
    | Shutdown -> ("shutdown", [])
  in
  let fields = if id = Obs.Null then fields else fields @ [ ("id", id) ] in
  Obs.json_to_string (Obs.Obj (("op", Obs.Str op) :: fields))

(* A response is one NDJSON line, newline included, encoded into one
   buffer sized up front from its top-level strings (a query's result
   is nearly all of a large reply), so the reply is built with no growth
   chain and written as is, with no second copy for the framing. *)
let reply_line (fields : (string * Obs.json) list) : string =
  let size n (_, v) = match v with Obs.Str s -> n + String.length s | _ -> n in
  let buf = Buffer.create (List.fold_left size 256 fields) in
  Obs.add_json buf (Obs.Obj fields);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let response_ok ~(id : Obs.json) (fields : (string * Obs.json) list) : string =
  reply_line (("id", id) :: ("status", Obs.Str "ok") :: fields)

(* [extra] lets a response carry op-specific fields alongside the error
   (e.g. the trace_id of a timed-out traced request). *)
let response_error ?(extra = []) ~(id : Obs.json) ~(code : string)
    (message : string) : string =
  reply_line
    ([ ("id", id); ("status", Obs.Str "error"); ("code", Obs.Str code); ("message", Obs.Str message) ]
    @ extra)
