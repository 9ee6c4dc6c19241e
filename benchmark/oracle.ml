(* The interpreter oracle: MD5 digests of every query's serialized output
   on each workload's document, computed by the No_algebra Core
   interpreter (the paper's pre-algebra baseline), never by the compiler
   under test.

   Digests for seed 42 are committed in benchmark/oracle/seed-42.json.
   Other seeds are computed on first use and cached under
   benchmark/out/oracle/; [main.exe oracle --seed N] regenerates a
   committed file. *)

module W = Workloads

let committed_dir = "benchmark/oracle"
let cache_dir = "benchmark/out/oracle"
let file dir seed = Filename.concat dir (Printf.sprintf "seed-%d.json" seed)

(* document copy key -> query name -> hex digest *)
type t = (string * (string * string) list) list

let digest s = Digest.to_hex (Digest.string s)

let to_json seed (o : t) =
  Json.Obj
    [
      ("seed", Json.Int seed);
      ("engine", Json.Str (Xqc.strategy_name Xqc.No_algebra));
      ( "docs",
        Json.Obj
          (List.map
             (fun (key, qs) -> (key, Json.Obj (List.map (fun (q, d) -> (q, Json.Str d)) qs)))
             o) );
    ]

let of_json json : t =
  match Json.field "docs" json with
  | Some (Json.Obj docs) ->
      List.map
        (fun (key, qs) ->
          ( key,
            match qs with
            | Json.Obj qs -> List.filter_map (fun (q, d) -> match d with Json.Str d -> Some (q, d) | _ -> None) qs
            | _ -> [] ))
        docs
  | _ -> []

let load path : t = try of_json (Json.parse (Json.read_file path)) with Sys_error _ -> []

let save path seed (o : t) =
  Proc.mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string (to_json seed o));
      output_char oc '\n')

(* Digests of [queries] on copy [i] of the document, by the interpreter,
   in a child process so the parent's heap stays empty. *)
let compute ~seed (doc : W.doc) i queries : (string * string) list =
  match
    Proc.in_child ~timeout:600. (fun () ->
        let root = Xqc.parse_document ~uri:(W.doc_key doc) (W.generate ~seed doc i) in
        let ctx = Xqc.context () in
        Xqc.bind_variable ctx (W.doc_var doc) [ Xqc.Item.Node root ];
        List.map
          (fun (name, q) ->
            (name, digest (Xqc.serialize (Xqc.run (Xqc.prepare ~strategy:Xqc.No_algebra q) ctx))))
          queries)
  with
  | Ok digests -> digests
  | Error m -> failwith (Printf.sprintf "oracle for %s failed: %s" (W.copy_key doc i) m)

(* The digests a workload needs, one list per document copy: committed,
   else cached, else computed now (and cached, unless [live]: the quick
   smoke run always recomputes). *)
let for_workload ?(live = false) ~seed (w : W.t) : (string * string) list array =
  let doc, queries = W.oracle_needs w in
  let committed = if live then [] else load (file committed_dir seed) in
  let cached = ref (if live then [] else load (file cache_dir seed)) in
  let covering (o : t) key =
    match List.assoc_opt key o with
    | Some qs when List.for_all (fun (q, _) -> List.mem_assoc q qs) queries -> Some qs
    | _ -> None
  in
  Array.init doc.W.copies (fun i ->
        let key = W.copy_key doc i in
        match covering committed key with
        | Some qs -> qs
        | None -> (
            match covering !cached key with
            | Some qs -> qs
            | None ->
                let t0 = Proc.now () in
                let qs = compute ~seed doc i queries in
                Printf.eprintf "oracle: %s seed %d computed by the interpreter in %.1fs\n%!" key seed
                  (Proc.now () -. t0);
                cached := List.remove_assoc key !cached @ [ (key, qs) ];
                if not live then save (file cache_dir seed) seed !cached;
                qs))

(* [main.exe oracle --seed N]: every workload's digests, written to the
   committed file. *)
let regenerate ~seed =
  let docs =
    List.fold_left
      (fun acc w ->
        let doc, queries = W.oracle_needs w in
        List.fold_left
          (fun acc i ->
            let key = W.copy_key doc i in
            let have = Option.value (List.assoc_opt key acc) ~default:[] in
            let missing = List.filter (fun (q, _) -> not (List.mem_assoc q have)) queries in
            if missing = [] then acc
            else begin
              let t0 = Proc.now () in
              let qs = compute ~seed doc i missing in
              Printf.eprintf "oracle: %s (%d queries) in %.1fs\n%!" key (List.length missing) (Proc.now () -. t0);
              List.remove_assoc key acc @ [ (key, have @ qs) ]
            end)
          acc
          (List.init doc.W.copies Fun.id))
      [] W.all
  in
  let path = file committed_dir seed in
  save path seed docs;
  Printf.eprintf "wrote %s\n%!" path
