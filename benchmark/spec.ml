(* BENCHMARK.json: the one list of metric names, units, directions and
   regression bounds.  A run reports exactly these metrics, in this
   order, and [compare] applies these bounds. *)

type metric = {
  m_name : string;
  m_unit : string;
  m_lower_is_better : bool;
  m_bound : float option;  (** end-to-end metrics only *)
}

type t = {
  run_seconds : float;  (** measuring time of one run *)
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let path = "BENCHMARK.json"

let load () : t =
  let json = Json.parse (Json.read_file path) in
  let metrics key =
    List.map
      (fun m ->
        {
          m_name = Option.get (Json.str "name" m);
          m_unit = Option.get (Json.str "unit" m);
          m_lower_is_better = Json.str "better" m = Some "lower";
          m_bound = Json.num (Json.field "bound" m);
        })
      (Json.list key json)
  in
  {
    run_seconds = Option.get (Json.num (Json.field "run_seconds" json));
    workloads = List.filter_map (Json.str "name") (Json.list "workloads" json);
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }
