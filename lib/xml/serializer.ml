(* XML serialization (the Serialize operator of Table 1) and sequence
   serialization per the XQuery serialization rules: adjacent atomic values
   are separated by a single space; nodes serialize as markup. *)

(* Runs of ordinary bytes are blitted with one [add_substring]; only the
   special bytes are added one by one, as their entity references. *)
let escape_with entity buf s =
  let n = String.length s in
  let rec go start i =
    if i = n then Buffer.add_substring buf s start (i - start)
    else
      match entity s.[i] with
      | None -> go start (i + 1)
      | Some ent ->
          Buffer.add_substring buf s start (i - start);
          Buffer.add_string buf ent;
          go (i + 1) (i + 1)
  in
  go 0 0

let escape_text =
  escape_with (function
    | '<' -> Some "&lt;"
    | '>' -> Some "&gt;"
    | '&' -> Some "&amp;"
    | _ -> None)

let escape_attr =
  escape_with (function
    | '<' -> Some "&lt;"
    | '&' -> Some "&amp;"
    | '"' -> Some "&quot;"
    | _ -> None)

let rec add_node buf (n : Node.t) =
  match n.Node.desc with
  | Node.Document d -> List.iter (add_node buf) d.dchildren
  | Node.Element e ->
      Buffer.add_char buf '<';
      Buffer.add_string buf e.ename;
      List.iter
        (fun a ->
          match a.Node.desc with
          | Node.Attribute at ->
              Buffer.add_char buf ' ';
              Buffer.add_string buf at.aname;
              Buffer.add_string buf "=\"";
              escape_attr buf at.avalue;
              Buffer.add_char buf '"'
          | Node.Document _ | Node.Element _ | Node.Text _ | Node.Comment _
          | Node.Pi _ ->
              ())
        e.attrs;
      if e.children = [] then Buffer.add_string buf "/>"
      else (
        Buffer.add_char buf '>';
        List.iter (add_node buf) e.children;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.ename;
        Buffer.add_char buf '>')
  | Node.Attribute a ->
      (* A top-level attribute serializes as name="value" (non-standard but
         useful for debugging output). *)
      Buffer.add_string buf a.aname;
      Buffer.add_string buf "=\"";
      escape_attr buf a.avalue;
      Buffer.add_char buf '"'
  | Node.Text s -> escape_text buf s
  | Node.Comment s ->
      Buffer.add_string buf "<!--";
      Buffer.add_string buf s;
      Buffer.add_string buf "-->"
  | Node.Pi p ->
      Buffer.add_string buf "<?";
      Buffer.add_string buf p.target;
      Buffer.add_char buf ' ';
      Buffer.add_string buf p.pdata;
      Buffer.add_string buf "?>"

let node_to_string n =
  let buf = Buffer.create 256 in
  add_node buf n;
  Buffer.contents buf

(* Indented serialization for human consumption.  Eliding whitespace is
   only safe around element-only content, so an element with any text
   child is emitted on one line. *)
let rec add_node_indented buf depth (n : Node.t) =
  let pad () = Buffer.add_string buf (String.make (2 * depth) ' ') in
  match n.Node.desc with
  | Node.Document d ->
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_char buf '\n';
          add_node_indented buf depth c)
        d.dchildren
  | Node.Element e ->
      let mixed =
        List.exists
          (fun c -> match c.Node.desc with Node.Text _ -> true | _ -> false)
          e.children
      in
      pad ();
      if mixed || e.children = [] then add_node buf n
      else (
        Buffer.add_char buf '<';
        Buffer.add_string buf e.ename;
        List.iter
          (fun a ->
            match a.Node.desc with
            | Node.Attribute at ->
                Buffer.add_char buf ' ';
                Buffer.add_string buf at.aname;
                Buffer.add_string buf "=\"";
                escape_attr buf at.avalue;
                Buffer.add_char buf '\"'
            | _ -> ())
          e.attrs;
        Buffer.add_string buf ">\n";
        List.iter
          (fun c ->
            add_node_indented buf (depth + 1) c;
            Buffer.add_char buf '\n')
          e.children;
        pad ();
        Buffer.add_string buf "</";
        Buffer.add_string buf e.ename;
        Buffer.add_char buf '>')
  | Node.Attribute _ | Node.Text _ | Node.Comment _ | Node.Pi _ ->
      pad ();
      add_node buf n

let node_to_string_indented n =
  let buf = Buffer.create 256 in
  add_node_indented buf 0 n;
  Buffer.contents buf

let sequence_to_string (s : Item.sequence) =
  let buf = Buffer.create 256 in
  let rec go prev_atom = function
    | [] -> ()
    | Item.Atom a :: rest ->
        if prev_atom then Buffer.add_char buf ' ';
        escape_text buf (Atomic.to_string a);
        go true rest
    | Item.Node n :: rest ->
        add_node buf n;
        go false rest
  in
  go false s;
  Buffer.contents buf

let sequence_to_string_indented (s : Item.sequence) =
  let buf = Buffer.create 256 in
  List.iteri
    (fun i it ->
      if i > 0 then Buffer.add_char buf '\n';
      match it with
      | Item.Atom a -> Buffer.add_string buf (Atomic.to_string a)
      | Item.Node n -> add_node_indented buf 0 n)
    s;
  Buffer.contents buf

let sequence_to_file path s =
  let oc = open_out_bin path in
  output_string oc (sequence_to_string s);
  close_out oc
