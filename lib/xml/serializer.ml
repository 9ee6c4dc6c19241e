(* XML serialization (the Serialize operator of Table 1) and sequence
   serialization per the XQuery serialization rules: adjacent atomic values
   are separated by a single space; nodes serialize as markup.

   One writer, in two walks over the same items: the size walk
   ([*_size]) counts the exact bytes of the output, escapes included, and
   the write walk ([write_*]) fills a buffer of exactly that size.
   Nothing grows and nothing is copied at the end, and a size walk given
   a limit stops as soon as the count passes it, before any of the
   output is allocated. *)

exception Too_large of int

(* The entity reference a special byte of text ([attr = false]) or of an
   attribute value ([attr = true]) is written as, or [""] when the byte
   is written as itself there.  Only '<', '>', '&' and '"' can be
   special; the loops below test for those inline and call this for
   them alone. *)
let entity ~attr = function
  | '<' -> "&lt;"
  | '&' -> "&amp;"
  | '>' when not attr -> "&gt;"
  | '"' when attr -> "&quot;"
  | _ -> ""

let escaped_size ~attr s =
  let n = ref (String.length s) in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | ('<' | '>' | '&' | '"') as c ->
        let e = String.length (entity ~attr c) in
        if e > 0 then n := !n + e - 1
    | _ -> ()
  done;
  !n

(* name="value" *)
let attribute_size name value = String.length name + 3 + escaped_size ~attr:true value

(* " name=\"value\"" per attribute *)
let rec attrs_size acc = function
  | [] -> acc
  | (a : Node.t) :: rest -> (
      match a.Node.desc with
      | Node.Attribute at -> attrs_size (acc + 1 + attribute_size at.aname at.avalue) rest
      | Node.Document _ | Node.Element _ | Node.Text _ | Node.Comment _ | Node.Pi _ ->
          attrs_size acc rest)

(* "<name" and its attributes, without the closing ">" or "/>" *)
let start_tag_size name attrs = attrs_size (1 + String.length name) attrs

(* The lists are walked by direct recursion, here and in the write
   walk, so no closure is allocated per element. *)
let rec node_size limit acc (n : Node.t) =
  let acc =
    match n.Node.desc with
    | Node.Document d -> nodes_size limit acc d.dchildren
    | Node.Element e ->
        let acc = acc + start_tag_size e.ename e.attrs in
        if e.children = [] then acc + 2
        else nodes_size limit (acc + 1) e.children + 3 + String.length e.ename
    | Node.Attribute a -> acc + attribute_size a.aname a.avalue
    | Node.Text s -> acc + escaped_size ~attr:false s
    | Node.Comment s -> acc + String.length s + 7
    | Node.Pi p -> acc + String.length p.target + String.length p.pdata + 5
  in
  if acc > limit then raise (Too_large acc);
  acc

and nodes_size limit acc = function
  | [] -> acc
  | n :: rest -> nodes_size limit (node_size limit acc n) rest

let sequence_size ?(limit = max_int) (s : Item.sequence) =
  let rec go acc prev_atom = function
    | [] -> acc
    | Item.Atom a :: rest ->
        let sep = if prev_atom then 1 else 0 in
        let acc = acc + sep + escaped_size ~attr:false (Atomic.to_string a) in
        if acc > limit then raise (Too_large acc);
        go acc true rest
    | Item.Node n :: rest -> go (node_size limit acc n) false rest
  in
  go 0 false s

(* The write walk's cursor into the buffer the size walk measured. *)
type out = { buf : Bytes.t; mutable pos : int }

let write_sub o s start len =
  Bytes.blit_string s start o.buf o.pos len;
  o.pos <- o.pos + len

let write_string o s = write_sub o s 0 (String.length s)

let write_char o c =
  Bytes.set o.buf o.pos c;
  o.pos <- o.pos + 1

(* Runs of ordinary bytes are blitted whole; a special byte is written
   as its entity reference. *)
let write_escaped ~attr o s =
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | ('<' | '>' | '&' | '"') as c ->
        let ent = entity ~attr c in
        if String.length ent > 0 then begin
          write_sub o s !start (i - !start);
          write_string o ent;
          start := i + 1
        end
    | _ -> ()
  done;
  write_sub o s !start (String.length s - !start)

let write_attribute o name value =
  write_string o name;
  write_string o "=\"";
  write_escaped ~attr:true o value;
  write_char o '"'

let rec write_attrs o = function
  | [] -> ()
  | (a : Node.t) :: rest ->
      (match a.Node.desc with
      | Node.Attribute at ->
          write_char o ' ';
          write_attribute o at.aname at.avalue
      | Node.Document _ | Node.Element _ | Node.Text _ | Node.Comment _ | Node.Pi _ -> ());
      write_attrs o rest

let write_start_tag o name attrs =
  write_char o '<';
  write_string o name;
  write_attrs o attrs

let rec write_node o (n : Node.t) =
  match n.Node.desc with
  | Node.Document d -> write_nodes o d.dchildren
  | Node.Element e ->
      write_start_tag o e.ename e.attrs;
      if e.children = [] then write_string o "/>"
      else (
        write_char o '>';
        write_nodes o e.children;
        write_string o "</";
        write_string o e.ename;
        write_char o '>')
  | Node.Attribute a ->
      (* A top-level attribute serializes as name="value" (non-standard but
         useful for debugging output). *)
      write_attribute o a.aname a.avalue
  | Node.Text s -> write_escaped ~attr:false o s
  | Node.Comment s ->
      write_string o "<!--";
      write_string o s;
      write_string o "-->"
  | Node.Pi p ->
      write_string o "<?";
      write_string o p.target;
      write_char o ' ';
      write_string o p.pdata;
      write_string o "?>"

and write_nodes o = function
  | [] -> ()
  | n :: rest ->
      write_node o n;
      write_nodes o rest

let write_sequence o (s : Item.sequence) =
  let rec go prev_atom = function
    | [] -> ()
    | Item.Atom a :: rest ->
        if prev_atom then write_char o ' ';
        write_escaped ~attr:false o (Atomic.to_string a);
        go true rest
    | Item.Node n :: rest ->
        write_node o n;
        go false rest
  in
  go false s

(* A string of exactly [size] bytes, filled by [write]. *)
let render size write =
  let o = { buf = Bytes.create size; pos = 0 } in
  write o;
  assert (o.pos = size);
  Bytes.unsafe_to_string o.buf

let node_to_string n = render (node_size max_int 0 n) (fun o -> write_node o n)

let sequence_to_string ?limit (s : Item.sequence) =
  render (sequence_size ?limit s) (fun o -> write_sequence o s)

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
      if mixed || e.children = [] then Buffer.add_string buf (node_to_string n)
      else (
        Buffer.add_string buf
          (render (start_tag_size e.ename e.attrs) (fun o -> write_start_tag o e.ename e.attrs));
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
      Buffer.add_string buf (node_to_string n)

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
