(* A small, fast, non-validating XML parser sufficient for the paper's
   workloads (XMark and DBLP-style documents): elements, attributes,
   character data with the five predefined entities, numeric character
   references, comments, processing instructions, CDATA sections, and an
   optional XML declaration.  Namespace declarations are kept as plain
   attributes; a DOCTYPE (internal subset included) is skipped.

   The parser is one left-to-right scan that builds the tree top-down in
   document order — document loading dominates optimized query time in
   the paper (Section 7), and the same holds here:

   - Each node is created when its start tag, text, comment or PI is
     scanned, with its final preorder id, and attached to the element on
     top of an explicit stack (no recursion per nesting level).  An
     element's [extent] is set when its end tag closes it, so the tree
     comes out numbered exactly as [Node.renumber] would number it, with
     no second walk.
   - All of a document's ids come from one block reserved up front:
     every node but the document node consumes at least one input byte,
     so [String.length src + 1] ids always suffice.  The unused tail is
     handed back when no other domain drew ids in between.
   - Lookahead compares characters in place; text and attribute values
     are one [String.sub] unless they contain a reference; element and
     attribute names are interned per document, and an end tag is
     checked against its start tag's name in place. *)

exception Parse_error of { position : int; message : string }

let error pos fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { position = pos; message })) fmt

type state = { src : string; mutable pos : int; len : int }

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

(* [src.[i ..]] starts with [s], without reading at or past [len];
   no allocation. *)
let matches src len i s =
  let n = String.length s in
  i + n <= len
  &&
  let k = ref 0 in
  while !k < n && String.unsafe_get src (i + !k) = String.unsafe_get s !k do incr k done;
  !k = n

(* End of the name starting at [i], or an error if none starts there. *)
let name_end src len i =
  if i >= len then error i "expected a name, found end of input";
  if not (is_name_start src.[i]) then error i "expected a name, found %C" src.[i];
  let j = ref (i + 1) in
  while !j < len && is_name_char (String.unsafe_get src !j) do incr j done;
  !j

(* ------------------------------------------------------------------ *)
(* References                                                          *)
(* ------------------------------------------------------------------ *)

let digit_value ~hex = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c when hex -> Char.code c - 87
  | 'A' .. 'F' as c when hex -> Char.code c - 55
  | _ -> -1

(* XML 1.0 [Char]: the code points a character reference may denote. *)
let is_xml_char c =
  c = 0x9 || c = 0xA || c = 0xD
  || (c >= 0x20 && c <= 0xD7FF)
  || (c >= 0xE000 && c <= 0xFFFD)
  || (c >= 0x10000 && c <= 0x10FFFF)

(* Decode the reference at [src.[i] = '&'] into [buf]; returns the
   position past its ';'.  Character references follow XML's [CharRef]
   ('&#' digits ';' or '&#x' hex digits ';') and must denote a [Char]. *)
let add_reference buf src len i =
  let j = i + 1 in
  if j < len && src.[j] = '#' then begin
    let hex = j + 1 < len && src.[j + 1] = 'x' in
    let radix = if hex then 16 else 10 in
    let first = if hex then j + 2 else j + 1 in
    let k = ref first and code = ref 0 in
    while !k < len && digit_value ~hex src.[!k] >= 0 do
      (* saturate past the largest code point so huge literals cannot wrap *)
      code := min 0x110000 ((!code * radix) + digit_value ~hex src.[!k]);
      incr k
    done;
    if !k = first || !k >= len || src.[!k] <> ';' || not (is_xml_char !code) then
      error i "malformed character reference %s"
        (String.sub src i (min (!k - i + 1) (len - i)));
    Buffer.add_utf_8_uchar buf (Uchar.of_int !code);
    !k + 1
  end
  else begin
    let e = if j < len && is_name_start src.[j] then name_end src len j else j in
    if e >= len || src.[e] <> ';' then error i "unterminated entity reference";
    let is s = e - j = String.length s && matches src len j s in
    if is "lt" then Buffer.add_char buf '<'
    else if is "gt" then Buffer.add_char buf '>'
    else if is "amp" then Buffer.add_char buf '&'
    else if is "quot" then Buffer.add_char buf '"'
    else if is "apos" then Buffer.add_char buf '\''
    else error i "unknown entity &%s;" (String.sub src j (e - j));
    e + 1
  end

let decode_entity st =
  let buf = Buffer.create 4 in
  st.pos <- add_reference buf st.src st.len st.pos;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Per-document name table                                             *)
(* ------------------------------------------------------------------ *)

(* One string per distinct qname per document, so the tree holds one
   copy of each name instead of one per tag.  [last_owner] is the id of
   the last element that carried the name as an attribute, which makes
   the duplicate-attribute check O(1) per attribute. *)
type name = { qname : string; mutable last_owner : int }

let intern names src i j =
  let s = String.sub src i (j - i) in
  match Hashtbl.find names s with
  | n -> n
  | exception Not_found ->
      let n = { qname = s; last_owner = 0 } in
      Hashtbl.add names s n;
      n

(* ------------------------------------------------------------------ *)
(* The scan                                                            *)
(* ------------------------------------------------------------------ *)

type parser = {
  st : state;
  names : (string, name) Hashtbl.t;
  buf : Buffer.t;  (* values holding a reference *)
  mutable next_id : int;
  (* The open elements, document node at the bottom.  Each entry is the
     [Some node] every child shares as its parent pointer.  An open
     node's children are kept newest first until it closes. *)
  mutable open_ : Node.t option array;
  mutable depth : int;
}

let fresh_id p =
  let id = p.next_id in
  p.next_id <- id + 1;
  id

let leaf p parent desc = { Node.nid = fresh_id p; parent; extent = 1; desc }

let add_child p c =
  match p.open_.(p.depth - 1) with
  | Some { desc = Node.Element r; _ } -> r.children <- c :: r.children
  | Some { desc = Node.Document d; _ } -> d.dchildren <- c :: d.dchildren
  | _ -> assert false

let parent_of p = p.open_.(p.depth - 1)

let node_of = function Some n -> n | None -> assert false

(* Position of the next [marker] at or after [i]. *)
let find p i marker =
  let { src; len; _ } = p.st in
  let c0 = marker.[0] in
  let rec go i =
    if i >= len then error p.st.pos "unterminated construct (expected %S)" marker
    else if String.unsafe_get src i = c0 && matches src len i marker then i
    else go (i + 1)
  in
  go i

let skip_ws p =
  let st = p.st in
  while st.pos < st.len && is_ws (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done

(* Character data up to the next [stop] byte (or '<' when [stop] is
   '<'); one [String.sub] unless a reference occurs.  A '<' inside an
   attribute value is an error. *)
let scan_value p stop =
  let st = p.st in
  let { src; len; _ } = st in
  let start = st.pos in
  let i = ref start in
  while !i < len && (let c = String.unsafe_get src !i in c <> stop && c <> '<' && c <> '&') do
    incr i
  done;
  if !i < len && src.[!i] = '&' then begin
    let buf = p.buf in
    Buffer.clear buf;
    Buffer.add_substring buf src start (!i - start);
    while !i < len && src.[!i] = '&' do
      i := add_reference buf src len !i;
      let run = !i in
      while !i < len && (let c = String.unsafe_get src !i in c <> stop && c <> '<' && c <> '&') do
        incr i
      done;
      Buffer.add_substring buf src run (!i - run)
    done;
    st.pos <- !i;
    Buffer.contents buf
  end
  else begin
    st.pos <- !i;
    String.sub src start (!i - start)
  end

let attribute_value p =
  let st = p.st in
  let quote =
    if st.pos >= st.len then error st.pos "unexpected end of input in attribute value"
    else
      match st.src.[st.pos] with
      | ('"' | '\'') as q -> q
      | c -> error st.pos "expected quoted attribute value, found %C" c
  in
  st.pos <- st.pos + 1;
  let v = scan_value p quote in
  if st.pos >= st.len then error st.pos "unterminated attribute value";
  if st.src.[st.pos] = '<' then error st.pos "'<' in attribute value";
  st.pos <- st.pos + 1;
  v

let set_attrs e acc =
  match e.Node.desc with
  | Node.Element r -> if acc <> [] then r.attrs <- List.rev acc
  | _ -> assert false

(* The attributes of start tag [e] (whose [Some e] is [self]), up to
   its closing ">" (returns [false]) or "/>" (returns [true]). *)
let rec attributes p e self ename acc =
  let st = p.st in
  let { src; len; _ } = st in
  let before = st.pos in
  skip_ws p;
  if st.pos >= len then error st.pos "unexpected end of input in start tag <%s>" ename;
  match src.[st.pos] with
  | '>' -> st.pos <- st.pos + 1; set_attrs e acc; false
  | '/' when st.pos + 1 < len && src.[st.pos + 1] = '>' -> st.pos <- st.pos + 2; set_attrs e acc; true
  | c when is_name_start c && st.pos > before ->
      let a0 = st.pos in
      let a1 = name_end src len a0 in
      let n = intern p.names src a0 a1 in
      let aname = n.qname in
      if n.last_owner = e.Node.nid then error a0 "duplicate attribute %s in <%s>" aname ename;
      n.last_owner <- e.Node.nid;
      st.pos <- a1;
      skip_ws p;
      if st.pos >= len || src.[st.pos] <> '=' then
        error st.pos "expected '=' after attribute name %s" aname;
      st.pos <- st.pos + 1;
      skip_ws p;
      let avalue = attribute_value p in
      attributes p e self ename (leaf p self (Node.Attribute { aname; avalue; aannot = None }) :: acc)
  | _ -> error st.pos "malformed start tag for <%s>" ename

(* At '<' + name: create the element, its attributes, and either close
   it ("/>") or push it on the open stack (">"). *)
let start_tag p =
  let st = p.st in
  let i = st.pos + 1 in
  let j = name_end st.src st.len i in
  let ename = (intern p.names st.src i j).qname in
  st.pos <- j;
  let e =
    { Node.nid = fresh_id p; parent = parent_of p; extent = 0;
      desc = Node.Element { ename; attrs = []; children = []; eannot = None } }
  in
  add_child p e;
  let self = Some e in
  if attributes p e self ename [] then e.extent <- p.next_id - e.nid
  else begin
    if p.depth = Array.length p.open_ then begin
      p.open_ <- Array.append p.open_ (Array.make p.depth None)
    end;
    p.open_.(p.depth) <- self;
    p.depth <- p.depth + 1
  end

(* At "</": close the innermost open element. *)
let end_tag p =
  let st = p.st in
  let { src; len; _ } = st in
  let e = node_of (parent_of p) in
  let ename = match e.desc with Node.Element r -> r.ename | _ -> assert false in
  let i = st.pos + 2 in
  let j = i + String.length ename in
  if not (matches src len i ename && (j >= len || not (is_name_char src.[j]))) then begin
    let j = name_end src len i in
    error i "mismatched end tag </%s> for <%s>" (String.sub src i (j - i)) ename
  end;
  st.pos <- j;
  skip_ws p;
  if st.pos >= len || src.[st.pos] <> '>' then error st.pos "malformed end tag </%s>" ename;
  st.pos <- st.pos + 1;
  p.depth <- p.depth - 1;
  (match e.desc with
  | Node.Element r -> r.children <- List.rev r.children
  | _ -> assert false);
  e.extent <- p.next_id - e.nid

(* At "<!--", "<?" or "<![CDATA[": the body up to [close], as a node. *)
let markup p ~skip ~close make =
  let st = p.st in
  let b = st.pos + skip in
  let e = find p b close in
  st.pos <- e + String.length close;
  add_child p (leaf p (parent_of p) (make (String.sub st.src b (e - b))))

let pi p =
  let st = p.st in
  let { src; len; _ } = st in
  let i = st.pos + 2 in
  let j = name_end src len i in
  let target = String.sub src i (j - i) in
  if String.lowercase_ascii target = "xml" then error st.pos "XML declaration not at the start of the document";
  st.pos <- j;
  skip_ws p;
  markup p ~skip:0 ~close:"?>" (fun pdata -> Node.Pi { target; pdata })

(* At "<!DOCTYPE": skip to its closing '>', past any internal subset and
   quoted literals. *)
let skip_doctype p =
  let st = p.st in
  let { src; len; _ } = st in
  let rec go i bracket =
    if i >= len then error st.pos "unterminated DOCTYPE"
    else
      match src.[i] with
      | '[' -> go (i + 1) true
      | ']' -> go (i + 1) false
      | '>' when not bracket -> i + 1
      | ('"' | '\'') as q -> (
          match String.index_from_opt src (i + 1) q with
          | Some k -> go (k + 1) bracket
          | None -> error i "unterminated literal in DOCTYPE")
      | _ -> go (i + 1) bracket
  in
  st.pos <- go st.pos false

let scan p =
  let st = p.st in
  let { src; len; _ } = st in
  let seen_root = ref false in
  skip_ws p;
  if matches src len st.pos "<?xml" && st.pos + 5 < len && (is_ws src.[st.pos + 5] || src.[st.pos + 5] = '?')
  then st.pos <- find p st.pos "?>" + 2;
  while st.pos < len do
    let c = String.unsafe_get src st.pos in
    if c <> '<' then begin
      if p.depth > 1 then add_child p (leaf p (parent_of p) (Node.Text (scan_value p '<')))
      else begin
        skip_ws p;
        if st.pos < len && src.[st.pos] <> '<' then
          error st.pos "character data outside the root element"
      end
    end
    else if st.pos + 1 >= len then error st.pos "unexpected end of input after '<'"
    else
      match src.[st.pos + 1] with
      | '/' ->
          if p.depth = 1 then error st.pos "end tag outside the root element";
          end_tag p
      | '?' -> pi p
      | '!' ->
          if matches src len st.pos "<!--" then markup p ~skip:4 ~close:"-->" (fun s -> Node.Comment s)
          else if matches src len st.pos "<![CDATA[" then begin
            if p.depth = 1 then error st.pos "CDATA section outside the root element";
            markup p ~skip:9 ~close:"]]>" (fun s -> Node.Text s)
          end
          else if p.depth = 1 && (not !seen_root) && matches src len st.pos "<!DOCTYPE" then skip_doctype p
          else error st.pos "unexpected markup declaration"
      | _ ->
          if p.depth = 1 then begin
            if !seen_root then error st.pos "document has more than one root element";
            seen_root := true
          end;
          start_tag p
  done;
  if p.depth > 1 then begin
    let e = node_of (parent_of p) in
    error len "unterminated element <%s>" (Option.value (Node.name e) ~default:"")
  end;
  if not !seen_root then error 0 "document has no root element"

let parse_string ?uri (src : string) : Node.t =
  let len = String.length src in
  let reserved = len + 1 in
  let first = Node.reserve_ids reserved in
  let doc =
    { Node.nid = first; parent = None; extent = 0;
      desc = Node.Document { dchildren = []; duri = uri } }
  in
  let p =
    {
      st = { src; pos = 0; len };
      names = Hashtbl.create 64;
      buf = Buffer.create 64;
      next_id = first + 1;
      open_ = Array.make 16 None;
      depth = 1;
    }
  in
  p.open_.(0) <- Some doc;
  Fun.protect
    ~finally:(fun () -> Node.release_ids ~from:p.next_id ~until:(first + reserved))
    (fun () -> scan p);
  (match doc.desc with
  | Node.Document d -> d.dchildren <- List.rev d.dchildren
  | _ -> assert false);
  doc.extent <- p.next_id - first;
  doc

let parse_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse_string ~uri:path s
