(* The built-in function library: fn: (user-visible), op: (operators
   introduced by normalization) and fs: (formal-semantics helpers).  The
   paper notes that a number of built-in functions are required for
   completeness (fn:data etc.); this module is the algebra context's
   function table for all of them. *)

open Xqc_xml
open Xqc_types
open Dynamic_ctx

let err = dynamic_error

(* ------------------------------------------------------------------ *)
(* Small helpers over sequences                                        *)
(* ------------------------------------------------------------------ *)

let boolean b : xvalue = [ Item.Atom (Atomic.Boolean b) ]
let integer i : xvalue = [ Item.Atom (Atomic.Integer i) ]
let double f : xvalue = [ Item.Atom (Atomic.Double f) ]
let string_v s : xvalue = [ Item.Atom (Atomic.String s) ]

let one_arg name = function
  | [ x ] -> x
  | args -> err "%s expects 1 argument, got %d" name (List.length args)

let two_args name = function
  | [ x; y ] -> (x, y)
  | args -> err "%s expects 2 arguments, got %d" name (List.length args)

let singleton_atom name (s : xvalue) : Atomic.t =
  match Item.atomize s with
  | [ a ] -> a
  | [] -> err "%s: empty sequence where a single value is required" name
  | _ -> err "%s: more than one item where a single value is required" name

let string_of_arg name (s : xvalue) : string =
  match s with
  | [] -> ""
  | [ it ] -> Item.string_value it
  | _ -> err "%s: singleton string argument required" name

(* Numeric view with XQuery promotion: atomize, untyped -> double. *)
let numeric_atom name (a : Atomic.t) : Atomic.t =
  match a with
  | Atomic.Integer _ | Atomic.Decimal _ | Atomic.Float _ | Atomic.Double _ -> a
  | Atomic.Untyped _ -> (
      try Atomic.cast Atomic.T_double a
      with Atomic.Cast_error _ -> err "%s: cannot convert %S to a number" name (Atomic.to_string a))
  | Atomic.String _ | Atomic.Boolean _ | Atomic.Any_uri _ | Atomic.Qname _
  | Atomic.Other _ ->
      err "%s: non-numeric operand %s" name (Atomic.to_string a)

(* Binary arithmetic with the spec's promotion rules: the result type is
   the least common type in the numeric tower. *)
let arith name fint ffloat (xs : xvalue) (ys : xvalue) : xvalue =
  match (Item.atomize xs, Item.atomize ys) with
  | [], _ | _, [] -> []
  | [ x ], [ y ] -> (
      let x = numeric_atom name x and y = numeric_atom name y in
      match (x, y) with
      | Atomic.Integer a, Atomic.Integer b -> (
          match fint with
          | Some f -> integer (f a b)
          | None ->
              (* integer division produces a decimal *)
              [ Item.Atom (Atomic.Decimal (ffloat (float_of_int a) (float_of_int b))) ])
      | _ ->
          let fx = Option.get (Atomic.to_float x)
          and fy = Option.get (Atomic.to_float y) in
          let result = ffloat fx fy in
          let mk =
            match (x, y) with
            | Atomic.Double _, _ | _, Atomic.Double _ -> fun f -> Atomic.Double f
            | Atomic.Float _, _ | _, Atomic.Float _ -> fun f -> Atomic.Float f
            | _ -> fun f -> Atomic.Decimal f
          in
          [ Item.Atom (mk result) ])
  | _ -> err "%s: arithmetic on non-singleton sequences" name

(* A canonical string key under which two general-comparison-equal atomics
   collide; used by fn:distinct-values. *)
let distinct_key (a : Atomic.t) : string =
  match Atomic.to_float a with
  | Some f when not (Float.is_nan f) -> Printf.sprintf "N%h" f
  | Some _ -> "NaN"
  | None -> (
      match a with
      | Atomic.Boolean b -> if b then "Btrue" else "Bfalse"
      | _ -> "S" ^ Atomic.to_string a)

let aggregate name fold_empty fold (s : xvalue) : xvalue =
  match Item.atomize s with
  | [] -> fold_empty
  | first :: rest ->
      let first = numeric_atom name first in
      let v =
        List.fold_left
          (fun acc a -> fold acc (numeric_atom name a))
          first rest
      in
      [ Item.Atom v ]

(* Combine two numeric atomics, producing a result of the widest of the
   two types (the promotion rule for arithmetic and aggregates). *)
let widest_type (a : Atomic.t) (b : Atomic.t) (r : float) : Atomic.t =
  match (a, b) with
  | Atomic.Double _, _ | _, Atomic.Double _ -> Atomic.Double r
  | Atomic.Float _, _ | _, Atomic.Float _ -> Atomic.Float r
  | _ -> Atomic.Decimal r

let add_atoms (a : Atomic.t) (b : Atomic.t) : Atomic.t =
  match (a, b) with
  | Atomic.Integer x, Atomic.Integer y -> Atomic.Integer (x + y)
  | _ ->
      widest_type a b
        (Option.get (Atomic.to_float a) +. Option.get (Atomic.to_float b))

let pick_atom keep_left (a : Atomic.t) (b : Atomic.t) : Atomic.t =
  let fa = Option.get (Atomic.to_float a) and fb = Option.get (Atomic.to_float b) in
  let winner = if keep_left fa fb then a else b in
  match (a, b) with
  | Atomic.Integer _, Atomic.Integer _ -> winner
  | _ -> widest_type a b (Option.get (Atomic.to_float winner))

(* Structural deep equality between two nodes (fn:deep-equal): same kind
   and name, equal attribute sets, pairwise deep-equal children. *)
let rec deep_node_equal (a : Node.t) (b : Node.t) : bool =
  Node.kind a = Node.kind b
  && Node.name a = Node.name b
  && (match (a.Node.desc, b.Node.desc) with
     | Node.Text s1, Node.Text s2 -> String.equal s1 s2
     | Node.Comment s1, Node.Comment s2 -> String.equal s1 s2
     | Node.Attribute a1, Node.Attribute a2 -> String.equal a1.avalue a2.avalue
     | Node.Pi p1, Node.Pi p2 -> String.equal p1.pdata p2.pdata
     | _ ->
         let attrs n =
           List.sort compare
             (List.filter_map
                (fun at ->
                  match at.Node.desc with
                  | Node.Attribute r -> Some (r.aname, r.avalue)
                  | _ -> None)
                (Node.attributes n))
         in
         attrs a = attrs b
         && List.length (Node.children a) = List.length (Node.children b)
         && List.for_all2 deep_node_equal (Node.children a) (Node.children b))

let deep_item_equal (i : Item.t) (j : Item.t) : bool =
  match (i, j) with
  | Item.Atom a, Item.Atom b -> (
      try
        Atomic.equal_same_type (Promotion.convert_operand a b)
          (Promotion.convert_operand b a)
      with Promotion.Type_mismatch _ | Atomic.Cast_error _ -> false)
  | Item.Node a, Item.Node b -> deep_node_equal a b
  | _ -> false

(* Nodes only, in document order; dynamic error on atomics. *)
let nodes_of name (s : xvalue) : Node.t list =
  List.map
    (function
      | Item.Node n -> n
      | Item.Atom _ -> err "%s: atomic value where a node is required" name)
    s

(* ------------------------------------------------------------------ *)
(* The function table                                                  *)
(* ------------------------------------------------------------------ *)

let general op _ctx args =
  let x, y = two_args "general comparison" args in
  boolean (Promotion.general_compare op x y)

let value_cmp op _ctx args =
  let x, y = two_args "value comparison" args in
  match Promotion.value_compare op x y with None -> [] | Some b -> boolean b

let node_pair name args =
  let x, y = two_args name args in
  match (x, y) with
  | [], _ | _, [] -> None
  | [ Item.Node a ], [ Item.Node b ] -> Some (a, b)
  | _ -> err "%s: operands must be single nodes" name

(* fn:subsequence over 1-based positions: the items at positions p with
   round(start) <= p < round(start) + round(len) (no upper bound without
   [len]), [round] as fn:round, compared as floats, so a NaN bound
   selects nothing and an infinite length runs to the end.  Both bounds
   are whole after rounding, so the selection is a drop and a take, and
   [s] is pulled no further than the last selected position. *)
let subsequence (start : float) (len : float option) (s : 'a Seq.t) : 'a Seq.t =
  let round x = Float.floor (x +. 0.5) in
  let lo = round start in
  let hi = match len with Some l -> lo +. round l | None -> Float.infinity in
  let first = Float.max 1. lo in
  if Float.is_nan lo || Float.is_nan hi || hi <= first then Seq.empty
  else
    let count x = if x >= Float.of_int max_int then max_int else int_of_float x in
    let s = Seq.drop (count first - 1) s in
    if hi = Float.infinity then s else Seq.take (count (hi -. first)) s

let table : (string * (Dynamic_ctx.t -> xvalue list -> xvalue)) list =
  [
    (* --- boolean --- *)
    ("fn:boolean", fun _ args -> boolean (Item.effective_boolean_value (one_arg "fn:boolean" args)));
    ("fn:not", fun _ args -> boolean (not (Item.effective_boolean_value (one_arg "fn:not" args))));
    ("fn:true", fun _ _ -> boolean true);
    ("fn:false", fun _ _ -> boolean false);
    (* --- sequences --- *)
    ("fn:count", fun _ args -> integer (List.length (one_arg "fn:count" args)));
    ("fn:empty", fun _ args -> boolean (one_arg "fn:empty" args = []));
    ("fn:exists", fun _ args -> boolean (one_arg "fn:exists" args <> []));
    ("fn:data", fun _ args -> List.map (fun a -> Item.Atom a) (Item.atomize (one_arg "fn:data" args)));
    ("fn:reverse", fun _ args -> List.rev (one_arg "fn:reverse" args));
    ( "fn:subsequence",
      fun _ args ->
        let f v =
          match Atomic.to_float (singleton_atom "fn:subsequence" v) with
          | Some x -> x
          | None -> err "fn:subsequence: position or length is not a number"
        in
        match args with
        | [ s; start ] -> List.of_seq (subsequence (f start) None (List.to_seq s))
        | [ s; start; len ] -> List.of_seq (subsequence (f start) (Some (f len)) (List.to_seq s))
        | _ -> err "fn:subsequence expects 2 or 3 arguments" );
    ( "fn:insert-before",
      fun _ args ->
        match args with
        | [ s; pos; ins ] ->
            let p = max 1 (int_of_float (Option.value ~default:1.0 (Atomic.to_float (singleton_atom "fn:insert-before" pos)))) in
            let rec go i = function
              | [] -> ins
              | x :: rest when i < p -> x :: go (i + 1) rest
              | rest -> ins @ rest
            in
            go 1 s
        | _ -> err "fn:insert-before expects 3 arguments" );
    ( "fn:remove",
      fun _ args ->
        let s, pos = two_args "fn:remove" args in
        let p = int_of_float (Option.value ~default:0.0 (Atomic.to_float (singleton_atom "fn:remove" pos))) in
        List.filteri (fun i _ -> i + 1 <> p) s );
    ( "fn:exactly-one",
      fun _ args ->
        match one_arg "fn:exactly-one" args with
        | [ x ] -> [ x ]
        | _ -> err "fn:exactly-one: sequence is not a singleton" );
    ( "fn:zero-or-one",
      fun _ args ->
        match one_arg "fn:zero-or-one" args with
        | ([] | [ _ ]) as s -> s
        | _ -> err "fn:zero-or-one: more than one item" );
    ( "fn:one-or-more",
      fun _ args ->
        match one_arg "fn:one-or-more" args with
        | [] -> err "fn:one-or-more: empty sequence"
        | s -> s );
    ( "fn:distinct-values",
      fun _ args ->
        let seen = Hashtbl.create 16 in
        List.filter_map
          (fun a ->
            let k = distinct_key a in
            if Hashtbl.mem seen k then None
            else (
              Hashtbl.add seen k ();
              Some (Item.Atom a)))
          (Item.atomize (one_arg "fn:distinct-values" args)) );
    (* --- aggregates --- *)
    ( "fn:sum",
      fun _ args -> aggregate "fn:sum" (integer 0) add_atoms (one_arg "fn:sum" args) );
    ( "fn:avg",
      fun _ args ->
        match Item.atomize (one_arg "fn:avg" args) with
        | [] -> []
        | atoms ->
            let n = List.length atoms in
            let total =
              List.fold_left
                (fun acc a ->
                  match Atomic.to_float (numeric_atom "fn:avg" a) with
                  | Some f -> acc +. f
                  | None -> err "fn:avg: non-numeric value")
                0.0 atoms
            in
            double (total /. float_of_int n) );
    ( "fn:min",
      fun _ args ->
        aggregate "fn:min" [] (pick_atom (fun a b -> a <= b)) (one_arg "fn:min" args) );
    ( "fn:max",
      fun _ args ->
        aggregate "fn:max" [] (pick_atom (fun a b -> a >= b)) (one_arg "fn:max" args) );
    (* --- strings --- *)
    ( "fn:string",
      fun _ args ->
        match one_arg "fn:string" args with
        | [] -> string_v ""
        | [ it ] -> string_v (Item.string_value it)
        | _ -> err "fn:string: more than one item" );
    ( "fn:concat",
      fun _ args ->
        string_v (String.concat "" (List.map (string_of_arg "fn:concat") args)) );
    ( "fn:string-join",
      fun _ args ->
        let s, sep = two_args "fn:string-join" args in
        let sep = string_of_arg "fn:string-join" sep in
        string_v (String.concat sep (List.map Item.string_value s)) );
    ( "fn:string-length",
      fun _ args ->
        integer (String.length (string_of_arg "fn:string-length" (one_arg "fn:string-length" args))) );
    ( "fn:contains",
      fun _ args ->
        let x, y = two_args "fn:contains" args in
        let hay = string_of_arg "fn:contains" x and needle = string_of_arg "fn:contains" y in
        let n = String.length needle and h = String.length hay in
        let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
        boolean (n = 0 || scan 0) );
    ( "fn:starts-with",
      fun _ args ->
        let x, y = two_args "fn:starts-with" args in
        let hay = string_of_arg "fn:starts-with" x and p = string_of_arg "fn:starts-with" y in
        boolean (String.length p <= String.length hay && String.sub hay 0 (String.length p) = p) );
    ( "fn:ends-with",
      fun _ args ->
        let x, y = two_args "fn:ends-with" args in
        let hay = string_of_arg "fn:ends-with" x and p = string_of_arg "fn:ends-with" y in
        let lh = String.length hay and lp = String.length p in
        boolean (lp <= lh && String.sub hay (lh - lp) lp = p) );
    ( "fn:substring",
      fun _ args ->
        match args with
        | [ s; start ] | [ s; start; _ ] ->
            let str = string_of_arg "fn:substring" s in
            let sf = Option.value ~default:1.0 (Atomic.to_float (singleton_atom "fn:substring" start)) in
            let st = int_of_float (Float.round sf) in
            let len =
              match args with
              | [ _; _; l ] ->
                  int_of_float (Float.round (Option.value ~default:0.0 (Atomic.to_float (singleton_atom "fn:substring" l))))
              | _ -> String.length str
            in
            let from = max 0 (st - 1) in
            let until = min (String.length str) (st - 1 + len) in
            if until <= from then string_v ""
            else string_v (String.sub str from (until - from))
        | _ -> err "fn:substring expects 2 or 3 arguments" );
    ( "fn:upper-case",
      fun _ args ->
        string_v (String.uppercase_ascii (string_of_arg "fn:upper-case" (one_arg "fn:upper-case" args))) );
    ( "fn:lower-case",
      fun _ args ->
        string_v (String.lowercase_ascii (string_of_arg "fn:lower-case" (one_arg "fn:lower-case" args))) );
    ( "fn:normalize-space",
      fun _ args ->
        let s = string_of_arg "fn:normalize-space" (one_arg "fn:normalize-space" args) in
        let words =
          String.split_on_char ' ' (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s)
        in
        string_v (String.concat " " (List.filter (fun w -> w <> "") words)) );
    ( "fn:translate",
      fun _ args ->
        match args with
        | [ s; from; to_ ] ->
            let s = string_of_arg "fn:translate" s
            and from = string_of_arg "fn:translate" from
            and to_ = string_of_arg "fn:translate" to_ in
            let buf = Buffer.create (String.length s) in
            String.iter
              (fun c ->
                match String.index_opt from c with
                | None -> Buffer.add_char buf c
                | Some i -> if i < String.length to_ then Buffer.add_char buf to_.[i])
              s;
            string_v (Buffer.contents buf)
        | _ -> err "fn:translate expects 3 arguments" );
    (* --- numbers --- *)
    ( "fn:number",
      fun _ args ->
        match Item.atomize (one_arg "fn:number" args) with
        | [ a ] -> (
            match Atomic.to_float a with
            | Some f -> double f
            | None -> double Float.nan)
        | _ -> double Float.nan );
    ( "fn:round",
      fun _ args ->
        match Item.atomize (one_arg "fn:round" args) with
        | [] -> []
        | [ Atomic.Integer i ] -> integer i
        | [ a ] -> (
            match Atomic.to_float (numeric_atom "fn:round" a) with
            | Some f -> double (Float.round f)
            | None -> err "fn:round: non-numeric")
        | _ -> err "fn:round: non-singleton" );
    ( "fn:floor",
      fun _ args ->
        match Item.atomize (one_arg "fn:floor" args) with
        | [] -> []
        | [ Atomic.Integer i ] -> integer i
        | [ a ] -> double (Float.floor (Option.get (Atomic.to_float (numeric_atom "fn:floor" a))))
        | _ -> err "fn:floor: non-singleton" );
    ( "fn:ceiling",
      fun _ args ->
        match Item.atomize (one_arg "fn:ceiling" args) with
        | [] -> []
        | [ Atomic.Integer i ] -> integer i
        | [ a ] -> double (Float.ceil (Option.get (Atomic.to_float (numeric_atom "fn:ceiling" a))))
        | _ -> err "fn:ceiling: non-singleton" );
    ( "fn:abs",
      fun _ args ->
        match Item.atomize (one_arg "fn:abs" args) with
        | [] -> []
        | [ Atomic.Integer i ] -> integer (abs i)
        | [ a ] -> double (Float.abs (Option.get (Atomic.to_float (numeric_atom "fn:abs" a))))
        | _ -> err "fn:abs: non-singleton" );
    (* --- nodes --- *)
    ( "fn:name",
      fun _ args ->
        match one_arg "fn:name" args with
        | [] -> string_v ""
        | [ Item.Node n ] -> string_v (Option.value ~default:"" (Node.name n))
        | _ -> err "fn:name: argument must be a single node" );
    ( "fn:local-name",
      fun _ args ->
        match one_arg "fn:local-name" args with
        | [] -> string_v ""
        | [ Item.Node n ] ->
            let full = Option.value ~default:"" (Node.name n) in
            let local =
              match String.rindex_opt full ':' with
              | Some i -> String.sub full (i + 1) (String.length full - i - 1)
              | None -> full
            in
            string_v local
        | _ -> err "fn:local-name: argument must be a single node" );
    ( "fn:root",
      fun _ args ->
        match one_arg "fn:root" args with
        | [] -> []
        | [ Item.Node n ] -> [ Item.Node (Node.root n) ]
        | _ -> err "fn:root: argument must be a single node" );
    ( "fn:doc",
      fun ctx args ->
        let uri = string_of_arg "fn:doc" (one_arg "fn:doc" args) in
        [ Item.Node (resolve_document ctx uri) ] );
    ( "fn:collection",
      fun ctx args ->
        let name = string_of_arg "fn:collection" (one_arg "fn:collection" args) in
        List.map (fun d -> Item.Node d) (resolve_collection ctx name) );
    (* --- comparisons introduced by normalization --- *)
    ("op:general-eq", general Promotion.Eq);
    ("op:general-ne", general Promotion.Ne);
    ("op:general-lt", general Promotion.Lt);
    ("op:general-le", general Promotion.Le);
    ("op:general-gt", general Promotion.Gt);
    ("op:general-ge", general Promotion.Ge);
    ("op:eq", value_cmp Promotion.Eq);
    ("op:ne", value_cmp Promotion.Ne);
    ("op:lt", value_cmp Promotion.Lt);
    ("op:le", value_cmp Promotion.Le);
    ("op:gt", value_cmp Promotion.Gt);
    ("op:ge", value_cmp Promotion.Ge);
    ( "op:is-same-node",
      fun _ args ->
        match node_pair "op:is-same-node" args with
        | None -> []
        | Some (a, b) -> boolean (a == b) );
    ( "op:node-before",
      fun _ args ->
        match node_pair "op:node-before" args with
        | None -> []
        | Some (a, b) -> boolean (Node.doc_order_compare a b < 0) );
    ( "op:node-after",
      fun _ args ->
        match node_pair "op:node-after" args with
        | None -> []
        | Some (a, b) -> boolean (Node.doc_order_compare a b > 0) );
    (* --- arithmetic --- *)
    ( "op:add",
      fun _ args ->
        let x, y = two_args "op:add" args in
        arith "op:add" (Some ( + )) ( +. ) x y );
    ( "op:subtract",
      fun _ args ->
        let x, y = two_args "op:subtract" args in
        arith "op:subtract" (Some ( - )) ( -. ) x y );
    ( "op:multiply",
      fun _ args ->
        let x, y = two_args "op:multiply" args in
        arith "op:multiply" (Some ( * )) ( *. ) x y );
    ( "op:divide",
      fun _ args ->
        let x, y = two_args "op:divide" args in
        arith "op:divide" None ( /. ) x y );
    ( "op:integer-divide",
      fun _ args ->
        let x, y = two_args "op:integer-divide" args in
        arith "op:integer-divide"
          (Some (fun a b -> if b = 0 then err "op:integer-divide: division by zero" else a / b))
          (fun a b -> Float.of_int (int_of_float (a /. b)))
          x y );
    ( "op:mod",
      fun _ args ->
        let x, y = two_args "op:mod" args in
        arith "op:mod"
          (Some (fun a b -> if b = 0 then err "op:mod: division by zero" else a mod b))
          Float.rem x y );
    ( "op:unary-minus",
      fun _ args ->
        match Item.atomize (one_arg "op:unary-minus" args) with
        | [] -> []
        | [ a ] -> (
            match numeric_atom "op:unary-minus" a with
            | Atomic.Integer i -> integer (-i)
            | Atomic.Decimal f -> [ Item.Atom (Atomic.Decimal (-.f)) ]
            | Atomic.Float f -> [ Item.Atom (Atomic.Float (-.f)) ]
            | Atomic.Double f -> double (-.f)
            | _ -> err "op:unary-minus: non-numeric")
        | _ -> err "op:unary-minus: non-singleton" );
    ( "op:to",
      fun _ args ->
        let x, y = two_args "op:to" args in
        match (Item.atomize x, Item.atomize y) with
        | [], _ | _, [] -> []
        | [ a ], [ b ] ->
            let ia =
              match Atomic.cast Atomic.T_integer a with
              | Atomic.Integer i -> i
              | _ -> err "op:to: non-integer bound"
            and ib =
              match Atomic.cast Atomic.T_integer b with
              | Atomic.Integer i -> i
              | _ -> err "op:to: non-integer bound"
            in
            List.init (max 0 (ib - ia + 1)) (fun k -> Item.Atom (Atomic.Integer (ia + k)))
        | _ -> err "op:to: non-singleton bounds" );
    ( "op:union",
      fun _ args ->
        let x, y = two_args "op:union" args in
        let nodes = nodes_of "op:union" x @ nodes_of "op:union" y in
        List.map (fun n -> Item.Node n) (Node.sort_doc_order nodes) );
    ( "op:intersect",
      fun _ args ->
        let x, y = two_args "op:intersect" args in
        let right = nodes_of "op:intersect" y in
        let in_right n = List.exists (fun m -> m == n) right in
        List.map
          (fun n -> Item.Node n)
          (Node.sort_doc_order (List.filter in_right (nodes_of "op:intersect" x))) );
    ( "op:except",
      fun _ args ->
        let x, y = two_args "op:except" args in
        let right = nodes_of "op:except" y in
        let in_right n = List.exists (fun m -> m == n) right in
        List.map
          (fun n -> Item.Node n)
          (Node.sort_doc_order
             (List.filter (fun n -> not (in_right n)) (nodes_of "op:except" x))) );
    (* --- formal-semantics helpers --- *)
    ( "fs:predicate-truth",
      fun _ args ->
        let v, pos = two_args "fs:predicate-truth" args in
        match v with
        | [ Item.Atom a ] when Atomic.is_numeric a ->
            let p =
              match Item.atomize pos with
              | [ Atomic.Integer i ] -> i
              | _ -> err "fs:predicate-truth: bad position"
            in
            boolean (Atomic.to_float a = Some (float_of_int p))
        | _ -> boolean (Item.effective_boolean_value v) );
    ( "fs:item-sequence-to-string",
      fun _ args ->
        let s = one_arg "fs:item-sequence-to-string" args in
        string_v (String.concat " " (List.map Item.string_value s)) );
    ( "fs:document",
      fun _ args ->
        (* the computed document constructor: copy the content into a
           fresh document node (atomics become text, as for elements) *)
        let items = one_arg "fs:document" args in
        let children =
          List.map
            (function
              | Item.Node n -> (
                  match Node.kind n with
                  | Node.Kattribute ->
                      err "fs:document: attribute node in document content"
                  | Node.Kdocument -> err "fs:document: nested document node"
                  | _ -> Node.copy_fresh n)
              | Item.Atom a -> Node.fresh (Node.Text (Atomic.to_string a)))
            items
        in
        let d = Node.fresh (Node.Document { dchildren = children; duri = None }) in
        ignore (Node.number_fresh d);
        [ Item.Node d ] );
    (* --- additional F&O functions --- *)
    ( "fn:deep-equal",
      fun _ args ->
        let x, y = two_args "fn:deep-equal" args in
        boolean (List.length x = List.length y && List.for_all2 deep_item_equal x y) );
    ( "clio:deep-distinct",
      (* Clio's helper (the paper's Figure 1 query): drop items that are
         deep-equal to an earlier item *)
      fun _ args ->
        let s = one_arg "clio:deep-distinct" args in
        List.rev
          (List.fold_left
             (fun kept it ->
               if List.exists (fun k -> deep_item_equal k it) kept then kept
               else it :: kept)
             [] s) );
    ( "fn:index-of",
      fun _ args ->
        let s, target = two_args "fn:index-of" args in
        let t = singleton_atom "fn:index-of" target in
        List.filteri (fun _ _ -> true) (Item.atomize s)
        |> List.mapi (fun i a -> (i + 1, a))
        |> List.filter_map (fun (i, a) ->
               let eq =
                 try
                   Atomic.equal_same_type (Promotion.convert_operand a t)
                     (Promotion.convert_operand t a)
                 with Promotion.Type_mismatch _ | Atomic.Cast_error _ -> false
               in
               if eq then Some (Item.Atom (Atomic.Integer i)) else None) );
    ( "fn:compare",
      fun _ args ->
        let x, y = two_args "fn:compare" args in
        match (x, y) with
        | [], _ | _, [] -> []
        | _ ->
            integer
              (compare
                 (String.compare (string_of_arg "fn:compare" x)
                    (string_of_arg "fn:compare" y))
                 0) );
    ( "fn:substring-before",
      fun _ args ->
        let x, y = two_args "fn:substring-before" args in
        let hay = string_of_arg "fn:substring-before" x
        and needle = string_of_arg "fn:substring-before" y in
        let n = String.length needle and h = String.length hay in
        let rec scan i =
          if i + n > h then None
          else if String.sub hay i n = needle then Some i
          else scan (i + 1)
        in
        if n = 0 then string_v ""
        else (
          match scan 0 with
          | Some i -> string_v (String.sub hay 0 i)
          | None -> string_v "") );
    ( "fn:substring-after",
      fun _ args ->
        let x, y = two_args "fn:substring-after" args in
        let hay = string_of_arg "fn:substring-after" x
        and needle = string_of_arg "fn:substring-after" y in
        let n = String.length needle and h = String.length hay in
        let rec scan i =
          if i + n > h then None
          else if String.sub hay i n = needle then Some (i + n)
          else scan (i + 1)
        in
        if n = 0 then string_v hay
        else (
          match scan 0 with
          | Some i -> string_v (String.sub hay i (h - i))
          | None -> string_v "") );
    ( "fn:matches",
      fun _ args ->
        let x, y = two_args "fn:matches" args in
        let s = string_of_arg "fn:matches" x in
        let re = Regex.compile (string_of_arg "fn:matches" y) in
        boolean (Regex.matches re s) );
    ( "fn:replace",
      fun _ args ->
        match args with
        | [ s; pat; rep ] ->
            let s = string_of_arg "fn:replace" s
            and pat = string_of_arg "fn:replace" pat
            and rep = string_of_arg "fn:replace" rep in
            string_v (Regex.replace (Regex.compile pat) ~by:rep s)
        | _ -> err "fn:replace expects 3 arguments" );
    ( "fn:tokenize",
      fun _ args ->
        let x, y = two_args "fn:tokenize" args in
        let s = string_of_arg "fn:tokenize" x in
        let re = Regex.compile (string_of_arg "fn:tokenize" y) in
        List.map (fun t -> Item.Atom (Atomic.String t)) (Regex.split re s) );
    ( "fn:string-to-codepoints",
      fun _ args ->
        let s = string_of_arg "fn:string-to-codepoints" (one_arg "fn:string-to-codepoints" args) in
        List.init (String.length s) (fun i -> Item.Atom (Atomic.Integer (Char.code s.[i]))) );
    ( "fn:codepoints-to-string",
      fun _ args ->
        let atoms = Item.atomize (one_arg "fn:codepoints-to-string" args) in
        let buf = Buffer.create (List.length atoms) in
        List.iter
          (fun a ->
            match a with
            | Atomic.Integer i when i >= 0 && i < 256 -> Buffer.add_char buf (Char.chr i)
            | _ -> err "fn:codepoints-to-string: code point out of range")
          atoms;
        string_v (Buffer.contents buf) );
  ]

let find : string -> (Dynamic_ctx.t -> xvalue list -> xvalue) option =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (name, f) -> Hashtbl.replace tbl name f) table;
  fun name -> Hashtbl.find_opt tbl name

let names = List.map fst table
