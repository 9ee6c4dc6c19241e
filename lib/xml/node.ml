(* XML node trees with global document order.

   Node identity is physical; each node carries a globally unique [nid]
   assigned in construction (pre-)order, so document order between any two
   nodes — including nodes of different documents — is a comparison of ids,
   and sorting-by-document-order after a TreeJoin is a sort on ints.

   Element and attribute nodes carry an optional type annotation, the name
   of the schema type assigned by validation.  Unvalidated elements have no
   annotation and their typed value is xdt:untypedAtomic, per the XQuery
   data model. *)

type qname = string

type t = {
  mutable nid : int;
  mutable parent : t option;
  mutable extent : int;
      (* number of nodes in the subtree (self + attributes + descendants),
         cached by [renumber] or set by the parser; 0 = not yet computed.
         Together with [nid] this is the pre/size interval encoding: after
         a parse or a renumber of the containing root, the subtree of [n]
         occupies exactly the nids [n.nid, n.nid + n.extent). *)
  mutable desc : desc;
}

and desc =
  | Document of { mutable dchildren : t list; duri : string option }
  | Element of {
      ename : qname;
      mutable attrs : t list;
      mutable children : t list;
      mutable eannot : string option;
    }
  | Attribute of { aname : qname; avalue : string; mutable aannot : string option }
  | Text of string
  | Comment of string
  | Pi of { target : string; pdata : string }

(* Ids are drawn from a process-global atomic counter: node construction
   happens concurrently on server worker domains (element constructors
   copy and renumber trees mid-query), and torn or duplicated ids would
   silently break document-order comparison.  [renumber] reserves its
   whole block in one fetch-and-add so a subtree's ids stay consecutive
   even while other domains allocate. *)
let counter = Stdlib.Atomic.make 0

let fresh_id () = Stdlib.Atomic.fetch_and_add counter 1 + 1

(* The parser numbers a document itself, top-down, from one block drawn
   up front ([counter] holds the last id drawn). *)
let reserve_ids n = Stdlib.Atomic.fetch_and_add counter n + 1

let release_ids ~from ~until =
  ignore (Stdlib.Atomic.compare_and_set counter (until - 1) (from - 1))

let mk desc = { nid = fresh_id (); parent = None; extent = 0; desc }

let document ?uri children =
  let d = mk (Document { dchildren = children; duri = uri }) in
  List.iter (fun c -> c.parent <- Some d) children;
  d

let element ?annot name ~attrs ~children =
  let e = mk (Element { ename = name; attrs; children; eannot = annot }) in
  List.iter (fun a -> a.parent <- Some e) attrs;
  List.iter (fun c -> c.parent <- Some e) children;
  e

let attribute ?annot name value =
  mk (Attribute { aname = name; avalue = value; aannot = annot })

let text s = mk (Text s)
let comment s = mk (Comment s)
let pi target pdata = mk (Pi { target; pdata })

type kind = Kdocument | Kelement | Kattribute | Ktext | Kcomment | Kpi

let kind n =
  match n.desc with
  | Document _ -> Kdocument
  | Element _ -> Kelement
  | Attribute _ -> Kattribute
  | Text _ -> Ktext
  | Comment _ -> Kcomment
  | Pi _ -> Kpi

let kind_name = function
  | Kdocument -> "document"
  | Kelement -> "element"
  | Kattribute -> "attribute"
  | Ktext -> "text"
  | Kcomment -> "comment"
  | Kpi -> "processing-instruction"

let name n =
  match n.desc with
  | Element e -> Some e.ename
  | Attribute a -> Some a.aname
  | Pi p -> Some p.target
  | Document _ | Text _ | Comment _ -> None

let children n =
  match n.desc with
  | Document d -> d.dchildren
  | Element e -> e.children
  | Attribute _ | Text _ | Comment _ | Pi _ -> []

let attributes n =
  match n.desc with
  | Element e -> e.attrs
  | Document _ | Attribute _ | Text _ | Comment _ | Pi _ -> []

let parent n = n.parent

let type_annotation n =
  match n.desc with
  | Element e -> e.eannot
  | Attribute a -> a.aannot
  | Document _ | Text _ | Comment _ | Pi _ -> None

let set_type_annotation n annot =
  match n.desc with
  | Element e -> e.eannot <- annot
  | Attribute a -> a.aannot <- annot
  | Document _ | Text _ | Comment _ | Pi _ -> ()

(* String value: concatenation of all descendant text, per the data model. *)
let string_value n =
  match n.desc with
  | Text s -> s
  | Comment s -> s
  | Pi p -> p.pdata
  | Attribute a -> a.avalue
  | Document _ | Element _ ->
      let buf = Buffer.create 16 in
      let rec go n =
        match n.desc with
        | Text s -> Buffer.add_string buf s
        | Element _ | Document _ -> List.iter go (children n)
        | Attribute _ | Comment _ | Pi _ -> ()
      in
      go n;
      Buffer.contents buf

(* Typed value (fn:data on a node).  Elements/attributes without a type
   annotation atomize to untypedAtomic; annotated nodes atomize to the
   atomic type recorded by validation when that type names an atomic type,
   and to untypedAtomic otherwise (we do not model complex typed values). *)
let typed_value n : Atomic.t =
  let sv = string_value n in
  match type_annotation n with
  | None -> (
      match n.desc with
      | Comment _ | Pi _ -> Atomic.String sv
      | Document _ | Element _ | Attribute _ | Text _ -> Atomic.Untyped sv)
  | Some ty -> (
      match Atomic.type_name_of_string ty with
      | Some tn -> ( try Atomic.cast tn (Atomic.Untyped sv) with Atomic.Cast_error _ -> Atomic.Untyped sv)
      | None -> Atomic.Untyped sv)

(* Deep copy with fresh node ids: XQuery element constructors copy their
   content, which is why construction shows up in the paper's profiles. *)
let rec copy n =
  match n.desc with
  | Document d -> document ?uri:d.duri (List.map copy d.dchildren)
  | Element e ->
      element ?annot:e.eannot e.ename ~attrs:(List.map copy e.attrs)
        ~children:(List.map copy e.children)
  | Attribute a -> attribute ?annot:a.aannot a.aname a.avalue
  | Text s -> text s
  | Comment s -> comment s
  | Pi p -> pi p.target p.pdata

(* Re-assign node ids in document order (preorder; attributes between the
   element and its children).  Trees are built bottom-up by the
   constructors and the generators, so each construction boundary
   renumbers the finished subtree to restore the preorder invariant (the
   parser builds top-down and assigns final ids as it goes).

   The same pass caches each node's subtree extent: ids are drawn
   consecutively from the global counter, so after renumbering the
   subtree of [n] occupies exactly the id interval
   [n.nid, n.nid + n.extent) — the pre/size encoding the indexed store
   answers axis steps against, and an O(1) [size]. *)
let renumber (root : t) : unit =
  (* Two passes so the whole id block can be reserved atomically: the
     first caches extents (also giving the block size), the second
     assigns consecutive ids from the reserved range.  Per-node
     fetch-and-add would interleave with other domains and break the
     consecutive-interval invariant. *)
  let rec measure n =
    let sub = ref 1 in
    List.iter (fun a -> sub := !sub + measure a) (attributes n);
    List.iter (fun c -> sub := !sub + measure c) (children n);
    n.extent <- !sub;
    !sub
  in
  let total = measure root in
  let next = ref (Stdlib.Atomic.fetch_and_add counter total) in
  let rec assign n =
    incr next;
    n.nid <- !next;
    List.iter assign (attributes n);
    List.iter assign (children n)
  in
  assign root

(* Gap-reserving renumber for updatable documents (the update subsystem's
   nid allocator).  Same preorder discipline as [renumber], but every
   insertion position reserves [gap] spare ids: after the attributes
   (before the first child) and after each child.  [extent] then caches
   the *interval width* — gaps included — rather than the node count, so
   the descendant test [n.nid < m.nid < n.nid + n.extent] and the store's
   range arithmetic keep working unchanged, while an insert that fits in
   the local slack touches no ancestor extent at all.  Use [count_nodes]
   where the exact node count is needed on a gap-numbered tree. *)
let renumber_gapped ?(gap = 8) (root : t) : unit =
  let gap = max 0 gap in
  let rec measure n =
    let w = ref 1 in
    List.iter (fun a -> w := !w + measure a) (attributes n);
    w := !w + gap;
    List.iter (fun c -> w := !w + measure c + gap) (children n);
    n.extent <- !w;
    !w
  in
  let total = measure root in
  let next = ref (Stdlib.Atomic.fetch_and_add counter total + 1) in
  let rec assign n =
    n.nid <- !next;
    incr next;
    List.iter assign (attributes n);
    next := !next + gap;
    List.iter
      (fun c ->
        assign c;
        next := !next + gap)
      (children n)
  in
  assign root

(* Exact node count by walking — [size]/[extent] over-report on
   gap-numbered trees (they measure the reserved interval). *)
let rec count_nodes n =
  1
  + List.length (attributes n)
  + List.fold_left (fun acc c -> acc + count_nodes c) 0 (children n)

(* First id past [n]'s interval (self, attributes, descendants and — on
   gap-numbered trees — the trailing slack).  Meaningful only after a
   renumber of the containing root. *)
let interval_end n = n.nid + n.extent

let doc_order_compare a b = compare a.nid b.nid

(* One O(n) strictly-ascending check: child/descendant axis output is
   almost always already in document order and duplicate-free, in which
   case sorting is the identity and we can skip the comparator closure
   and the sort allocation entirely. *)
let rec is_doc_sorted_uniq = function
  | a :: (b :: _ as rest) -> a.nid < b.nid && is_doc_sorted_uniq rest
  | [] | [ _ ] -> true

(* Sort a node list into document order and remove duplicate nodes
   (by identity).  This is the closure every axis step must maintain. *)
let sort_doc_order nodes =
  if is_doc_sorted_uniq nodes then nodes
  else List.sort_uniq (fun a b -> compare a.nid b.nid) nodes

let is_ancestor_of ~anc n =
  let rec up = function
    | None -> false
    | Some p -> p == anc || up p.parent
  in
  up n.parent

let root n =
  let rec up n = match n.parent with None -> n | Some p -> up p in
  up n

(* Descendants in document order (self excluded). *)
let descendants n =
  let acc = ref [] in
  let rec go n =
    List.iter
      (fun c ->
        acc := c :: !acc;
        go c)
      (children n)
  in
  go n;
  List.rev !acc

let descendant_or_self n = n :: descendants n

(* Lazy preorder walk of the descendants (self excluded): the streaming
   evaluator's existential consumers (fn:exists over a //-path) pull only
   the prefix they need instead of materializing the whole subtree. *)
let rec descendants_seq n : t Seq.t =
  Seq.concat_map (fun c -> fun () -> Seq.Cons (c, descendants_seq c)) (List.to_seq (children n))

let descendant_or_self_seq n : t Seq.t = fun () -> Seq.Cons (n, descendants_seq n)

let ancestors n =
  let rec up acc = function None -> List.rev acc | Some p -> up (p :: acc) p.parent in
  up [] n.parent

let following_siblings n =
  match n.parent with
  | None -> []
  | Some p ->
      let rec after = function
        | [] -> []
        | c :: rest -> if c == n then rest else after rest
      in
      after (children p)

let preceding_siblings n =
  match n.parent with
  | None -> []
  | Some p ->
      let rec before acc = function
        | [] -> []
        | c :: rest -> if c == n then List.rev acc else before (c :: acc) rest
      in
      before [] (children p)

(* Count of nodes in the subtree (attributes included).  O(1) once
   [renumber] has cached the extent; the walk remains for trees (or
   freshly copied subtrees) that have not been numbered yet, and does
   not write the cache — only [renumber], which controls the ids the
   extent is an interval over, is allowed to. *)
let rec size n =
  if n.extent > 0 then n.extent
  else 1 + List.length (attributes n) + List.fold_left (fun acc c -> acc + size c) 0 (children n)

(* The pre/size interval of the subtree, when cached by [renumber]. *)
let subtree_interval n = if n.extent > 0 then Some (n.nid, n.nid + n.extent) else None
