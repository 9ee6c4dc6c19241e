(* Tree mutation under the gapped pre/size encoding.

   The update subsystem's physical layer: every XQUF primitive bottoms
   out here as a structural splice that keeps the preorder-id invariant
   [n.nid < m.nid < n.nid + n.extent  <=>  m descends from n] intact
   without renumbering the document.

   [Node.renumber_gapped] reserves spare ids at every insertion position
   (after the attributes, after each child), and [extent] measures the
   interval *width* — so each position's free id range is computable
   from the neighbours alone:

       before child c    [prev sibling's end | attrs end,  c.nid)
       after  child c    [c's end,  next sibling's nid | parent's end)
       as first into p   [attrs end,  first child's nid | parent's end)
       as last  into p   [last child's end | attrs end,  parent's end)

   Deletions never shrink an interval (the freed ids become slack), and
   an insert whose content fits the local slack touches no ancestor
   extent at all — which is what lets the sorted per-name index arrays
   (Xqc_store) be patched in place instead of rebuilt.  Inserted
   content is numbered with a small inter-node gap first, so the new
   subtree is itself updatable, retrying dense when tight; only when even dense numbering does not
   fit does the document fall back to a full [renumber_gapped] (counted
   in [full_renumbers]), which moves the root id and thereby kills every
   cache keyed on it.

   Positions that allocate at the front of a child list (before /
   as first) number from the high end of their free interval and the
   rest from the low end, so repeated prepends and appends drain the
   shared slack from opposite sides instead of colliding after one
   insert. *)

open Xqc_xml
module Obs = Xqc_obs.Obs
module Store = Xqc_store.Store

exception Update_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Update_error s)) fmt

let c_patches = Obs.global_counter "incremental_index_patches"
let c_renumbers = Obs.global_counter "full_renumbers"

(* Inter-node gap when numbering inserted content: enough slack that
   follow-up edits inside fresh content also patch in place. *)
let content_gap = 8

(* ------------------------------------------------------------------ *)
(* Tree surgery                                                        *)
(* ------------------------------------------------------------------ *)

let set_children (p : Node.t) (cs : Node.t list) : unit =
  match p.Node.desc with
  | Node.Element e -> e.children <- cs
  | Node.Document d -> d.dchildren <- cs
  | _ -> err "%s nodes cannot hold children" (Node.kind_name (Node.kind p))

let set_attrs (p : Node.t) (l : Node.t list) : unit =
  match p.Node.desc with
  | Node.Element e -> e.attrs <- l
  | _ -> err "only element nodes hold attributes"

(* Is [n] still reachable from [root]?  A primitive may legally target
   a node whose ancestor an earlier primitive detached (XQUF targets
   are snapshot nodes): the mutation must still happen — the pending
   list was checked against the snapshot — but it is invisible, and
   its nids are stale (a replace may have reassigned the freed interval
   to live content), so it must never touch [root]'s indexes or
   numbering. *)
let attached (root : Node.t) (n : Node.t) : bool =
  let rec up m =
    m == root || match m.Node.parent with Some p -> up p | None -> false
  in
  up n

(* Remove [n] from its parent's child (or attribute) list; detached
   nodes keep their ids, so their old interval becomes slack. *)
let detach (n : Node.t) : unit =
  match n.Node.parent with
  | None -> ()
  | Some p ->
      (match n.Node.desc with
      | Node.Attribute _ ->
          set_attrs p (List.filter (fun a -> a != n) (Node.attributes p))
      | _ -> set_children p (List.filter (fun c -> c != n) (Node.children p)));
      n.Node.parent <- None

(* ------------------------------------------------------------------ *)
(* Free intervals                                                      *)
(* ------------------------------------------------------------------ *)

(* First id past the attribute block of [p]. *)
let attrs_end (p : Node.t) : int =
  match List.rev (Node.attributes p) with
  | [] -> p.Node.nid + 1
  | a :: _ -> Node.interval_end a

let rec last_opt = function [] -> None | [ x ] -> Some x | _ :: t -> last_opt t

type position =
  | P_first of Node.t  (** as first into p *)
  | P_last of Node.t  (** [as last] into p *)
  | P_before of Node.t  (** before anchor *)
  | P_after of Node.t  (** after anchor *)
  | P_attr of Node.t  (** attributes into p *)

let parent_of_anchor (a : Node.t) : Node.t =
  match a.Node.parent with
  | Some p -> p
  | None -> err "insert before/after target has no parent"

let position_parent = function
  | P_first p | P_last p | P_attr p -> p
  | P_before a | P_after a -> parent_of_anchor a

(* The free id interval [lo, hi) of an insertion position, derived from
   the neighbours alone (valid only on a gap-renumbered tree). *)
let free_interval = function
  | P_first p | P_attr p -> (
      ( attrs_end p,
        match Node.children p with
        | [] -> Node.interval_end p
        | c :: _ -> c.Node.nid ))
  | P_last p ->
      ( (match last_opt (Node.children p) with
        | None -> attrs_end p
        | Some c -> Node.interval_end c),
        Node.interval_end p )
  | P_before a -> (
      let p = parent_of_anchor a in
      let rec prev before = function
        | [] -> None
        | c :: rest -> if c == a then before else prev (Some c) rest
      in
      match prev None (Node.children p) with
      | Some b -> (Node.interval_end b, a.Node.nid)
      | None -> (attrs_end p, a.Node.nid))
  | P_after a -> (
      let p = parent_of_anchor a in
      let rec next = function
        | [] | [ _ ] -> None
        | c :: (s :: _ as rest) -> if c == a then Some s else next rest
      in
      match next (Node.children p) with
      | Some s -> (Node.interval_end a, s.Node.nid)
      | None -> (Node.interval_end a, Node.interval_end p))

(* ------------------------------------------------------------------ *)
(* Numbering inserted content                                          *)
(* ------------------------------------------------------------------ *)

(* Width of [n] numbered with inter-gap [gap] (same recurrence as
   [Node.renumber_gapped]); caches extents as a side effect. *)
let rec measure_gapped gap (n : Node.t) : int =
  let w = ref 1 in
  List.iter (fun a -> w := !w + measure_gapped gap a) (Node.attributes n);
  w := !w + gap;
  List.iter (fun c -> w := !w + measure_gapped gap c + gap) (Node.children n);
  n.Node.extent <- !w;
  !w

let assign_from (start : int) gap (n : Node.t) : unit =
  let next = ref start in
  let rec go n =
    n.Node.nid <- !next;
    incr next;
    List.iter go (Node.attributes n);
    next := !next + gap;
    List.iter
      (fun c ->
        go c;
        next := !next + gap)
      (Node.children n)
  in
  go n

(* Number the run [nodes] inside the free interval [lo, hi): gapped
   first, dense as a fallback.  [from_hi] packs the run against the high
   end (front-of-list positions).  False when even dense ids do not
   fit. *)
let try_number (nodes : Node.t list) ~lo ~hi ~from_hi : bool =
  let attempt gap =
    let widths = List.map (measure_gapped gap) nodes in
    let total =
      List.fold_left ( + ) 0 widths + (gap * max 0 (List.length nodes - 1))
    in
    total <= hi - lo
    &&
    (let next = ref (if from_hi then hi - total else lo) in
     List.iter2
       (fun n w ->
         assign_from !next gap n;
         next := !next + w + gap)
       nodes widths;
     true)
  in
  attempt content_gap || attempt 0

(* ------------------------------------------------------------------ *)
(* Index maintenance                                                   *)
(* ------------------------------------------------------------------ *)

let patched b = if b then Obs.incr_counter c_patches

(* Gap exhausted (or the tree was never gap-numbered): renumber the
   whole document.  The root's nid moves, so every cache keyed on it —
   structural indexes, cached plans — is dead.  The tree has changed
   shape since its index was built, so the index must not follow the
   root: the renumber itself drops it from the store
   ([Node.renumbered]), and it is rebuilt here.  Only descendant steps
   would rebuild it otherwise, and until one did, later writes would
   find nothing to patch and the planner's statistics would not count
   the document. *)
let full_renumber (root : Node.t) : unit =
  Node.renumber_gapped root;
  ignore (Store.index_nodes root);
  Obs.incr_counter c_renumbers

(* ------------------------------------------------------------------ *)
(* Primitive mutations                                                 *)
(* ------------------------------------------------------------------ *)

let splice_children (p : Node.t) (pos : position) (nodes : Node.t list) : unit =
  List.iter (fun n -> n.Node.parent <- Some p) nodes;
  match pos with
  | P_first _ -> set_children p (nodes @ Node.children p)
  | P_last _ -> set_children p (Node.children p @ nodes)
  | P_attr _ -> set_attrs p (Node.attributes p @ nodes)
  | P_before a ->
      let rec ins = function
        | [] -> err "insert anchor is no longer a child of its parent"
        | c :: rest -> if c == a then nodes @ (c :: rest) else c :: ins rest
      in
      set_children p (ins (Node.children p))
  | P_after a ->
      let rec ins = function
        | [] -> err "insert anchor is no longer a child of its parent"
        | c :: rest -> if c == a then c :: (nodes @ rest) else c :: ins rest
      in
      set_children p (ins (Node.children p))

(* Place [nodes] (fresh, parentless, ids stale) at [pos] in the
   document rooted at [root]: number them into the position's slack and
   patch the live indexes, or splice and fall back to a full
   renumber. *)
let insert (root : Node.t) (pos : position) (nodes : Node.t list) : unit =
  if nodes <> [] then begin
    let p = position_parent pos in
    if not (attached root p) then
      (* Inserting under a subtree some earlier primitive detached: the
         splice keeps the snapshot consistent, but the content is
         invisible and the position's nids are stale — no numbering, no
         patches, and certainly no full renumber of the live tree. *)
      splice_children p pos nodes
    else begin
      let from_hi =
        match pos with P_first _ | P_before _ -> true | _ -> false
      in
      let fits =
        root.Node.extent > 0
        &&
        let lo, hi = free_interval pos in
        try_number nodes ~lo ~hi ~from_hi
      in
      splice_children p pos nodes;
      if fits then List.iter (fun n -> patched (Store.patch_insert root n)) nodes
      else full_renumber root
    end
  end

let delete (root : Node.t) (n : Node.t) : unit =
  match n.Node.parent with
  | None -> () (* already detached by an earlier primitive *)
  | Some _ ->
      let live = attached root n in
      detach n;
      (* A node inside an already-detached subtree still has a parent,
         but its nids are stale — patching the live arrays with them
         would strip whichever nodes now own that interval. *)
      if live then patched (Store.patch_delete root n)

let rename (root : Node.t) (n : Node.t) (name : string) : unit =
  let live = attached root n in
  match n.Node.desc with
  | Node.Element e ->
      let old_name = e.ename in
      n.Node.desc <-
        Node.Element
          { ename = name; attrs = e.attrs; children = e.children; eannot = e.eannot };
      if live then patched (Store.patch_rename root n ~old_name)
  | Node.Attribute a ->
      let old_name = a.aname in
      n.Node.desc <-
        Node.Attribute { aname = name; avalue = a.avalue; aannot = a.aannot };
      if live then patched (Store.patch_rename root n ~old_name)
  | Node.Pi p -> n.Node.desc <- Node.Pi { target = name; pdata = p.pdata }
  | _ -> err "rename target must be an element, attribute or processing-instruction"

let replace_value (root : Node.t) (n : Node.t) (s : string) : unit =
  match n.Node.desc with
  | Node.Text _ -> n.Node.desc <- Node.Text s
  | Node.Comment _ -> n.Node.desc <- Node.Comment s
  | Node.Pi p -> n.Node.desc <- Node.Pi { target = p.target; pdata = s }
  | Node.Attribute a ->
      n.Node.desc <- Node.Attribute { aname = a.aname; avalue = s; aannot = a.aannot }
  | Node.Element _ ->
      (* replaceElementContent: every child is dropped and replaced by a
         single text node holding the new value (nothing when empty). *)
      List.iter (delete root) (Node.children n);
      if s <> "" then insert root (P_last n) [ Node.text s ]
  | Node.Document _ -> err "cannot replace the value of a document node"

let replace_node (root : Node.t) (old : Node.t) (news : Node.t list) : unit =
  match old.Node.parent with
  | None -> err "replace target has no parent"
  | Some p -> (
      match old.Node.desc with
      | Node.Attribute _ ->
          delete root old;
          insert root (P_attr p) news
      | _ ->
          let pos =
            let rec next = function
              | [] | [ _ ] -> None
              | c :: (s :: _ as rest) -> if c == old then Some s else next rest
            in
            match next (Node.children p) with
            | Some s -> P_before s
            | None -> P_last p
          in
          delete root old;
          insert root pos news)
