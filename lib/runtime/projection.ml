(* Document projection in the style of Marian & Siméon (the paper's
   TreeProject operator): prune a tree to the union of a set of static
   paths.  A path is a list of (axis, node-test) steps; a node is kept if
   it lies on a prefix of some path, and the full subtree is kept where a
   path is exhausted (the "everything below" case for descendant use). *)

open Xqc_xml
open Xqc_types
open Xqc_frontend

type path = (Ast.axis * Ast.node_test) list

(* A projection spec: the nodes reached by [steps]; with [subtree] their
   whole subtrees are kept, otherwise only the node shells (plus whatever
   other specs keep below them).  Node-only specs serve counting/existence
   uses (fn:count, where-clauses), subtree specs serve atomization and
   construction. *)
type spec = { steps : path; subtree : bool }

let test_matches schema (axis : Ast.axis) (test : Ast.node_test) (n : Node.t) :
    bool =
  match test with
  | Ast.Kind_test it -> Seqtype.item_matches schema (Item.Node n) it
  | Ast.Name_test name ->
      let kind_ok =
        match axis with
        | Ast.Attribute_axis -> Node.kind n = Node.Kattribute
        | _ -> Node.kind n = Node.Kelement
      in
      kind_ok && (String.equal name "*" || Node.name n = Some name)

(* Does any node in [c]'s subtree (self included) match [test]? Used to
   prune descendant paths: a descendant step stays alive below a child
   only if the child's subtree can still produce a match. *)
let subtree_can_match schema test (c : Node.t) : bool =
  List.exists
    (fun n -> test_matches schema Ast.Child test n)
    (Node.descendant_or_self c)

(* Which specs does child [c] of a node with residual specs [specs]
   carry?  A child carries: the tail of any child-step spec whose test it
   matches, and descendant-step specs whose test is still reachable below
   it.  Exhausted node-only specs carry nothing further but make the
   node relevant (its shell is kept). *)
let specs_for_child schema (specs : spec list) (c : Node.t) : spec list option =
  let carried = ref [] in
  let relevant = ref false in
  List.iter
    (fun sp ->
      match sp.steps with
      | [] -> if sp.subtree then (relevant := true; carried := sp :: !carried)
      | (axis, test) :: rest -> (
          match axis with
          | Ast.Child ->
              if test_matches schema axis test c then (
                relevant := true;
                carried := { sp with steps = rest } :: !carried)
          | Ast.Descendant | Ast.Descendant_or_self ->
              if subtree_can_match schema test c then (
                relevant := true;
                carried := sp :: !carried);
              if test_matches schema Ast.Child test c then (
                relevant := true;
                carried := { sp with steps = rest } :: !carried)
          | Ast.Self | Ast.Attribute_axis | Ast.Parent | Ast.Ancestor
          | Ast.Ancestor_or_self | Ast.Following_sibling | Ast.Preceding_sibling ->
              ()))
    specs;
  if !relevant then Some !carried else None

(* Attributes are kept when an attribute step consumes them, or when an
   exhausted subtree spec keeps everything below the node. *)
let keep_attributes schema (specs : spec list) (n : Node.t) : bool =
  List.exists
    (fun sp ->
      match sp.steps with
      | [] -> sp.subtree
      | (Ast.Attribute_axis, test) :: _ ->
          List.exists (fun a -> test_matches schema Ast.Attribute_axis test a) (Node.attributes n)
      | _ -> false)
    specs

(* The projected tree is built from fresh nodes and numbered once by
   [project_specs]. *)
let rec project_node schema (specs : spec list) (n : Node.t) : Node.t option =
  let keep_all = List.exists (fun sp -> sp.steps = [] && sp.subtree) specs in
  if keep_all then Some (Node.copy_fresh n)
  else
    match n.Node.desc with
    | Node.Document d ->
        let children = List.filter_map (project_child schema specs) d.dchildren in
        Some (Node.fresh (Node.Document { dchildren = children; duri = d.duri }))
    | Node.Element e ->
        let attrs =
          if keep_attributes schema specs n then List.map Node.copy_fresh e.attrs else []
        in
        let children = List.filter_map (project_child schema specs) e.children in
        Some (Node.fresh (Node.Element { ename = e.ename; attrs; children; eannot = e.eannot }))
    | Node.Attribute _ | Node.Text _ | Node.Comment _ | Node.Pi _ ->
        Some (Node.copy_fresh n)

and project_child schema specs c =
  match specs_for_child schema specs c with
  | None -> None
  | Some carried -> (
      match (carried, c.Node.desc) with
      | [], (Node.Text _ | Node.Comment _ | Node.Pi _) ->
          (* shell-only relevance never keeps character data *)
          None
      | _ -> project_node schema carried c)

(* Collapse the XPath encoding of "//t" (descendant-or-self::node()
   followed by child::t) into a single descendant step, which is the form
   the reachability pruning understands. *)
let rec normalize_path (p : path) : path =
  match p with
  | (Ast.Descendant_or_self, Ast.Kind_test Seqtype.It_node) :: (Ast.Child, t) :: rest ->
      (Ast.Descendant, t) :: normalize_path rest
  | step :: rest -> step :: normalize_path rest
  | [] -> []

let project_specs schema (specs : spec list) (items : Item.sequence) : Item.sequence =
  let specs = List.map (fun sp -> { sp with steps = normalize_path sp.steps }) specs in
  List.filter_map
    (fun it ->
      match it with
      | Item.Node n ->
          Option.map
            (fun m ->
              ignore (Node.number_fresh m);
              Item.Node m)
            (project_node schema specs n)
      | Item.Atom _ -> Some it)
    items

(* Subtree-mode wrapper (the TreeProject operator of Table 1). *)
let project schema (paths : path list) (items : Item.sequence) : Item.sequence =
  project_specs schema (List.map (fun steps -> { steps; subtree = true }) paths) items
