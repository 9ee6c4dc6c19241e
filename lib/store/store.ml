(* Indexed document store: interval-encoded structural name indexes.

   Every renumbered tree already carries a pre/size interval encoding —
   preorder ids ([Node.nid]) plus cached subtree extents — so "m is a
   descendant of n" is the integer test

     n.nid < m.nid && m.nid < n.nid + n.extent

   On top of that, this module maintains one lazily built index per
   document root: for each element and attribute qname, the array of
   nodes with that name in document (= nid) order, plus a "*" entry
   holding every element.  An axis step against an indexed root then
   becomes two binary searches delimiting the qname's nid range inside
   the context node's interval:

     descendant::t          the sub-array  (n.nid, n.nid + n.extent)
     descendant-or-self::t  the same with the lower bound closed
     child::t               the range, filtered by parent identity
     fn:count(//t)          hi - lo, no node is touched at all
     fn:exists(//t)         hi > lo

   Lifetime protocol: an index lives exactly as long as its root is
   reachable.  Each cache slot holds its entry in an [Ephemeron.K1]
   keyed on the root node: the entry's node arrays reach the root
   through parent pointers, but ephemeron semantics keep the entry alive
   only while something *else* reaches the root, so dropping the last
   reference to a document frees the tree and its index in the same
   collection.  Beside the ephemeron, a [Weak] pointer to the root
   answers liveness, and a per-name count summary (no [Node.t] in it)
   answers the planner's statistics.

   The publish and statistics paths read liveness with [Weak.check]
   only.  [Weak.get] (and [Ephemeron.K1.query], which does the same)
   marks the root it returns: called on a dead root during major-GC
   marking it revives that root for the whole cycle, and a publish per
   parsed document is enough to keep every old tree alive forever.  Only
   the lookup path queries the ephemeron, and there the caller already
   holds the root.

   Slots are keyed by the root's nid at build time.  [Node.renumber]
   gives a root a fresh nid, so a renumbered root misses the cache and
   rebuilds; its old slot is dropped once the root dies, or eagerly via
   [purge_nid] where a live indexed root is renumbered (the update
   subsystem's full renumber).  Nodes copied out of an indexed tree
   ([Node.copy]) are fresh nodes in a fresh tree and never alias old
   intervals.

   The build is a single preorder walk that also verifies the preorder
   invariant (strictly ascending nids); an assembled tree that was never
   renumbered as a whole is recorded as unindexable and served by the
   walking fallback.  All decisions are counted in the obs global
   counters (index_builds / index_hits / index_fallbacks) so EXPLAIN
   ANALYZE and --stats-json show which path ran. *)

open Xqc_xml
module Obs = Xqc_obs.Obs

(* [Auto] indexes roots of at least [!min_index_size] nodes, [Force]
   indexes everything (tests), [Off] disables lookups entirely.  The
   XQC_INDEX environment variable seeds the initial mode. *)
type mode = Auto | Off | Force

let mode =
  ref
    (match Option.map String.lowercase_ascii (Sys.getenv_opt "XQC_INDEX") with
    | Some ("off" | "0" | "no" | "walk") -> Off
    | Some ("force" | "always") -> Force
    | _ -> Auto)

let min_index_size = ref 64

let c_builds = Obs.global_counter "index_builds"
let c_build_nodes = Obs.global_counter "index_build_nodes"
let c_hits = Obs.global_counter "index_hits"
let c_fallbacks = Obs.global_counter "index_fallbacks"

(* Per-name cardinalities of one indexed tree: what the planner reads.
   It holds no [Node.t], so a slot's statistics never keep a tree
   alive. *)
type counts = {
  k_elems : (string, int) Hashtbl.t;  (* element qname -> count; "*" -> every element *)
  k_attrs : (string, int) Hashtbl.t;
  mutable k_nodes : int;  (* total nodes walked at build (patched on update) *)
}

type index = {
  ix_elems : (string, Node.t array) Hashtbl.t;
      (* element qname -> nodes in nid order; "*" -> every element *)
  ix_attrs : (string, Node.t array) Hashtbl.t;
  ix_counts : counts;  (* kept equal to the array lengths *)
}

(* An entry remembers unindexable roots too, so a tree that violates the
   preorder invariant (or is below the Auto threshold) is not re-walked
   on every query. *)
type entry = Indexed of index | Unindexable

type slot = {
  s_entry : (Node.t, entry) Ephemeron.K1.t;  (* keyed on the root *)
  s_root : Node.t Weak.t;  (* liveness only: read with [Weak.check] *)
  s_counts : counts option;  (* [None]: unindexable *)
}

(* The cache is shared across the query server's worker domains.  It
   is an immutable map published through one [Atomic]: readers do a
   plain [Atomic.get] + functional lookup and acquire NO lock at all.
   Contention telemetry showed why this matters: the previous
   mutex-guarded hash table was acquired 450–630k times per bench run
   (once per axis step) — zero-contention overhead at one worker and
   132 ms of lock wait at four.

   The tmutex now guards only the rebuild/publish path ([entry_for]'s
   miss branch, [clear]), never a read.  Publishing copies the map
   (persistent [Map], so "copy" is O(log n) path copying), drops slots
   whose root has died, and [Atomic.set]s the new version; concurrent
   readers keep the old snapshot until their next lookup.

   Safety of the unlocked build (unchanged from the double-checked
   scheme this replaces): the walk re-derives subtree extents (writes to
   shared nodes), but every extent it writes is the same value any
   racing build — or the original [Node.renumber] — computes for that
   node, so racing writers store identical ints.  A concurrent reader
   sees either the old value or the new one; the only observable
   transition is 0 -> k on trees numbered before extent caching existed,
   and a reader seeing 0 takes the walking fallback ([name_range]
   refuses extent <= 0).  The per-name node arrays inside an [index] are
   immutable after [build], so they are read lock-free once handed
   out. *)
let lock = Obs.tmutex "store_publish"

module IntMap = Map.Make (Int)

let snapshot : slot IntMap.t Stdlib.Atomic.t = Stdlib.Atomic.make IntMap.empty

let clear () = Obs.with_lock lock (fun () -> Stdlib.Atomic.set snapshot IntMap.empty)

let root_alive s = Weak.check s.s_root 0

(* Lookup path only: the caller holds [root], so querying the ephemeron
   cannot revive anything. *)
let find_entry (m : slot IntMap.t) (root : Node.t) : entry option =
  match IntMap.find_opt root.Node.nid m with
  | Some s -> Ephemeron.K1.query s.s_entry root
  | None -> None

let make_slot (root : Node.t) (e : entry) : slot =
  let w = Weak.create 1 in
  Weak.set w 0 (Some root);
  let counts = match e with Indexed ix -> Some ix.ix_counts | Unindexable -> None in
  { s_entry = Ephemeron.K1.make root e; s_root = w; s_counts = counts }

let empty_array : Node.t array = [||]

let build (root : Node.t) : entry =
  let elems : (string, Node.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let attrs : (string, Node.t list ref) Hashtbl.t = Hashtbl.create 16 in
  let all_elems = ref [] in
  let push tbl name n =
    match Hashtbl.find_opt tbl name with
    | Some l -> l := n :: !l
    | None -> Hashtbl.add tbl name (ref [ n ])
  in
  let last = ref (root.Node.nid - 1) in
  let preorder = ref true in
  let count = ref 0 in
  (* one preorder walk: collect per-name node lists, re-derive subtree
     extents (covering trees numbered before extent caching existed),
     and verify that nids are strictly ascending *)
  let rec go n =
    if n.Node.nid <= !last then preorder := false;
    last := n.Node.nid;
    let start = !count in
    incr count;
    (match n.Node.desc with
    | Node.Element e ->
        push elems e.ename n;
        all_elems := n :: !all_elems
    | Node.Attribute a -> push attrs a.aname n
    | Node.Document _ | Node.Text _ | Node.Comment _ | Node.Pi _ -> ());
    List.iter go (Node.attributes n);
    List.iter go (Node.children n);
    (* re-derive the extent only when it was never cached: on
       gap-numbered (updatable) trees the extent is the reserved
       interval width, which a node-count walk must not clobber *)
    if n.Node.extent = 0 then n.Node.extent <- !count - start
  in
  go root;
  if not !preorder then Unindexable
  else begin
    let finalize tbl =
      let out = Hashtbl.create (Hashtbl.length tbl) in
      Hashtbl.iter (fun name l -> Hashtbl.add out name (Array.of_list (List.rev !l))) tbl;
      out
    in
    let ix_elems = finalize elems in
    Hashtbl.replace ix_elems "*" (Array.of_list (List.rev !all_elems));
    let ix_attrs = finalize attrs in
    let lengths tbl =
      Hashtbl.of_seq (Seq.map (fun (name, arr) -> (name, Array.length arr)) (Hashtbl.to_seq tbl))
    in
    Obs.incr_counter c_builds;
    Obs.add_counter c_build_nodes !count;
    let ix_counts = { k_elems = lengths ix_elems; k_attrs = lengths ix_attrs; k_nodes = !count } in
    Indexed { ix_elems; ix_attrs; ix_counts }
  end

(* Resolve: lock-free snapshot lookup (the hot path — no mutex, no
   write, just an [Atomic.get] and a functional [Map] descent), unlocked
   build on miss, then a locked re-check-and-publish where the loser of
   a racing build discards its entry and adopts the winner's.  Slots of
   dead roots are dropped as part of assembling the new version. *)
let entry_for (root : Node.t) : entry =
  match find_entry (Stdlib.Atomic.get snapshot) root with
  | Some e -> e
  | None ->
      let e =
        if !mode = Auto && root.Node.extent > 0 && root.Node.extent < !min_index_size
        then Unindexable
        else build root
      in
      Obs.with_lock lock (fun () ->
          let m = Stdlib.Atomic.get snapshot in
          match find_entry m root with
          | Some e' ->
              (* lost a racing build: adopt the winner's entry *)
              e'
          | None ->
              let live = IntMap.filter (fun _ s -> root_alive s) m in
              Stdlib.Atomic.set snapshot (IntMap.add root.Node.nid (make_slot root e) live);
              e)

(* Resolve the index serving [n]'s tree, building it on first use.
   [None] means the caller must walk (mode off, tree unindexable, or
   below the Auto threshold). *)
let index_for (n : Node.t) : index option =
  match !mode with
  | Off -> None
  | Auto | Force -> (
      match entry_for (Node.root n) with
      | Indexed ix ->
          Obs.incr_counter c_hits;
          Some ix
      | Unindexable ->
          Obs.incr_counter c_fallbacks;
          None)

(* Smallest i with arr.(i).nid >= lo. *)
let lower_bound (arr : Node.t array) (lo : int) : int =
  let a = ref 0 and b = ref (Array.length arr) in
  while !a < !b do
    let m = (!a + !b) / 2 in
    if arr.(m).Node.nid < lo then a := m + 1 else b := m
  done;
  !a

(* The qname's occurrence range inside [n]'s subtree interval:
   [(arr, i, j)] with the matches at positions [i, j).  [self] closes
   the lower bound (descendant-or-self).  [None] only when no index
   serves the tree or [n]'s extent is unknown. *)
let name_range ?(self = false) (tbl : index -> (string, Node.t array) Hashtbl.t)
    (n : Node.t) (name : string) : (Node.t array * int * int) option =
  match index_for n with
  | None -> None
  | Some ix ->
      if n.Node.extent <= 0 then begin
        (* not part of the indexed interval numbering: fall back *)
        Obs.incr_counter c_fallbacks;
        None
      end
      else
        let arr =
          match Hashtbl.find_opt (tbl ix) name with Some a -> a | None -> empty_array
        in
        let lo = if self then n.Node.nid else n.Node.nid + 1 in
        let hi = n.Node.nid + n.Node.extent in
        let i = lower_bound arr lo in
        let j = lower_bound arr hi in
        Some (arr, i, j)

let elems ix = ix.ix_elems
let attrs ix = ix.ix_attrs

let slice_list arr i j =
  let out = ref [] in
  for k = j - 1 downto i do
    out := arr.(k) :: !out
  done;
  !out

let slice_seq (arr : Node.t array) i j : Node.t Seq.t =
  let rec go k () = if k >= j then Seq.Nil else Seq.Cons (arr.(k), go (k + 1)) in
  go i

(* ------------------------------------------------------------------ *)
(* Axis queries (None = caller falls back to the walking path)         *)
(* ------------------------------------------------------------------ *)

let descendants_by_name n name : Node.t list option =
  Option.map (fun (arr, i, j) -> slice_list arr i j) (name_range elems n name)

let descendants_by_name_seq n name : Node.t Seq.t option =
  Option.map (fun (arr, i, j) -> slice_seq arr i j) (name_range elems n name)

let descendant_or_self_by_name n name : Node.t list option =
  Option.map (fun (arr, i, j) -> slice_list arr i j) (name_range ~self:true elems n name)

let descendant_or_self_by_name_seq n name : Node.t Seq.t option =
  Option.map (fun (arr, i, j) -> slice_seq arr i j) (name_range ~self:true elems n name)

let count_descendants_by_name ?self n name : int option =
  Option.map (fun (_, i, j) -> j - i) (name_range ?self elems n name)

let exists_descendant_by_name ?self n name : bool option =
  Option.map (fun (_, i, j) -> j > i) (name_range ?self elems n name)

let is_child_of ~parent m =
  match Node.parent m with Some p -> p == parent | None -> false

(* Below this subtree size a direct scan of the child/attribute list
   beats two binary searches over document-sized arrays. *)
let small_subtree = ref 32

(* child::t through the descendant range, filtered by parent identity.
   Only worthwhile when the subtree holds few nodes of that name; when
   the range is larger than the child list — or the whole subtree is
   small enough to scan outright — the plain walk is cheaper, so the
   caller is sent back to it. *)
let children_by_name n name : Node.t list option =
  if n.Node.extent > 0 && n.Node.extent <= !small_subtree then None
  else
  match name_range elems n name with
  | None -> None
  | Some (arr, i, j) ->
      let r = j - i in
      (* r <= |children n| without computing the full length *)
      let rec at_least k l =
        k <= 0 || match l with [] -> false | _ :: rest -> at_least (k - 1) rest
      in
      if not (at_least r (Node.children n)) then begin
        Obs.incr_counter c_fallbacks;
        None
      end
      else Some (List.filter (is_child_of ~parent:n) (slice_list arr i j))

let attributes_by_name n name : Node.t list option =
  if n.Node.extent > 0 && n.Node.extent <= !small_subtree then None
  else
  match name_range attrs n name with
  | None -> None
  | Some (arr, i, j) ->
      let r = j - i in
      if r > List.length (Node.attributes n) then begin
        Obs.incr_counter c_fallbacks;
        None
      end
      else Some (List.filter (is_child_of ~parent:n) (slice_list arr i j))

let index_nodes n : int option = Option.map (fun ix -> ix.ix_counts.k_nodes) (index_for n)

(* ------------------------------------------------------------------ *)
(* Incremental maintenance (the update subsystem)                      *)
(* ------------------------------------------------------------------ *)

(* Look up the live index of [root] without building on miss: update
   patching must only touch indexes that already exist — a missing one
   is rebuilt lazily by the next query anyway. *)
let live_index (root : Node.t) : index option =
  match find_entry (Stdlib.Atomic.get snapshot) root with
  | Some (Indexed ix) -> Some ix
  | Some Unindexable | None -> None

(* Drop the slot keyed [nid].  Needed only where a live indexed root is
   renumbered: its old slot can no longer be looked up, but the root is
   still alive, so the statistics would keep counting it. *)
let purge_nid (nid : int) : unit =
  Obs.with_lock lock (fun () ->
      let m = Stdlib.Atomic.get snapshot in
      if IntMap.mem nid m then Stdlib.Atomic.set snapshot (IntMap.remove nid m))

(* In-place patching of the per-name arrays.  Only the update subsystem
   calls these, and only on a document version with no admitted readers
   (the MVCC writer builds a fresh copy otherwise), so mutating the
   arrays inside the published entry races with nobody; the publish lock
   is still taken so a concurrent build of some other root republishing
   the snapshot map never interleaves with a table write.  Each patch is
   O(per-name array) array splicing — no tree walk beyond the changed
   subtree, no reparse. *)

(* Splice a contiguous ascending run (one inserted subtree's nodes of a
   given name; their nid interval is disjoint from every existing entry)
   into a sorted array. *)
let splice_run (arr : Node.t array) (add : Node.t array) : Node.t array =
  let n = Array.length arr and k = Array.length add in
  if k = 0 then arr
  else begin
    let p = lower_bound arr add.(0).Node.nid in
    let out = Array.make (n + k) add.(0) in
    Array.blit arr 0 out 0 p;
    Array.blit add 0 out p k;
    Array.blit arr p out (p + k) (n - p);
    out
  end

(* Drop every entry with nid in [lo, hi). *)
let remove_range (arr : Node.t array) (lo : int) (hi : int) : Node.t array =
  let i = lower_bound arr lo and j = lower_bound arr hi in
  if j <= i then arr
  else begin
    let n = Array.length arr in
    let out = Array.make (n - (j - i)) arr.(0) in
    Array.blit arr 0 out 0 i;
    Array.blit arr j out i (n - j);
    out
  end

(* Per-name node lists (document order) plus the node count of one
   subtree — the unit of insertion and deletion. *)
let collect_names (sub : Node.t) =
  let elems : (string, Node.t list ref) Hashtbl.t = Hashtbl.create 8 in
  let attrs : (string, Node.t list ref) Hashtbl.t = Hashtbl.create 4 in
  let all = ref [] in
  let count = ref 0 in
  let push tbl name n =
    match Hashtbl.find_opt tbl name with
    | Some l -> l := n :: !l
    | None -> Hashtbl.add tbl name (ref [ n ])
  in
  let rec go n =
    incr count;
    (match n.Node.desc with
    | Node.Element e ->
        push elems e.ename n;
        all := n :: !all
    | Node.Attribute a -> push attrs a.aname n
    | Node.Document _ | Node.Text _ | Node.Comment _ | Node.Pi _ -> ());
    List.iter go (Node.attributes n);
    List.iter go (Node.children n)
  in
  go sub;
  (elems, attrs, List.rev !all, !count)

(* Replace one name's node array and its count together, so the
   planner's summary stays equal to the array lengths under patching. *)
let set_names (arrays, counts) name arr =
  Hashtbl.replace arrays name arr;
  Hashtbl.replace counts name (Array.length arr)

let elem_tables ix = (ix.ix_elems, ix.ix_counts.k_elems)
let attr_tables ix = (ix.ix_attrs, ix.ix_counts.k_attrs)

(* [sub] was just placed (ids assigned) under [root]: merge its nodes
   into the live per-name arrays.  [false] = no live index to patch. *)
let patch_insert (root : Node.t) (sub : Node.t) : bool =
  match live_index root with
  | None -> false
  | Some ix ->
      let elems, attrs, all, count = collect_names sub in
      Obs.with_lock lock (fun () ->
          let add tbls name ns =
            let cur =
              Option.value (Hashtbl.find_opt (fst tbls) name) ~default:empty_array
            in
            set_names tbls name (splice_run cur (Array.of_list ns))
          in
          Hashtbl.iter (fun name l -> add (elem_tables ix) name !l) elems;
          Hashtbl.iter (fun name l -> add (attr_tables ix) name !l) attrs;
          if all <> [] then add (elem_tables ix) "*" all;
          ix.ix_counts.k_nodes <- ix.ix_counts.k_nodes + count);
      true

(* [sub] is being detached from [root] (ids still intact): remove its
   whole nid interval from every affected per-name array. *)
let patch_delete (root : Node.t) (sub : Node.t) : bool =
  match live_index root with
  | None -> false
  | Some ix ->
      let elems, attrs, all, count = collect_names sub in
      let lo = sub.Node.nid and hi = Node.interval_end sub in
      Obs.with_lock lock (fun () ->
          let rm tbls name =
            match Hashtbl.find_opt (fst tbls) name with
            | Some arr -> set_names tbls name (remove_range arr lo hi)
            | None -> ()
          in
          Hashtbl.iter (fun name _ -> rm (elem_tables ix) name) elems;
          Hashtbl.iter (fun name _ -> rm (attr_tables ix) name) attrs;
          if all <> [] then rm (elem_tables ix) "*";
          ix.ix_counts.k_nodes <- ix.ix_counts.k_nodes - count);
      true

(* [n] was renamed in place (same nid): move it between name buckets.
   The "*" array is name-independent and needs no change. *)
let patch_rename (root : Node.t) (n : Node.t) ~(old_name : string) : bool =
  match live_index root with
  | None -> false
  | Some ix -> (
      let tbls =
        match n.Node.desc with
        | Node.Element _ -> Some (elem_tables ix)
        | Node.Attribute _ -> Some (attr_tables ix)
        | Node.Document _ | Node.Text _ | Node.Comment _ | Node.Pi _ -> None
      in
      match (tbls, Node.name n) with
      | Some tbls, Some new_name when not (String.equal old_name new_name) ->
          Obs.with_lock lock (fun () ->
              (match Hashtbl.find_opt (fst tbls) old_name with
              | Some arr ->
                  set_names tbls old_name
                    (remove_range arr n.Node.nid (n.Node.nid + 1))
              | None -> ());
              let cur =
                Option.value (Hashtbl.find_opt (fst tbls) new_name) ~default:empty_array
              in
              set_names tbls new_name (splice_run cur [| n |]));
          true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Statistics API (physical planner)                                   *)
(* ------------------------------------------------------------------ *)

type stats = { st_roots : int; st_nodes : int }

(* Statistics read the snapshot lock-free too (the planner calls these
   on every plan), and only through the count summaries and
   [Weak.check]: they never touch a root, so they cannot revive a dead
   one.  Dead slots are skipped here and dropped by the next publish. *)
let fold_live (f : counts -> 'a -> 'a) (init : 'a) : 'a =
  IntMap.fold
    (fun _ s acc ->
      match s.s_counts with Some k when root_alive s -> f k acc | Some _ | None -> acc)
    (Stdlib.Atomic.get snapshot) init

let stats () : stats =
  fold_live
    (fun k acc -> { st_roots = acc.st_roots + 1; st_nodes = acc.st_nodes + k.k_nodes })
    { st_roots = 0; st_nodes = 0 }

(* Exact per-qname cardinality summed over every live index.  [None]
   when no index is live (or lookups are off), in which case the planner
   falls back to its selectivity defaults. *)
let name_count (tbl : counts -> (string, int) Hashtbl.t) (name : string) : int option =
  if !mode = Off then None
  else
    fold_live
      (fun k acc ->
        let c = Option.value (Hashtbl.find_opt (tbl k) name) ~default:0 in
        Some (c + Option.value acc ~default:0))
      None

let element_count (name : string) : int option = name_count (fun k -> k.k_elems) name
let attribute_count (name : string) : int option = name_count (fun k -> k.k_attrs) name

let total_elements () : int option = element_count "*"
