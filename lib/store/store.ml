(* Indexed document store: interval-encoded structural name indexes.

   Every numbered tree already carries a pre/size interval encoding —
   preorder ids ([Node.nid]) plus cached subtree extents — so "m is a
   descendant of n" is the integer test

     n.nid < m.nid && m.nid < n.nid + n.extent

   On top of that, this module keeps one index per document root: for
   each element qname, the array of elements with that name in document
   (= nid) order, plus an array holding every element, and a count per
   attribute qname for the planner.  The index answers exactly one kind
   of step, a name test on the descendant or descendant-or-self axis:
   two binary searches delimit the qname's nid range inside the context
   node's interval.

     descendant::t          the sub-array  (n.nid, n.nid + n.extent)
     descendant-or-self::t  the same with the lower bound closed
     fn:count(//t)          hi - lo, no node is touched at all
     fn:exists(//t)         hi > lo

   Child and attribute steps scan the node's own lists: those are
   short, and a name range filtered by parent identity was never
   measurably faster than that scan.

   Where indexes come from: a parsed document brings its own.  The XML
   loader appends every element to its name's array as it creates the
   node ([Xml_parser.parse_with_names]), and [adopt] publishes the
   arrays when the parse ends, so loading a document costs no second
   walk.  A tree built at run time (constructors, the workload
   generators) is indexed lazily on its first descendant step by
   [build]: one preorder walk that fills the same arrays through the
   same appender ([Xml_parser.index_node]).  A run-time tree of fewer
   than [lazy_min_extent] nodes is walked instead: scanning it costs
   less than indexing it; [index_nodes] indexes a tree of any size.

   An axis step resolves the index once per invocation, not once per
   context node: a [resolver] remembers the last root it saw, that
   root's entry and the name's arrays, and is reused while the context
   nodes share the root.

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

   Slots are keyed by the root's nid.  [Node.renumber] and
   [Node.renumber_gapped] report the nid they moved a root from, and the
   slot under it is dropped ([purge_nid]), so a renumbered root rebuilds
   on its next descendant step and never leaves a second slot behind.  Where the
   renumber keeps the preorder and the caller knows it
   ([Version.register]'s gap numbering of a freshly parsed document),
   [renumber_keeping] moves the slot to the new nid instead.  Nodes
   copied out of an indexed tree ([Node.copy]) are fresh nodes in a
   fresh tree and never alias old intervals.

   The lazy build also verifies the preorder invariant (strictly
   ascending nids); an assembled tree that was never renumbered as a
   whole is recorded as unindexable and served by the walking fallback.
   All decisions are counted in the obs global counters (index_builds /
   index_hits / index_fallbacks) so EXPLAIN ANALYZE and --stats-json
   show which path ran. *)

open Xqc_xml
module Obs = Xqc_obs.Obs
module P = Xml_parser

(* Below this many nodes a run-time tree is walked, not lazily indexed. *)
let lazy_min_extent = 64

(* The walking reference the tests hold the index to: while set, every
   step walks as if no tree were indexed.  Only [resolve] reads it. *)
let walk_only = ref false

let c_builds = Obs.global_counter "index_builds"
let c_build_nodes = Obs.global_counter "index_build_nodes"
let c_hits = Obs.global_counter "index_hits"
let c_fallbacks = Obs.global_counter "index_fallbacks"

(* Per-name cardinalities of one indexed tree: what the planner reads.
   It holds no [Node.t], so a slot's statistics never keep a tree
   alive. *)
type counts = {
  k_elems : (string, int) Hashtbl.t;  (* element qname -> count; "*" -> every element *)
  k_attrs : (string, int) Hashtbl.t;  (* attribute qname -> count *)
  mutable k_nodes : int;  (* nodes in the tree when indexed (patched on update) *)
}

type index = {
  ix_names : P.names;
      (* qname -> its elements in nid order and its attribute count;
         [all]: every element (the "*" entry) *)
  ix_counts : counts;  (* kept equal to the array lengths and counts *)
}

(* An entry remembers unindexable roots too, so a tree that violates the
   preorder invariant is not re-walked on every query. *)
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

   The tmutex guards only the publish path ([publish], [purge_nid],
   [clear]), never a read.  Publishing copies the map
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
   refuses extent <= 0).  The per-name node arrays inside an [index] do
   not change once published, except through the update patches below,
   which run with no readers; so they are read lock-free. *)
let lock = Obs.tmutex "store_publish"

module IntMap = Map.Make (Int)

let snapshot : slot IntMap.t Stdlib.Atomic.t = Stdlib.Atomic.make IntMap.empty

let clear () = Obs.with_lock lock (fun () -> Stdlib.Atomic.set snapshot IntMap.empty)

let root_alive s = Weak.check s.s_root 0

(* Lookup path only: the caller holds [root], so querying the ephemeron
   cannot revive anything. *)
let find_entry (m : slot IntMap.t) (root : Node.t) : entry option =
  match IntMap.find root.Node.nid m with
  | s -> Ephemeron.K1.query s.s_entry root
  | exception Not_found -> None

let make_slot (root : Node.t) (e : entry) : slot =
  let w = Weak.create 1 in
  Weak.set w 0 (Some root);
  let counts = match e with Indexed ix -> Some ix.ix_counts | Unindexable -> None in
  { s_entry = Ephemeron.K1.make root e; s_root = w; s_counts = counts }

(* Shared by every name an index does not hold; never appended to. *)
let no_nodes : P.nodes = { P.items = [||]; len = 0 }

(* The planner's summary of [names]: one count per name, no nodes. *)
let counts_of (names : P.names) (nodes : int) : counts =
  let k_elems = Hashtbl.create (Hashtbl.length names.P.by_name + 1) in
  let k_attrs = Hashtbl.create 16 in
  Hashtbl.iter
    (fun q (nm : P.name) ->
      if nm.P.elems.P.len > 0 then Hashtbl.replace k_elems q nm.P.elems.P.len;
      if nm.P.attr_count > 0 then Hashtbl.replace k_attrs q nm.P.attr_count)
    names.P.by_name;
  Hashtbl.replace k_elems "*" names.P.all.P.len;
  { k_elems; k_attrs; k_nodes = nodes }

let index_of (names : P.names) (nodes : int) : entry =
  Obs.incr_counter c_builds;
  Obs.add_counter c_build_nodes nodes;
  Indexed { ix_names = names; ix_counts = counts_of names nodes }

(* The lazy index of a tree built at run time: one preorder walk that
   appends each node to its name's arrays (the loader's appender),
   re-derives subtree extents (covering trees numbered before extent
   caching existed), and verifies that nids are strictly ascending. *)
let build (root : Node.t) : entry =
  let names = P.create_names () in
  let last = ref (root.Node.nid - 1) in
  let preorder = ref true in
  let count = ref 0 in
  let rec go n =
    if n.Node.nid <= !last then preorder := false;
    last := n.Node.nid;
    let start = !count in
    incr count;
    P.index_node names n;
    List.iter go (Node.attributes n);
    List.iter go (Node.children n);
    (* re-derive the extent only when it was never cached: on
       gap-numbered (updatable) trees the extent is the reserved
       interval width, which a node-count walk must not clobber *)
    if n.Node.extent = 0 then n.Node.extent <- !count - start
  in
  go root;
  if !preorder then index_of names !count else Unindexable

(* Publish [e] as [root]'s entry under the lock.  The loser of a racing
   publish discards its entry and gets the winner's.  Slots of dead
   roots are dropped as part of assembling the new version. *)
let publish (root : Node.t) (e : entry) : entry =
  Obs.with_lock lock (fun () ->
      let m = Stdlib.Atomic.get snapshot in
      match find_entry m root with
      | Some e' -> e'
      | None ->
          let live = IntMap.filter (fun _ s -> root_alive s) m in
          Stdlib.Atomic.set snapshot (IntMap.add root.Node.nid (make_slot root e) live);
          e)

(* Resolve: lock-free snapshot lookup (the hot path — no mutex, no
   write, just an [Atomic.get] and a functional [Map] descent), unlocked
   build on miss, then a locked re-check-and-publish.  [lazily]: a miss
   on a tree of fewer than [lazy_min_extent] nodes is walked, with
   nothing built or published (the next miss judges it again by one
   comparison). *)
let entry_for ~lazily (root : Node.t) : entry =
  match find_entry (Stdlib.Atomic.get snapshot) root with
  | Some e -> e
  | None when lazily && root.Node.extent > 0 && root.Node.extent < lazy_min_extent -> Unindexable
  | None -> publish root (build root)

(* A parsed document's index, handed over by the loader: published as
   is, with no walk. *)
let adopt (root : Node.t) (names : P.names) : unit =
  ignore (publish root (index_of names root.Node.extent))

(* Drop the slot keyed [nid]: the root it was built for has moved to
   another nid.  Both [Node] renumbers call this, so a renumbered root
   leaves no stale slot counting in the statistics. *)
let purge_nid (nid : int) : unit =
  if IntMap.mem nid (Stdlib.Atomic.get snapshot) then
    Obs.with_lock lock (fun () ->
        let m = Stdlib.Atomic.get snapshot in
        if IntMap.mem nid m then Stdlib.Atomic.set snapshot (IntMap.remove nid m))

let () = Node.renumbered := purge_nid

(* [renumber root], keeping its index: valid only when [renumber]
   leaves the preorder as it was, so every per-name array stays
   sorted. *)
let renumber_keeping (renumber : Node.t -> unit) (root : Node.t) : unit =
  let kept = find_entry (Stdlib.Atomic.get snapshot) root in
  renumber root;
  Option.iter (fun e -> ignore (publish root e)) kept

(* ------------------------------------------------------------------ *)
(* Per-step resolution                                                 *)
(* ------------------------------------------------------------------ *)

(* One step invocation's view of the store for one name.  Resolving a
   context node's index walks up to its root, looks the root up in the
   snapshot, queries the slot's ephemeron and hashes the name; a
   resolver does that once per root and reuses the name's arrays while
   the context nodes share it.  It lives for one invocation only: a
   compiled plan runs on several server domains at once, and the tree
   it was resolved against may be gone by the next run. *)
type resolver = {
  rv_name : string;
  mutable rv_root : Node.t;  (* the tree the fields below describe *)
  mutable rv_indexed : bool;  (* false: that tree is walked *)
  mutable rv_elems : P.nodes;
}

(* Stands for "no tree yet": it is nobody's root.  Past the first
   context node of a tree, resolving allocates nothing; the resolver
   itself is the only allocation an invocation adds. *)
let no_root = Node.text ""

let resolver (name : string) : resolver =
  { rv_name = name; rv_root = no_root; rv_indexed = false; rv_elems = no_nodes }

(* Point [r] at [n]'s tree; counts one hit or one fallback per context
   node.  [false]: walk. *)
let resolve (r : resolver) (n : Node.t) : bool =
  if !walk_only then false
  else begin
    let root = Node.root n in
    if root != r.rv_root then begin
      r.rv_root <- root;
      match entry_for ~lazily:true root with
      | Unindexable -> r.rv_indexed <- false
      | Indexed ix ->
          r.rv_indexed <- true;
          r.rv_elems <-
            (if String.equal r.rv_name "*" then ix.ix_names.P.all
             else
               match Hashtbl.find ix.ix_names.P.by_name r.rv_name with
               | nm -> nm.P.elems
               | exception Not_found -> no_nodes)
    end;
    Obs.incr_counter (if r.rv_indexed then c_hits else c_fallbacks);
    r.rv_indexed
  end

(* Smallest i < v.len with v.items.(i).nid >= lo, or v.len. *)
let lower_bound (v : P.nodes) (lo : int) : int =
  let a = ref 0 and b = ref v.P.len in
  while !a < !b do
    let m = (!a + !b) / 2 in
    if v.P.items.(m).Node.nid < lo then a := m + 1 else b := m
  done;
  !a

(* The name's occurrence range inside [n]'s subtree interval:
   [(arr, i, j)] with the matches at positions [i, j).  [self] closes
   the lower bound (descendant-or-self).  [None] when no index serves
   the tree or [n]'s extent is unknown. *)
let name_range ?(self = false) (r : resolver) (n : Node.t) : (Node.t array * int * int) option =
  if not (resolve r n) then None
  else if n.Node.extent <= 0 then begin
    (* not part of the indexed interval numbering: fall back *)
    Obs.incr_counter c_fallbacks;
    None
  end
  else
    let v = r.rv_elems in
    let lo = if self then n.Node.nid else n.Node.nid + 1 in
    let hi = n.Node.nid + n.Node.extent in
    Some (v.P.items, lower_bound v lo, lower_bound v hi)

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

let descendants ?self r n : Node.t list option =
  Option.map (fun (arr, i, j) -> slice_list arr i j) (name_range ?self r n)

let descendants_seq ?self r n : Node.t Seq.t option =
  Option.map (fun (arr, i, j) -> slice_seq arr i j) (name_range ?self r n)

let count_descendants ?self r n : int option =
  Option.map (fun (_, i, j) -> j - i) (name_range ?self r n)

let exists_descendant ?self r n : bool option =
  Option.map (fun (_, i, j) -> j > i) (name_range ?self r n)

(* The index serving [n]'s tree, building it on first use whatever its
   size.  [None]: the tree is unindexable. *)
let index_for (n : Node.t) : index option =
  match entry_for ~lazily:false (Node.root n) with
  | Indexed ix ->
      Obs.incr_counter c_hits;
      Some ix
  | Unindexable ->
      Obs.incr_counter c_fallbacks;
      None

let index_nodes n : int option = Option.map (fun ix -> ix.ix_counts.k_nodes) (index_for n)

type contents = {
  c_elements : (string * Node.t array) list;
  c_element_counts : (string * int) list;
  c_attribute_counts : (string * int) list;
  c_nodes : int;
}

let contents n : contents option =
  let sorted l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
  let filled (v : P.nodes) = Array.sub v.P.items 0 v.P.len in
  let arrays (names : P.names) =
    Hashtbl.fold
      (fun q (nm : P.name) acc -> if nm.P.elems.P.len > 0 then (q, filled nm.P.elems) :: acc else acc)
      names.P.by_name []
  in
  let counts t = sorted (List.of_seq (Hashtbl.to_seq t)) in
  Option.map
    (fun ix ->
      let names = ix.ix_names in
      {
        c_elements = sorted (("*", filled names.P.all) :: arrays names);
        c_element_counts = counts ix.ix_counts.k_elems;
        c_attribute_counts = counts ix.ix_counts.k_attrs;
        c_nodes = ix.ix_counts.k_nodes;
      })
    (index_for n)

(* ------------------------------------------------------------------ *)
(* Incremental maintenance (the update subsystem)                      *)
(* ------------------------------------------------------------------ *)

(* Look up the live index of [root] without building on miss: update
   patching must only touch indexes that already exist. *)
let live_index (root : Node.t) : index option =
  match find_entry (Stdlib.Atomic.get snapshot) root with
  | Some (Indexed ix) -> Some ix
  | Some Unindexable | None -> None

(* In-place patching of the per-name arrays and counts.  Only the update subsystem
   calls these, and only on a document version with no admitted readers
   (the MVCC writer builds a fresh copy otherwise), so mutating the
   arrays inside the published entry races with nobody; the publish lock
   is still taken so a concurrent build of some other root republishing
   the snapshot map never interleaves with a table write.  Each patch is
   O(per-name array) array splicing — no tree walk beyond the changed
   subtree, no reparse. *)

(* Both patches build their new array from the existing ones, never with
   [Array.make]: a major-heap-sized [Array.make] whose initial value is
   young (the node just inserted, or one inserted a moment ago) runs a
   minor collection first, and that stops every server worker domain. *)

(* Splice a contiguous ascending run (one inserted subtree's nodes of a
   given name; their nid interval is disjoint from every existing entry)
   into a sorted array.  The new array is [add]'s run followed by [v]'s
   array, capacity and all; the run then moves to its place. *)
let splice_run (v : P.nodes) (add : P.nodes) : unit =
  let n = v.P.len and k = add.P.len in
  if k > 0 then begin
    let p = lower_bound v add.P.items.(0).Node.nid in
    let out = Array.append (Array.sub add.P.items 0 k) v.P.items in
    Array.blit out k out 0 p;
    Array.blit add.P.items 0 out p k;
    v.P.items <- out;
    v.P.len <- n + k
  end

(* Drop every entry with nid in [lo, hi). *)
let remove_range (v : P.nodes) (lo : int) (hi : int) : unit =
  let i = lower_bound v lo and j = lower_bound v hi in
  if j > i then begin
    let n = v.P.len in
    let out = Array.sub v.P.items 0 (n - (j - i)) in
    Array.blit v.P.items j out i (n - j);
    v.P.items <- out;
    v.P.len <- n - (j - i)
  end

(* The per-name element arrays and attribute counts plus the node count
   of one subtree — the unit of insertion and deletion — gathered by
   the same appender. *)
let collect_names (sub : Node.t) : P.names * int =
  let names = P.create_names () in
  let count = ref 0 in
  let rec go n =
    incr count;
    P.index_node names n;
    List.iter go (Node.attributes n);
    List.iter go (Node.children n)
  in
  go sub;
  (names, !count)

(* Add [d] to the attribute count of [q], in the index and in the
   planner's summary. *)
let add_attrs (ix : index) (q : string) (d : int) : unit =
  let nm = P.intern ix.ix_names q in
  nm.P.attr_count <- nm.P.attr_count + d;
  Hashtbl.replace ix.ix_counts.k_attrs q nm.P.attr_count

(* Apply [f] to the index's element array of every name [sub] holds,
   next to [sub]'s own array, then set the name's count to the new
   length, so the planner's summary stays equal to the array lengths;
   add [sign] times [sub]'s attribute counts. *)
let patch_names (ix : index) (sub : P.names) ~(sign : int) (f : P.nodes -> P.nodes -> unit) : unit =
  let patch q (v : P.nodes) (add : P.nodes) =
    if add.P.len > 0 then begin
      f v add;
      Hashtbl.replace ix.ix_counts.k_elems q v.P.len
    end
  in
  Hashtbl.iter
    (fun q (nm : P.name) ->
      patch q (P.intern ix.ix_names q).P.elems nm.P.elems;
      if nm.P.attr_count > 0 then add_attrs ix q (sign * nm.P.attr_count))
    sub.P.by_name;
  patch "*" ix.ix_names.P.all sub.P.all

(* [sub] was just placed (ids assigned) under [root]: merge its nodes
   into the live per-name arrays.  [false] = no live index to patch. *)
let patch_insert (root : Node.t) (sub : Node.t) : bool =
  match live_index root with
  | None -> false
  | Some ix ->
      let names, count = collect_names sub in
      Obs.with_lock lock (fun () ->
          patch_names ix names ~sign:1 splice_run;
          ix.ix_counts.k_nodes <- ix.ix_counts.k_nodes + count);
      true

(* [sub] is being detached from [root] (ids still intact): remove its
   whole nid interval from every affected per-name array. *)
let patch_delete (root : Node.t) (sub : Node.t) : bool =
  match live_index root with
  | None -> false
  | Some ix ->
      let names, count = collect_names sub in
      let lo = sub.Node.nid and hi = Node.interval_end sub in
      Obs.with_lock lock (fun () ->
          patch_names ix names ~sign:(-1) (fun v _ -> remove_range v lo hi);
          ix.ix_counts.k_nodes <- ix.ix_counts.k_nodes - count);
      true

(* [n] was renamed in place (same nid): move it between name buckets
   (an attribute, between name counts).  The "*" array is
   name-independent and needs no change. *)
let patch_rename (root : Node.t) (n : Node.t) ~(old_name : string) : bool =
  match (live_index root, Node.name n) with
  | Some ix, Some new_name when not (String.equal old_name new_name) -> (
      match n.Node.desc with
      | Node.Element _ ->
          let k = ix.ix_counts.k_elems in
          Obs.with_lock lock (fun () ->
              let from = (P.intern ix.ix_names old_name).P.elems in
              remove_range from n.Node.nid (n.Node.nid + 1);
              Hashtbl.replace k old_name from.P.len;
              let into = (P.intern ix.ix_names new_name).P.elems in
              splice_run into { P.items = [| n |]; len = 1 };
              Hashtbl.replace k new_name into.P.len);
          true
      | Node.Attribute _ ->
          Obs.with_lock lock (fun () ->
              add_attrs ix old_name (-1);
              add_attrs ix new_name 1);
          true
      | Node.Document _ | Node.Text _ | Node.Comment _ | Node.Pi _ -> false)
  | _ -> false

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
   when no index is live, in which case the planner falls back to its
   selectivity defaults. *)
let name_count (tbl : counts -> (string, int) Hashtbl.t) (name : string) : int option =
  fold_live
    (fun k acc ->
      let c = Option.value (Hashtbl.find_opt (tbl k) name) ~default:0 in
      Some (c + Option.value acc ~default:0))
    None

let element_count (name : string) : int option = name_count (fun k -> k.k_elems) name
let attribute_count (name : string) : int option = name_count (fun k -> k.k_attrs) name

let total_elements () : int option = element_count "*"
