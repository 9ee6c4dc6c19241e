(* MVCC snapshot isolation for updatable documents.

   Each registered document uri has a head version — a root node plus a
   reader refcount.  Readers pin the head at admission and keep that
   exact tree for the whole request, whatever writers do meanwhile;
   writers serialize per document and choose between two publication
   strategies:

     - no admitted readers: apply the pending updates *in place*,
       patching the live indexes incrementally (the fast path the
       gapped numbering exists for).  Admissions arriving mid-apply
       wait on the entry's condition until the new state is published —
       they can never observe a half-applied tree.

     - readers hold the snapshot: evaluate and apply against a deep
       copy, then publish the copy as the new head.  Nobody waits; the
       old version retires, and its tree — structural indexes included
       — is freed once its last reader unpins and drops it.

   A global generation counter bumps on every publish; the plan cache
   keys on it, so compiled plans never outlive the document state they
   were costed against.  [live_versions] gauges how many versions are
   currently reachable (heads plus retired-but-pinned snapshots). *)

open Xqc_xml
module Obs = Xqc_obs.Obs
module Store = Xqc_store.Store

exception Unknown_document of string

type version = {
  v_root : Node.t;
  mutable v_id : int;  (** bumped on every publish, including in-place *)
  mutable v_readers : int;
  mutable v_retired : bool;
}

type entry = {
  e_wlock : Obs.tmutex;  (* one writer at a time per document *)
  e_m : Mutex.t;  (* admission gate: guards head/readers/blocked *)
  e_c : Condition.t;
  mutable e_blocked : bool;  (* in-place apply running: admissions wait *)
  mutable e_head : version;
}

let registry : (string, entry) Hashtbl.t = Hashtbl.create 8
let reg_lock = Obs.tmutex "update.version.registry"
let vid_counter = Stdlib.Atomic.make 0
let fresh_vid () = Stdlib.Atomic.fetch_and_add vid_counter 1 + 1

let live = Stdlib.Atomic.make 0
let live_versions () = Stdlib.Atomic.get live

let generation_counter = Stdlib.Atomic.make 0
let generation () = Stdlib.Atomic.get generation_counter
let bump_generation () = ignore (Stdlib.Atomic.fetch_and_add generation_counter 1)

(* A version nothing can reach any more.  Its structural indexes need no
   purge: the store frees each index together with its root. *)
let drop_version () : unit = ignore (Stdlib.Atomic.fetch_and_add live (-1))

let find (uri : string) : entry option =
  Obs.with_lock reg_lock (fun () -> Hashtbl.find_opt registry uri)

let registered () : string list =
  Obs.with_lock reg_lock (fun () ->
      List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) registry []))

let register (uri : string) (root : Node.t) : unit =
  (* the initial gap numbering, not counted as a full-renumber
     fallback; it keeps the preorder, so the index the loader built
     moves to the new root id instead of being rebuilt *)
  Store.renumber_keeping Node.renumber_gapped root;
  let v = { v_root = root; v_id = fresh_vid (); v_readers = 0; v_retired = false } in
  ignore (Stdlib.Atomic.fetch_and_add live 1);
  Obs.with_lock reg_lock (fun () ->
      match Hashtbl.find_opt registry uri with
      | Some e ->
          Mutex.lock e.e_m;
          let old = e.e_head in
          old.v_retired <- true;
          e.e_head <- v;
          let dead = old.v_readers = 0 in
          Mutex.unlock e.e_m;
          if dead then drop_version ();
          bump_generation ()
      | None ->
          Hashtbl.replace registry uri
            {
              e_wlock = Obs.tmutex ("update.write." ^ uri);
              e_m = Mutex.create ();
              e_c = Condition.create ();
              e_blocked = false;
              e_head = v;
            })

let head (uri : string) : version option =
  Option.map (fun e -> e.e_head) (find uri)

(* Admission: pin the head version.  Waits only while an in-place apply
   is publishing; never waits on copy-path writers. *)
let pin (uri : string) : version option =
  match find uri with
  | None -> None
  | Some e ->
      Mutex.lock e.e_m;
      while e.e_blocked do
        Condition.wait e.e_c e.e_m
      done;
      let v = e.e_head in
      v.v_readers <- v.v_readers + 1;
      Mutex.unlock e.e_m;
      Some v

let unpin (uri : string) (v : version) : unit =
  match find uri with
  | None -> ()
  | Some e ->
      Mutex.lock e.e_m;
      v.v_readers <- v.v_readers - 1;
      let dead = v.v_retired && v.v_readers = 0 in
      Mutex.unlock e.e_m;
      if dead then drop_version ()

(* Serialize a write on [uri].  [f] receives the tree to evaluate and
   apply the script against and whether that tree is the live head
   ([in_place:true], exclusive — index patches hit the live caches) or
   a fresh copy to be published afterwards ([in_place:false]). *)
let with_write (uri : string) (f : Node.t -> in_place:bool -> 'a) : 'a =
  match find uri with
  | None -> raise (Unknown_document uri)
  | Some e ->
      Obs.with_lock e.e_wlock (fun () ->
          Mutex.lock e.e_m;
          let hd = e.e_head in
          let exclusive = hd.v_readers = 0 in
          if exclusive then e.e_blocked <- true;
          Mutex.unlock e.e_m;
          if exclusive then (
            let release publish =
              Mutex.lock e.e_m;
              if publish then hd.v_id <- fresh_vid ();
              e.e_blocked <- false;
              Condition.broadcast e.e_c;
              Mutex.unlock e.e_m
            in
            match f hd.v_root ~in_place:true with
            | r ->
                bump_generation ();
                release true;
                r
            | exception ex ->
                release false;
                raise ex)
          else
            let root' = Node.copy_fresh hd.v_root in
            Node.renumber_gapped root';
            (* index the copy before the script runs: its changes then
               patch the index, and plans costed on the new head count
               it *)
            ignore (Store.index_nodes root');
            let r = f root' ~in_place:false in
            let v' = { v_root = root'; v_id = fresh_vid (); v_readers = 0; v_retired = false } in
            ignore (Stdlib.Atomic.fetch_and_add live 1);
            Mutex.lock e.e_m;
            let old = e.e_head in
            old.v_retired <- true;
            e.e_head <- v';
            let dead = old.v_readers = 0 in
            Mutex.unlock e.e_m;
            if dead then drop_version ();
            bump_generation ();
            r)

(* Test support: drop every registration (pinned snapshots keep their
   trees, and so their indexes, alive until unpinned). *)
let clear () : unit =
  Obs.with_lock reg_lock (fun () ->
      Hashtbl.iter
        (fun _ e ->
          Mutex.lock e.e_m;
          let hd = e.e_head in
          hd.v_retired <- true;
          let dead = hd.v_readers = 0 in
          Mutex.unlock e.e_m;
          if dead then drop_version ())
        registry;
      Hashtbl.reset registry)
