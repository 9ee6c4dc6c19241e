(* Fused-loop compiled execution tier.

   The closure evaluator interprets a tree of [comp] closures with a
   [Seq.t] thunk per tuple: every item that flows through a
   Select/map-family pipeline costs a tuple array, a cons cell and a
   closure invocation per operator.  This module lowers the hot shapes
   of that pipeline — index-range [PSteps] scans, single-variable
   Select/MapFromItem/MapToItem loops, and the streaming aggregates
   count / exists / sum over them — into a small loop IR: a flat array
   of instructions executed by a tight bytecode interpreter over
   register batches (growable [Node.t array]s).  On the fused path no
   per-tuple closure, tuple array or [Seq] node is allocated; an
   indexed descendant step is an [Array.blit] of the store's nid-range
   slice into the destination register.

   Deciding what to fuse is planner work, executed here at
   closure-compile time: [lower] pattern-matches a physical subplan and
   either produces a complete program for it or refuses, sending the
   evaluator down the interpreted tier (OrderBy, GroupBy, constructors,
   multi-variable pipelines and everything else stay interpreted, and a
   fused segment that meets an unsupported runtime shape raises
   [Fallback] so the evaluator can splice in its lazily compiled
   interpreted twin).

   Correctness protocol.  The interpreted tier maintains the XPath
   sorted-duplicate-free closure with [Node.sort_doc_order] after every
   strict step; the fused tier instead PROVES order statically and
   sorts at most once.  [chain_shape] tracks (sorted, non-nesting)
   through a downward step chain starting from a single context node
   (guarded at run time):

     child/attribute/self over a non-nesting batch preserve sortedness,
       uniqueness and non-nesting;
     child/attribute over a possibly-nesting batch stay unique (a node
       has one parent) but may lose document order;
     descendant[-or-self] over a non-nesting batch is sorted and unique
       but may nest its output;
     descendant over a possibly-nesting batch can duplicate — refused.

   Uniqueness is required everywhere (counts would overcount); when the
   final order is not provable an [ISort] instruction restores it — by
   then the batch is provably duplicate-free, so a plain sort by nid
   equals the interpreter's sort_doc_order.  Loop pipelines
   additionally sort the loop batch itself when unprovable, matching
   the strict evaluation order of the interpreted MapFromItem. *)

open Xqc_xml
open Xqc_types
open Xqc_frontend
module P = Xqc_algebra.Physical
module Store = Xqc_store.Store
module Obs = Xqc_obs.Obs

(* [Auto] fuses lowerable segments whose source-scan estimate clears
   [min_fuse_rows], [Force] fuses everything lowerable (tests), [Off]
   disables the tier.  The XQC_FUSE environment variable seeds the
   initial mode, mirroring XQC_INDEX. *)
type mode = Auto | Off | Force

let mode =
  ref
    (match Option.map String.lowercase_ascii (Sys.getenv_opt "XQC_FUSE") with
    | Some ("off" | "0" | "no") -> Off
    | Some ("force" | "always") -> Force
    | _ -> Auto)

let min_fuse_rows = ref 4.0

(* The compiled program met a runtime shape it does not handle (multi-
   node or atomic source, user-shadowed builtin): the evaluator catches
   this and runs the interpreted twin of the same subplan. *)
exception Fallback

let c_segments = Obs.global_counter "fused_segments"
let c_execs = Obs.global_counter "fused_execs"
let c_rows = Obs.global_counter "fused_rows"
let c_fallbacks = Obs.global_counter "fused_fallbacks"
let c_alloc_words = Obs.global_counter "fused_alloc_words"

(* ------------------------------------------------------------------ *)
(* IR                                                                  *)
(* ------------------------------------------------------------------ *)

(* A value path inside a per-node predicate: the node itself, a step
   chain from it, or a literal. *)
type vpath = VSelf | VSteps of P.pstep array | VConst of Atomic.t

type pred =
  | PExists of P.pstep array * bool  (* negated = fn:empty *)
  | PCompare of Promotion.cmp_op * vpath * vpath  (* general comparison *)

type load = LVar of string | LInput

type instr =
  | IStep of P.pstep  (* dst := step over every node of src, in order *)
  | IProbe of probe  (* dst := a collapsed step chain, one index range
                        probe + reverse parent-path checks per node *)
  | IFilter of pred  (* dst := the src nodes satisfying the predicate *)
  | ISort  (* restore document order in place (batch is duplicate-free) *)

(* A collapsed downward chain — child steps headed by one
   descendant[-or-self] step, ending in a concrete element name:
   instead of one store lookup per node per level, probe the store's
   descendant range of the FINAL name under the context node once and
   keep the candidates whose (unique) parent chain matches the
   reversed tests — pointer chasing and string equality per candidate.
   Set-equivalent to the stepwise chain: a candidate is reached
   stepwise iff its anchored reverse path matches, and the range is
   duplicate-free and document-ordered.

   Only descendant-headed chains collapse: there the interpreter must
   enumerate (a superset of) the same range anyway, so the probe is a
   strict win.  An all-child chain stays stepwise — its cost is
   proportional to the branch it actually narrows to, while a probe
   would pay for every candidate in the subtree (pathological when the
   chain is selective, e.g. one region out of six). *)
and probe = {
  pb_last : string;  (* the final child step's name — the range probed *)
  pb_rev : Ast.node_test array;
      (* parent tests, innermost first: parent^1 .. parent^(len) *)
  pb_desc : Ast.node_test * bool;
      (* the heading descendant step's test: the next parent after the
         reversed tests must match it and lie inside the context node's
         subtree (or equal it, when or-self) *)
  pb_steps : P.pstep array;
      (* the original chain, applied stepwise per node when the store
         cannot serve the range *)
}

type agg =
  | ACollect  (* the batch itself, as a node sequence *)
  | ACount
  | AExists of bool  (* negated = fn:empty *)
  | ASum  (* collected then folded by the fn:sum builtin (via env) *)

type prog = {
  fp_load : load;
  fp_body : instr array;
  fp_agg : agg;
  fp_tuple : string option;
      (* [Some q]: the segment feeds the tuple pipeline — every batch
         node becomes a single-field tuple with layout [q] *)
  fp_shadow : string list;
      (* builtin names baked into the program; a user declaration
         shadowing any of them forces the interpreted twin *)
  fp_est : float;  (* the source scan's estimated cardinality *)
}

let instr_count (p : prog) : int = 2 + Array.length p.fp_body
let tuple_field (p : prog) : string option = p.fp_tuple

(* ------------------------------------------------------------------ *)
(* Static order / uniqueness analysis                                  *)
(* ------------------------------------------------------------------ *)

type shape = { sh_sorted : bool; sh_nonnest : bool }

let single_node_shape = { sh_sorted = true; sh_nonnest = true }

let downward (s : P.pstep) : bool =
  match s.P.ps_axis with
  | Ast.Child | Ast.Descendant | Ast.Descendant_or_self | Ast.Attribute_axis
  | Ast.Self ->
      true
  | _ -> false

(* One step of the analysis; [None] means uniqueness is not provable
   and the chain cannot be fused for counting/collecting sinks. *)
let step_shape (sh : shape) (s : P.pstep) : shape option =
  match s.P.ps_axis with
  | Ast.Self -> Some sh
  | Ast.Child | Ast.Attribute_axis ->
      if sh.sh_nonnest then Some sh
      else Some { sh_sorted = false; sh_nonnest = false }
  | Ast.Descendant | Ast.Descendant_or_self ->
      if sh.sh_nonnest then Some { sh_sorted = sh.sh_sorted; sh_nonnest = false }
      else None
  | _ -> None

let chain_shape (steps : P.pstep list) : shape option =
  List.fold_left
    (fun acc s -> Option.bind acc (fun sh -> step_shape sh s))
    (Some single_node_shape) steps

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

(* A pipeline under construction: instructions in reverse order, the
   provable shape of the current batch, bookkeeping for the fuse
   decision and the explain rendering. *)
type pipe = {
  pl_load : load;
  pl_body : instr list;  (* reversed *)
  pl_shape : shape;
  pl_est : float;
  pl_shadow : string list;
}

let add_sort (pipe : pipe) : pipe =
  if pipe.pl_shape.sh_sorted then pipe
  else
    {
      pipe with
      pl_body = ISort :: pipe.pl_body;
      pl_shape = { pipe.pl_shape with sh_sorted = true };
    }

(* The item source of a loop or path segment: a variable or the
   dependent input, extended by downward step chains with provable
   uniqueness. *)
let rec lower_source (p : P.t) : pipe option =
  match p.P.pop with
  | P.PVar v ->
      Some
        {
          pl_load = LVar v;
          pl_body = [];
          pl_shape = single_node_shape;
          pl_est = p.P.pest.P.est_rows;
          pl_shadow = [];
        }
  | P.PInput ->
      Some
        {
          pl_load = LInput;
          pl_body = [];
          pl_shape = single_node_shape;
          pl_est = p.P.pest.P.est_rows;
          pl_shadow = [];
        }
  | P.PSteps { steps; input; _ } when steps <> [] && List.for_all downward steps
    -> (
      match lower_source input with
      | None -> None
      | Some pipe ->
          let rec absorb pipe sh = function
            | [] -> Some { pipe with pl_shape = sh }
            | s :: rest -> (
                match step_shape sh s with
                | None -> None
                | Some sh' ->
                    absorb
                      {
                        pipe with
                        pl_body = IStep s :: pipe.pl_body;
                        pl_est = Float.max pipe.pl_est s.P.ps_est;
                      }
                      sh' rest)
          in
          absorb pipe pipe.pl_shape steps)
  | _ -> None

let cmp_of_name = function
  | "op:general-eq" -> Some Promotion.Eq
  | "op:general-ne" -> Some Promotion.Ne
  | "op:general-lt" -> Some Promotion.Lt
  | "op:general-le" -> Some Promotion.Le
  | "op:general-gt" -> Some Promotion.Gt
  | "op:general-ge" -> Some Promotion.Ge
  | _ -> None

(* A value path over the loop variable [q].  Order and duplicates are
   irrelevant inside predicates (general comparison and emptiness are
   existential), so any downward chain qualifies. *)
let lower_vpath (q : string) (p : P.t) : vpath option =
  match p.P.pop with
  | P.PScalar a -> Some (VConst a)
  | P.PFieldAccess f when String.equal f q -> Some VSelf
  | P.PSteps { steps; input = { P.pop = P.PFieldAccess f; _ }; _ }
    when String.equal f q && steps <> [] && List.for_all downward steps ->
      Some (VSteps (Array.of_list steps))
  | _ -> None

let lower_pred (q : string) (p : P.t) : (pred * string list) option =
  match p.P.pop with
  | P.PCall (name, [ a; b ]) -> (
      match cmp_of_name name with
      | Some op -> (
          match (lower_vpath q a, lower_vpath q b) with
          | Some va, Some vb -> Some (PCompare (op, va, vb), [ name ])
          | _ -> None)
      | None -> None)
  | P.PCall (("fn:exists" | "fn:empty") as name, [ a ]) -> (
      match lower_vpath q a with
      | Some (VSteps ss) ->
          Some (PExists (ss, String.equal name "fn:empty"), [ name ])
      | _ -> None)
  | P.PCallStream (P.SExists neg, name, [ a ]) -> (
      match lower_vpath q a with
      | Some (VSteps ss) -> Some (PExists (ss, neg), [ name ])
      | _ -> None)
  | P.PSteps _ -> (
      (* bare path predicate: effective boolean value = non-emptiness *)
      match lower_vpath q p with
      | Some (VSteps ss) -> Some (PExists (ss, false), [])
      | _ -> None)
  | _ -> None

(* The single-variable tuple loop: Select* over
   MapFromItem([q := IN], source).  The loop batch must reproduce the
   strict iteration order of the interpreted MapFromItem, so an
   unprovable source order gets an ISort before any filter runs. *)
let rec lower_loop (p : P.t) : (string * pipe) option =
  match p.P.pop with
  | P.PMapFromItem
      ({ P.pop = P.PTupleConstruct [ (q, { P.pop = P.PInput; _ }) ]; _ }, src)
    -> (
      match lower_source src with
      | Some pipe -> Some (q, add_sort pipe)
      | None -> None)
  | P.PSelect (pred, input) -> (
      match lower_loop input with
      | Some (q, pipe) -> (
          match lower_pred q pred with
          | Some (pr, shadow) ->
              Some
                ( q,
                  {
                    pipe with
                    pl_body = IFilter pr :: pipe.pl_body;
                    pl_shadow = shadow @ pipe.pl_shadow;
                  } )
          | None -> None)
      | None -> None)
  | _ -> None

(* The MapToItem emission over the loop variable: the node itself or a
   step chain whose per-node output is provably sorted and unique (the
   batch-wise application then equals the per-tuple concatenation of
   the interpreted tier with no sort at all). *)
let lower_ret (q : string) (p : P.t) : instr list option =
  match p.P.pop with
  | P.PFieldAccess f when String.equal f q -> Some []
  | P.PSteps { steps; input = { P.pop = P.PFieldAccess f; _ }; _ }
    when String.equal f q && steps <> [] && List.for_all downward steps -> (
      match chain_shape steps with
      | Some sh when sh.sh_sorted ->
          Some (List.rev_map (fun s -> IStep s) steps)
      | _ -> None)
  | _ -> None

(* A complete item pipeline: either a whole FLWOR loop
   (MapToItem / Select* / MapFromItem) or a bare path.  The bare path
   carries XPath set semantics, so its final order must be restored
   when unprovable. *)
let lower_items (p : P.t) : pipe option =
  match p.P.pop with
  | P.PMapToItem (dep, input) -> (
      match lower_loop input with
      | Some (q, pipe) -> (
          match lower_ret q dep with
          | Some ret -> Some { pipe with pl_body = ret @ pipe.pl_body }
          | None -> None)
      | None -> None)
  | P.PSteps _ -> (
      match lower_source p with
      | Some pipe when pipe.pl_body <> [] -> Some (add_sort pipe)
      | _ -> None)
  | _ -> None

(* Counting and existence are insensitive to order: a trailing sort
   would be pure overhead. *)
let strip_trailing_sort (pipe : pipe) : pipe =
  match pipe.pl_body with
  | ISort :: rest -> { pipe with pl_body = rest }
  | _ -> pipe

(* ------------------------------------------------------------------ *)
(* Chain collapse                                                      *)
(* ------------------------------------------------------------------ *)

(* Rewrite runs of consecutive [IStep]s into [IProbe]s.  A run is split
   before every descendant step; each segment of length >= 2 —
   descendant[-or-self]::test followed by child steps — whose last
   step is child::name with a concrete name becomes one probe.

   Soundness needs no batch-shape reasoning: per context node the probe
   computes exactly the stepwise segment's result SET (the reverse
   parent path of a candidate is unique, so it matches the anchored
   tests iff some stepwise derivation reaches the candidate, and the
   admitted chains are duplicate-free by [step_shape]).  Only the ORDER
   can differ (per-node document order instead of level-by-level), and
   every admitted body either proved the stepwise order or carries an
   [ISort] downstream. *)
let collapse_steps (body : instr list) : instr list =
  let seg_instrs seg = List.map (fun s -> IStep s) seg in
  let probe_seg (seg : P.pstep list) : instr list =
    match List.rev seg with
    | last :: (_ :: _ as front_rev) -> (
        (* front_rev: steps k-1, k-2, ..., 1 — innermost parent first *)
        let mid_rev =
          List.filteri (fun i _ -> i < List.length front_rev - 1) front_rev
        in
        let first = List.nth front_rev (List.length front_rev - 1) in
        let mids_are_child =
          List.for_all (fun s -> s.P.ps_axis = Ast.Child) mid_rev
        in
        match (last.P.ps_axis, last.P.ps_test) with
        | Ast.Child, Ast.Name_test nm
          when (not (String.equal nm "*")) && mids_are_child -> (
            let mk desc =
              [
                IProbe
                  {
                    pb_last = nm;
                    pb_rev =
                      Array.of_list (List.map (fun s -> s.P.ps_test) mid_rev);
                    pb_desc = desc;
                    pb_steps = Array.of_list seg;
                  };
              ]
            in
            match first.P.ps_axis with
            | Ast.Descendant -> mk (first.P.ps_test, false)
            | Ast.Descendant_or_self -> mk (first.P.ps_test, true)
            | _ -> seg_instrs seg)
        | _ -> seg_instrs seg)
    | _ -> seg_instrs seg
  in
  (* split a forward run before each descendant step, probe each segment *)
  let collapse_run (run : P.pstep list) : instr list =
    let flush_seg segs seg = if seg = [] then segs else List.rev seg :: segs in
    let segs, seg =
      List.fold_left
        (fun (segs, seg) s ->
          match s.P.ps_axis with
          | Ast.Descendant | Ast.Descendant_or_self -> (flush_seg segs seg, [ s ])
          | _ -> (segs, s :: seg))
        ([], []) run
    in
    List.concat_map probe_seg (List.rev (flush_seg segs seg))
  in
  let rec go (ins : instr list) (run : P.pstep list) : instr list =
    match ins with
    | IStep s :: rest -> go rest (s :: run)
    | other :: rest -> collapse_run (List.rev run) @ (other :: go rest [])
    | [] -> collapse_run (List.rev run)
  in
  go body []

(* The fuse decision for one physical subplan.  [tab] says whether the
   consumer fully drains a tabular result — tuple-batch segments are
   only offered there, so early-terminating consumers (StreamSelect,
   quantifiers) keep their lazy cursors. *)
let lower ?(tab = false) (p : P.t) : prog option =
  if !mode = Off then None
  else
    let mk ?tuple ?(shadow = []) (pipe : pipe) (agg : agg) : prog option =
      if !mode = Auto && pipe.pl_est < !min_fuse_rows then None
      else begin
        Obs.incr_counter c_segments;
        Some
          {
            fp_load = pipe.pl_load;
            fp_body = Array.of_list (collapse_steps (List.rev pipe.pl_body));
            fp_agg = agg;
            fp_tuple = tuple;
            fp_shadow = shadow @ pipe.pl_shadow;
            fp_est = pipe.pl_est;
          }
      end
    in
    match p.P.pop with
    | P.PCall (("fn:count" | "fn:sum" | "fn:exists" | "fn:empty") as name, [ arg ])
      -> (
        let agg =
          match name with
          | "fn:count" -> ACount
          | "fn:sum" -> ASum
          | "fn:exists" -> AExists false
          | _ -> AExists true
        in
        match lower_items arg with
        | Some pipe ->
            let pipe =
              match agg with
              | ACount | AExists _ -> strip_trailing_sort pipe
              | ACollect | ASum -> pipe
            in
            mk ~shadow:[ name ] pipe agg
        | None -> None)
    | P.PMapToItem _ | P.PSteps _ -> (
        match lower_items p with Some pipe -> mk pipe ACollect | None -> None)
    | (P.PMapFromItem _ | P.PSelect _) when tab -> (
        match lower_loop p with
        | Some (q, pipe) -> mk ~tuple:q pipe ACollect
        | None -> None)
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* Everything the executor needs from the runtime arrives as callbacks,
   keeping this library independent of the evaluator (which depends on
   it): variable lookup, the dependent input, deadline checks, the
   shadowing test and the fn:sum builtin. *)
type env = {
  e_schema : Schema.t;
  e_lookup : string -> Item.sequence;
  e_input : unit -> Item.sequence;
  e_shadowed : string -> bool;
  e_check : unit -> unit;
  e_sum : Item.sequence -> Item.sequence;
}

(* Register batches: growable node arrays, reused across instructions
   of one execution. *)
type buf = { mutable bn : Node.t array; mutable blen : int }

let buf_make () = { bn = [||]; blen = 0 }
let buf_clear b = b.blen <- 0

let buf_reserve b extra n0 =
  let cap = Array.length b.bn in
  if b.blen + extra > cap then begin
    let ncap = max (b.blen + extra) (max 64 (cap * 2)) in
    let a = Array.make ncap n0 in
    Array.blit b.bn 0 a 0 b.blen;
    b.bn <- a
  end

let buf_push b n =
  buf_reserve b 1 n;
  b.bn.(b.blen) <- n;
  b.blen <- b.blen + 1

let buf_append_slice b arr i j =
  let len = j - i in
  if len > 0 then begin
    buf_reserve b len arr.(i);
    Array.blit arr i b.bn b.blen len;
    b.blen <- b.blen + len
  end

(* Mirrors the interpreted tier's [test_matches]: the principal node
   kind of the attribute axis is attribute, everything else element. *)
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

(* One step applied to one node, appending matches to [dst] in
   traversal (= per-node document) order.  An [Index_scan] resolves
   descendant ranges to an Array.blit of the store's slice and degrades
   to the walk when the store cannot serve the tree — exactly the
   interpreted tier's policy. *)
let apply_step ?(prefer_walk = false) env (s : P.pstep) (dst : buf) (n : Node.t)
    : unit =
  let axis = s.P.ps_axis and test = s.P.ps_test in
  let indexed =
    match (s.P.ps_impl, test) with
    (* predicate chains hop from a single node: for the sibling-local
       axes a direct scan of the (short) child/attribute list beats a
       store lookup, so skip the index there *)
    | P.Index_scan, Ast.Name_test _
      when prefer_walk && (axis = Ast.Child || axis = Ast.Attribute_axis) ->
        false
    | P.Index_scan, Ast.Name_test name -> (
        match axis with
        | Ast.Descendant -> (
            match Store.descendant_range n name with
            | Some (arr, i, j) ->
                buf_append_slice dst arr i j;
                true
            | None -> false)
        | Ast.Descendant_or_self -> (
            match Store.descendant_range ~self:true n name with
            | Some (arr, i, j) ->
                buf_append_slice dst arr i j;
                true
            | None -> false)
        | Ast.Child -> (
            match Store.children_by_name n name with
            | Some ms ->
                List.iter (buf_push dst) ms;
                true
            | None -> false)
        | Ast.Attribute_axis when not (String.equal name "*") -> (
            match Store.attributes_by_name n name with
            | Some ms ->
                List.iter (buf_push dst) ms;
                true
            | None -> false)
        | _ -> false)
    | _ -> false
  in
  if not indexed then
    match axis with
    | Ast.Self -> if test_matches env.e_schema axis test n then buf_push dst n
    | Ast.Attribute_axis ->
        List.iter
          (fun m -> if test_matches env.e_schema axis test m then buf_push dst m)
          (Node.attributes n)
    | Ast.Child ->
        List.iter
          (fun m -> if test_matches env.e_schema axis test m then buf_push dst m)
          (Node.children n)
    | Ast.Descendant ->
        let rec go m =
          List.iter
            (fun c ->
              if test_matches env.e_schema axis test c then buf_push dst c;
              go c)
            (Node.children m)
        in
        go n
    | Ast.Descendant_or_self ->
        if test_matches env.e_schema axis test n then buf_push dst n;
        let rec go m =
          List.iter
            (fun c ->
              if test_matches env.e_schema axis test c then buf_push dst c;
              go c)
            (Node.children m)
        in
        go n
    | _ -> raise Fallback

(* A predicate step chain applied to one node, using the caller's two
   scratch registers; returns the register holding the result. *)
let steps_into env (ss : P.pstep array) (x : buf) (y : buf) (n : Node.t) : buf =
  buf_clear x;
  buf_push x n;
  let src = ref x and dst = ref y in
  Array.iter
    (fun s ->
      buf_clear !dst;
      let sb = !src in
      for k = 0 to sb.blen - 1 do
        apply_step ~prefer_walk:true env s !dst sb.bn.(k)
      done;
      let t = !src in
      src := !dst;
      dst := t)
    ss;
  !src

let buf_items (b : buf) : Item.sequence =
  let out = ref [] in
  for k = b.blen - 1 downto 0 do
    out := Item.Node b.bn.(k) :: !out
  done;
  !out

(* Does candidate [c]'s parent chain match the probe's reversed tests,
   anchored at context node [n]?  Candidates come from [n]'s subtree
   range, so an ancestor lies inside the subtree iff its preorder id is
   at least [n]'s (ancestors of [n] have smaller ids). *)
let probe_matches env (pb : probe) (n : Node.t) (c : Node.t) : bool =
  let nrev = Array.length pb.pb_rev in
  let rec up i (m : Node.t) =
    match m.Node.parent with
    | None -> false
    | Some p ->
        if i < nrev then
          test_matches env.e_schema Ast.Child pb.pb_rev.(i) p && up (i + 1) p
        else
          let t, or_self = pb.pb_desc in
          test_matches env.e_schema Ast.Descendant t p
          && if or_self then p.Node.nid >= n.Node.nid
             else p.Node.nid > n.Node.nid
  in
  up 0 c

(* One probe applied to one node: range + reverse-path filter, or the
   saved stepwise chain when the store cannot serve the range.  [sx]
   and [sy] are the caller's scratch registers. *)
let apply_probe env (pb : probe) (dst : buf) (sx : buf) (sy : buf)
    (n : Node.t) : unit =
  match Store.descendant_range n pb.pb_last with
  | Some (arr, i, j) ->
      for k = i to j - 1 do
        let c = arr.(k) in
        if probe_matches env pb n c then buf_push dst c
      done
  | None ->
      let r = steps_into env pb.pb_steps sx sy n in
      buf_append_slice dst r.bn 0 r.blen

let pred_holds env sx sy (pr : pred) (n : Node.t) : bool =
  match pr with
  | PExists (ss, neg) ->
      let r = steps_into env ss sx sy n in
      let nonempty = r.blen > 0 in
      if neg then not nonempty else nonempty
  | PCompare (op, va, vb) ->
      let items = function
        | VSelf -> [ Item.Node n ]
        | VConst a -> [ Item.Atom a ]
        | VSteps ss -> buf_items (steps_into env ss sx sy n)
      in
      Promotion.general_compare op (items va) (items vb)

(* Run the instructions of [body] over the register pair, leaving the
   result in [!src]. *)
let exec_instrs env (body : instr array) (src : buf ref) (dst : buf ref)
    (px : buf) (py : buf) : unit =
  for idx = 0 to Array.length body - 1 do
    env.e_check ();
    (match body.(idx) with
    | IStep s ->
        buf_clear !dst;
        let sb = !src in
        for k = 0 to sb.blen - 1 do
          apply_step ~prefer_walk:true env s !dst sb.bn.(k)
        done;
        let t = !src in
        src := !dst;
        dst := t
    | IProbe pb ->
        buf_clear !dst;
        let sb = !src in
        for k = 0 to sb.blen - 1 do
          apply_probe env pb !dst px py sb.bn.(k)
        done;
        let t = !src in
        src := !dst;
        dst := t
    | IFilter pr ->
        buf_clear !dst;
        let sb = !src in
        for k = 0 to sb.blen - 1 do
          let n = sb.bn.(k) in
          if pred_holds env px py pr n then buf_push !dst n
        done;
        let t = !src in
        src := !dst;
        dst := t
    | ISort ->
        (* mirror the interpreter's already-sorted fast path: one O(n)
           monotonicity scan before paying for a sort *)
        let sb = !src in
        if sb.blen > 1 then begin
          let sorted = ref true in
          (try
             for k = 1 to sb.blen - 1 do
               if sb.bn.(k - 1).Node.nid >= sb.bn.(k).Node.nid then begin
                 sorted := false;
                 raise Exit
               end
             done
           with Exit -> ());
          if not !sorted then begin
            let sub = Array.sub sb.bn 0 sb.blen in
            Array.sort (fun x y -> compare x.Node.nid y.Node.nid) sub;
            Array.blit sub 0 sb.bn 0 sb.blen
          end
        end)
  done

(* Load the program's source, enforcing the single-context-node
   precondition the order/uniqueness proof assumed. *)
let load_source env (p : prog) : buf =
  env.e_check ();
  List.iter
    (fun nm -> if env.e_shadowed nm then raise Fallback)
    p.fp_shadow;
  let src_items =
    match p.fp_load with LVar v -> env.e_lookup v | LInput -> env.e_input ()
  in
  let a = buf_make () in
  (match src_items with
  | [] -> ()
  | [ Item.Node n ] -> buf_push a n
  | _ ->
      (* multi-node or atomic source: the order/uniqueness proof assumed
         a single context node *)
      raise Fallback);
  a

(* Run the instruction array, returning the final register. *)
let run_body env (p : prog) : buf =
  let a = load_source env p in
  Obs.incr_counter c_execs;
  let w0 = Gc.minor_words () in
  let src = ref a and dst = ref (buf_make ()) in
  let px = buf_make () and py = buf_make () in
  exec_instrs env p.fp_body src dst px py;
  let final = !src in
  Obs.add_counter c_rows final.blen;
  Obs.add_counter c_alloc_words (int_of_float (Gc.minor_words () -. w0));
  final

let finish_agg env (p : prog) (final : buf) : Item.sequence =
  match p.fp_agg with
  | ACount -> [ Item.Atom (Atomic.Integer final.blen) ]
  | AExists neg ->
      let ne = final.blen > 0 in
      [ Item.Atom (Atomic.Boolean (if neg then not ne else ne)) ]
  | ASum -> env.e_sum (buf_items final)
  | ACollect -> buf_items final

let exec (env : env) (p : prog) : Item.sequence =
  finish_agg env p (run_body env p)

(* For tuple-batch segments: the final register and its length (the
   array may be over-allocated past [len]). *)
let exec_nodes (env : env) (p : prog) : Node.t array * int =
  let final = run_body env p in
  (final.bn, final.blen)

let fallback_counter_incr () = Obs.incr_counter c_fallbacks

(* ------------------------------------------------------------------ *)
(* Rendering (EXPLAIN)                                                 *)
(* ------------------------------------------------------------------ *)

let step_str (s : P.pstep) : string =
  Printf.sprintf "%s::%s%s"
    (Ast.axis_to_string s.P.ps_axis)
    (Ast.node_test_to_string s.P.ps_test)
    (match s.P.ps_impl with P.Index_scan -> "[ix]" | P.Tree_walk -> "")

let vpath_str = function
  | VSelf -> "."
  | VConst a -> Printf.sprintf "%S" (Atomic.to_string a)
  | VSteps ss ->
      String.concat "/" (Array.to_list (Array.map step_str ss))

let pred_str = function
  | PExists (ss, neg) ->
      Printf.sprintf "%s(%s)"
        (if neg then "empty" else "exists")
        (String.concat "/" (Array.to_list (Array.map step_str ss)))
  | PCompare (op, va, vb) ->
      Printf.sprintf "%s %s %s" (vpath_str va)
        (Promotion.cmp_op_name op)
        (vpath_str vb)

let instr_str = function
  | IStep s -> "step " ^ step_str s
  | IProbe pb ->
      Printf.sprintf "probe %s"
        (String.concat "/" (Array.to_list (Array.map step_str pb.pb_steps)))
  | IFilter pr -> "filter " ^ pred_str pr
  | ISort -> "sort"

let describe (p : prog) : string =
  let load =
    match p.fp_load with LVar v -> "load $" ^ v | LInput -> "load IN"
  in
  let sink =
    match (p.fp_agg, p.fp_tuple) with
    | ACount, _ -> "count"
    | AExists false, _ -> "exists"
    | AExists true, _ -> "empty"
    | ASum, _ -> "sum"
    | ACollect, Some q -> Printf.sprintf "tuples [%s]" q
    | ACollect, None -> "collect"
  in
  String.concat "; "
    ((load :: List.map instr_str (Array.to_list p.fp_body)) @ [ sink ])

(* Top-down scan of a physical plan for the segments the evaluator will
   fuse, outermost first and non-overlapping (used by the static
   EXPLAIN rendering).  Tuple-batch fusion is advertised only outside
   early-terminating consumers, mirroring the evaluator's drain flag. *)
let rec annotate ?(tab = true) (p : P.t) : (string * prog) list =
  match lower ~tab p with
  | Some prog -> [ (Xqc_algebra.Pretty.physical_label p, prog) ]
  | None ->
      let tab =
        match p.P.pop with
        | P.PStreamSelect _ | P.PMapSome _ | P.PMapEvery _ -> false
        | _ -> tab
      in
      List.concat_map (fun c -> annotate ~tab c) (P.children p)
