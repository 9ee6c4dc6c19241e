(* XQuery-aware physical join algorithms — Section 6 of the paper.

   The hash join is Figure 6: the inner input is materialized into a hash
   table keyed on every (value, type) pair the key value can be promoted
   to ([Promotion.promote_to_simple_types]); each entry records the
   original value type, the tuple, and its ordinal position.  A probe
   match is accepted only when the pair of *original* types prescribes the
   matched comparison type under fs:convert-operand (Table 2); accepted
   matches are then sorted on the order field and de-duplicated, which
   restores the inner sequence order and honours the existential
   quantification of general comparisons.

   The sort join plays the same trick for inequality predicates (<, <=,
   >, >=): the inner keys are materialized into two sorted arrays — one
   under the numeric (xs:double) ordering, one under the string ordering —
   and each probe key scans the range(s) that Table 2 makes comparable
   with its own type.  This covers XMark Q11/Q12-style non-equi joins. *)

open Xqc_xml
open Xqc_types
module Obs = Xqc_obs.Obs

type tuple = Item.sequence array

type 'k entry = {
  e_key : 'k;
  e_orig_type : Atomic.type_name;
  e_order : int;
  e_tuple : tuple;
}

(* ------------------------------------------------------------------ *)
(* Hash equi-join                                                      *)
(* ------------------------------------------------------------------ *)

type hash_index = {
  hi_buckets : (Atomic.t, unit entry list ref) Hashtbl.t;
  hi_size : int;
}

(* NaN compares unequal to everything, including itself, under every
   ordering operator; the polymorphic Hashtbl would treat NaN keys as
   equal, so they are excluded from indexes on both sides. *)
let is_nan_atom (a : Atomic.t) : bool =
  match a with
  | Atomic.Decimal f | Atomic.Float f | Atomic.Double f -> Float.is_nan f
  | _ -> false

(* materialize() of Figure 6. *)
let build_hash_index ?stats (inner : tuple list) (inner_key : tuple -> Item.sequence) :
    hash_index =
  let buckets = Hashtbl.create 1024 in
  let order = ref 0 in
  List.iter
    (fun tup ->
      incr order;
      let key_vals = Item.atomize (inner_key tup) in
      List.iter
        (fun key ->
          let orig_type = Atomic.type_of key in
          List.iter
            (fun (v, _target_type) ->
              if not (is_nan_atom v) then
                let entry = { e_key = (); e_orig_type = orig_type; e_order = !order; e_tuple = tup } in
                match Hashtbl.find_opt buckets v with
                | Some cell -> cell := entry :: !cell
                | None -> Hashtbl.add buckets v (ref [ entry ]))
            (Promotion.promote_to_simple_types key))
        key_vals)
    inner;
  (match stats with
  | Some st ->
      st.Obs.op_builds <- st.Obs.op_builds + 1;
      st.Obs.op_build_tuples <- st.Obs.op_build_tuples + !order
  | None -> ());
  { hi_buckets = buckets; hi_size = !order }

(* sortedMatches + removeDuplicates of Figure 6: the collected matches
   by build position, each position once.  A probe that matched at most
   once has nothing to sort. *)
let sorted_distinct cmp = function
  | ([] | [ _ ]) as matches -> matches
  | matches -> List.sort_uniq cmp matches

let by_order (o1, _) (o2, _) = Int.compare o1 o2

(* The entries of [index] that one probe key matches, each passed to [f]
   as (build position, tuple). *)
let iter_hash_matches (index : hash_index) (key_vals : Atomic.t list) f =
  List.iter
    (fun key ->
      let key_type = Atomic.type_of key in
      List.iter
        (fun (v, target_type) ->
          match (if is_nan_atom v then None else Hashtbl.find_opt index.hi_buckets v) with
          | None -> ()
          | Some cell ->
              List.iter
                (fun e ->
                  (* the Table 2 check of Figure 6, line 25 *)
                  match Promotion.comparison_type e.e_orig_type key_type with
                  | Some prescribed when prescribed = target_type -> f e.e_order e.e_tuple
                  | Some _ | None -> ())
                !cell)
        (Promotion.promote_to_simple_types key))
    key_vals

let count_probe stats n =
  match stats with
  | Some st ->
      st.Obs.op_probes <- st.Obs.op_probes + 1;
      st.Obs.op_matches <- st.Obs.op_matches + n
  | None -> ()

(* allMatches() of Figure 6: all inner tuples matching one outer tuple,
   in the inner input's original sequence order, without duplicates. *)
let probe_hash_index ?stats (index : hash_index) (key_vals : Atomic.t list) : tuple list =
  let acc = ref [] in
  iter_hash_matches index key_vals (fun o t -> acc := (o, t) :: !acc);
  let matches = List.map snd (sorted_distinct by_order !acc) in
  count_probe stats (List.length matches);
  matches

(* Build-side-flipped probe: the sorted distinct build positions whose
   entries match one probe key.  Used when the planner builds the hash
   join on its *left* input: output must stay left-major with matches in
   right order, so the evaluator probes with each right tuple and buckets
   it under every matching left position, then emits bucket by bucket.
   The Table 2 check is symmetric in the two original types, so probing
   from either side accepts exactly the same pairs. *)
let probe_hash_index_orders ?stats (index : hash_index) (key_vals : Atomic.t list) :
    int list =
  let acc = ref [] in
  iter_hash_matches index key_vals (fun o _ -> acc := o :: !acc);
  let orders = sorted_distinct Int.compare !acc in
  count_probe stats (List.length orders);
  orders

(* ------------------------------------------------------------------ *)
(* Sort join for inequalities                                          *)
(* ------------------------------------------------------------------ *)

type sort_index = {
  si_numeric : float entry array;  (** ascending by key *)
  si_string : string entry array;  (** ascending by key *)
}

let numeric_key (a : Atomic.t) : float option =
  match Atomic.type_of a with
  | Atomic.T_integer | Atomic.T_decimal | Atomic.T_float | Atomic.T_double
  | Atomic.T_untyped -> (
      match Atomic.to_float a with
      | Some f when not (Float.is_nan f) -> Some f
      | _ -> None)
  | _ -> None

let string_key (a : Atomic.t) : string option =
  match Atomic.type_of a with
  | Atomic.T_string | Atomic.T_untyped | Atomic.T_any_uri -> Some (Atomic.to_string a)
  | Atomic.T_date | Atomic.T_time | Atomic.T_date_time | Atomic.T_g_year
  | Atomic.T_g_month | Atomic.T_g_day | Atomic.T_g_year_month
  | Atomic.T_g_month_day ->
      (* calendar types are compared lexically in our model *)
      Some (Atomic.to_string a)
  | _ -> None

let build_sort_index ?stats (inner : tuple list) (inner_key : tuple -> Item.sequence) :
    sort_index =
  let numeric = ref [] and strings = ref [] in
  let order = ref 0 in
  List.iter
    (fun tup ->
      incr order;
      List.iter
        (fun key ->
          let orig = Atomic.type_of key in
          (match numeric_key key with
          | Some f ->
              numeric := { e_key = f; e_orig_type = orig; e_order = !order; e_tuple = tup } :: !numeric
          | None -> ());
          match string_key key with
          | Some s ->
              strings := { e_key = s; e_orig_type = orig; e_order = !order; e_tuple = tup } :: !strings
          | None -> ())
        (Item.atomize (inner_key tup)))
    inner;
  let by_key cmp a b =
    let c = cmp a.e_key b.e_key in
    if c <> 0 then c else compare a.e_order b.e_order
  in
  let index =
    {
      si_numeric = Array.of_list (List.sort (by_key Float.compare) !numeric);
      si_string = Array.of_list (List.sort (by_key String.compare) !strings);
    }
  in
  (match stats with
  | Some st ->
      st.Obs.op_builds <- st.Obs.op_builds + 1;
      st.Obs.op_build_tuples <- st.Obs.op_build_tuples + !order;
      st.Obs.op_sort_numeric <- st.Obs.op_sort_numeric + Array.length index.si_numeric;
      st.Obs.op_sort_string <- st.Obs.op_sort_string + Array.length index.si_string
  | None -> ());
  index

(* First index whose key satisfies [ok] assuming keys ascend and the set
   of satisfying entries is a suffix; length if none. *)
let lower_bound (arr : 'k entry array) (above : 'k -> bool) : int =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if above arr.(mid).e_key then hi := mid else lo := mid + 1
  done;
  !lo

(* All entries y in [arr] with (x op y), as index range; the satisfying
   set is a suffix for Lt/Le and a prefix for Gt/Ge. *)
let range_for (op : Promotion.cmp_op) (cmp : 'k -> 'k -> int) (x : 'k)
    (arr : 'k entry array) : int * int =
  let n = Array.length arr in
  match op with
  | Promotion.Lt -> (lower_bound arr (fun y -> cmp y x > 0), n)
  | Promotion.Le -> (lower_bound arr (fun y -> cmp y x >= 0), n)
  | Promotion.Gt -> (0, lower_bound arr (fun y -> cmp y x >= 0))
  | Promotion.Ge -> (0, lower_bound arr (fun y -> cmp y x > 0))
  | Promotion.Eq | Promotion.Ne ->
      invalid_arg "Joins.range_for: sort join handles inequalities only"

let is_numeric_tn = Atomic.is_numeric_type

(* Probe for all inner tuples with (probe_key op inner_key), honouring the
   Table 2 pairing rules between the probe key type and each entry's
   original type. *)
let probe_sort_index ?stats (op : Promotion.cmp_op) (index : sort_index)
    (key_vals : Atomic.t list) : tuple list =
  let acc = ref [] in
  let add e = acc := (e.e_order, e.e_tuple) :: !acc in
  let scan_numeric x accept =
    let lo, hi = range_for op Float.compare x index.si_numeric in
    for i = lo to hi - 1 do
      let e = index.si_numeric.(i) in
      if accept e.e_orig_type then add e
    done
  in
  let scan_string x accept =
    let lo, hi = range_for op String.compare x index.si_string in
    for i = lo to hi - 1 do
      let e = index.si_string.(i) in
      if accept e.e_orig_type then add e
    done
  in
  List.iter
    (fun key ->
      let kt = Atomic.type_of key in
      if is_numeric_tn kt then (
        (* numeric probe compares with numeric and untyped entries, both
           under the double ordering; NaN matches nothing *)
        match Atomic.to_float key with
        | Some f when not (Float.is_nan f) ->
            scan_numeric f (fun t -> is_numeric_tn t || t = Atomic.T_untyped)
        | Some _ | None -> ())
      else
        match kt with
        | Atomic.T_untyped ->
            (* vs numeric entries: as double; vs untyped/string entries: as
               string (Table 2, rows 1-2) *)
            (match Atomic.to_float key with
            | Some f when not (Float.is_nan f) -> scan_numeric f is_numeric_tn
            | Some _ | None -> ());
            scan_string (Atomic.to_string key) (fun t ->
                t = Atomic.T_untyped || t = Atomic.T_string || t = Atomic.T_any_uri)
        | Atomic.T_string | Atomic.T_any_uri ->
            scan_string (Atomic.to_string key) (fun t ->
                t = Atomic.T_untyped || t = Atomic.T_string || t = Atomic.T_any_uri)
        | other -> (
            (* calendar types: lexical comparison against same-type or
               untyped entries *)
            match string_key key with
            | Some s -> scan_string s (fun t -> t = other || t = Atomic.T_untyped)
            | None -> ()))
    key_vals;
  let matches = List.map snd (sorted_distinct by_order !acc) in
  count_probe stats (List.length matches);
  matches
