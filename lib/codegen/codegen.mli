(** Fused-loop compiled execution tier.

    Lowers hot physical pipelines — downward [PSteps] chains,
    single-variable Select/MapFromItem/MapToItem loops and the
    streaming aggregates count/exists/empty/sum over them — into a flat
    instruction array executed by a tight bytecode interpreter over
    register batches ([Node.t array]s), with no per-tuple closure,
    tuple array or [Seq] node allocation on the fused path.  Index-
    range descendant scans become [Array.blit]s of the store's slice.

    Order and uniqueness are proven statically (a (sorted, non-nesting)
    state machine over the step chain); segments that cannot be proven
    duplicate-free are refused at lowering time, and compiled programs
    that meet an unsupported runtime shape (multi-node source, shadowed
    builtin) raise {!Fallback} so the evaluator splices in the
    interpreted twin. *)

open Xqc_xml
open Xqc_types
module P = Xqc_algebra.Physical

(** [Auto] fuses lowerable segments whose source estimate clears
    [min_fuse_rows], [Force] fuses everything lowerable, [Off] disables
    the tier.  Seeded from the [XQC_FUSE] environment variable
    ("off"/"force"), mirroring [XQC_INDEX]. *)
type mode = Auto | Off | Force

val mode : mode ref
val min_fuse_rows : float ref

exception Fallback
(** Raised by {!exec}/{!exec_nodes} when the runtime shape is outside
    the program's proof (the caller runs the interpreted twin). *)

type prog
(** A lowered segment: load register, flat instruction array, sink. *)

val instr_count : prog -> int
val tuple_field : prog -> string option
(** [Some q] when the segment produces a tuple batch with single-field
    layout [q] (rather than an item sequence). *)

val lower : ?tab:bool -> P.t -> prog option
(** The fuse decision for one physical subplan.  [tab] advertises that
    the consumer fully drains a tabular result, enabling tuple-batch
    fusion of bare Select/MapFromItem pipelines; item pipelines and
    aggregates fuse regardless.  [None]: stay interpreted. *)

(** {1 Execution} *)

(** Runtime services, passed as callbacks so this library stays below
    the evaluator in the dependency order. *)
type env = {
  e_schema : Schema.t;
  e_lookup : string -> Item.sequence;  (** free-variable lookup *)
  e_input : unit -> Item.sequence;  (** the dependent [IN] item *)
  e_shadowed : string -> bool;  (** user declaration shadows builtin? *)
  e_check : unit -> unit;  (** deadline / cancellation check *)
  e_sum : Item.sequence -> Item.sequence;  (** the fn:sum builtin *)
}

val exec : env -> prog -> Item.sequence
(** Run an item-pipeline or aggregate segment. *)

val exec_nodes : env -> prog -> Node.t array * int
(** Run a tuple-batch segment; returns the final register and its
    length (the array may be over-allocated past it). *)

val fallback_counter_incr : unit -> unit
(** Record a runtime fallback in the [fused_fallbacks] counter. *)

(** {1 EXPLAIN rendering} *)

val describe : prog -> string
(** One-line program listing: [load $v; step ...; filter ...; count]. *)

val annotate : ?tab:bool -> P.t -> (string * prog) list
(** The segments the evaluator will fuse in this plan, outermost first
    and non-overlapping, each with the physical label of its root. *)
