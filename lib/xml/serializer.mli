(** XML serialization (the Serialize operator of Table 1).

    Sequences serialize per the XQuery serialization rules: adjacent
    atomic values are separated by a single space, nodes become markup,
    text and attribute content is escaped.  A result is measured first
    and then written once into a string of exactly its size. *)

exception Too_large of int
(** Raised by [sequence_to_string ~limit] (and [sequence_size ~limit])
    when the output would pass [limit] bytes; carries the byte count the
    size walk had reached when it stopped, which is above [limit].
    Nothing of the output has been allocated by then. *)

val node_to_string : Node.t -> string

val sequence_to_string : ?limit:int -> Item.sequence -> string

val sequence_size : ?limit:int -> Item.sequence -> int
(** The exact length in bytes of [sequence_to_string s]. *)

val sequence_to_file : string -> Item.sequence -> unit

val sequence_to_string_indented : Item.sequence -> string
(** Two-space indented rendering; elements with text children stay on one
    line so the value is unchanged modulo ignorable whitespace. *)
