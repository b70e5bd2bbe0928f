(** Hex armour shared by the journal, the unit wire protocol and the
    store headers. *)

val encode : string -> string
(** Two lowercase hex digits per byte. *)

val decode : string -> string
(** Inverse of {!encode} (either case accepted); raises [Failure] on an
    odd length or a non-hex digit. *)

val digest : string -> string
(** The md5 of the bytes, as 32 lowercase hex digits — the checksum
    every armoured payload carries. *)
