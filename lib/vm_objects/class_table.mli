(** The class table: class-table index → class description.

    Well-known classes have fixed indices because the VM's inlined fast
    paths dispatch on them (mirroring Pharo's compact class indices). *)

type t

val undefined_object_id : int
val small_integer_id : int
val true_id : int
val false_id : int
val boxed_float_id : int
val array_id : int
val byte_string_id : int
val byte_array_id : int
val object_id : int
val compiled_method_id : int
val point_id : int
val association_id : int
val character_id : int
val context_id : int
val symbol_id : int
val external_address_id : int
val large_positive_integer_id : int
val large_negative_integer_id : int

val class_class_id : int
(** The class of class objects; slot 0 of an instance holds the
    class-table id of the described class. *)

val first_user_id : int
(** Ids below this are reserved for well-known classes. *)

val create : unit -> t
(** A fresh table pre-populated with the well-known classes. *)

val copy : t -> t
(** An independent table with the same classes: registering or
    truncating in one never shows in the other. *)

val register :
  ?superclass:int -> t -> name:string -> format:Objformat.t -> Class_desc.t
(** Allocate the next free user class id and register a class under it
    ([superclass] defaults to Object). *)

val next_user_id : t -> int
(** The id the next {!register} call will allocate — a watermark for
    {!truncate}. *)

val truncate : t -> int -> unit
(** [truncate t mark] forgets every user class registered at id [>= mark]
    (a {!next_user_id} observed earlier), so re-registering the same
    classes reproduces the same ids.  Well-known classes cannot be
    dropped. *)

val lookup : t -> int -> Class_desc.t option
val lookup_exn : t -> int -> Class_desc.t
val count : t -> int
val iter : t -> (Class_desc.t -> unit) -> unit
