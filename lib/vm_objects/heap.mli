(** The object heap.

    Every access is bounds-checked and raises {!Invalid_access} on
    out-of-bounds slots; the interpreter maps that to the "invalid memory
    access" exit condition and the CPU simulator to a segfault trap. *)

type method_body = {
  literals : Value.t array;
  bytecode : Bytes.t;
  num_args : int;
  num_temps : int;  (** temporaries excluding arguments *)
  native_method : int option;  (** native-method (primitive) id, if any *)
}

type t

exception Invalid_access of { oop : Value.t; index : int }

val create : Class_table.t -> t
val class_table : t -> Class_table.t

val copy : t -> Class_table.t -> t
(** [copy t table] is a deep copy of [t] over [table] (normally a
    {!Class_table.copy} of [t]'s): same oops, same contents, and no
    mutable entry, slot array, byte buffer, method literal array or
    bytecode shared with [t]. *)

val allocate : t -> class_id:int -> indexable_size:int -> Value.t
(** Allocate a fresh instance. Pointer slots start as placeholder values;
    callers should initialise them (e.g. to nil).
    @raise Invalid_argument on format/size mismatch. *)

val fill_pointers : t -> Value.t -> Value.t -> unit
(** [fill_pointers t oop v] overwrites every pointer slot of [oop] with
    [v]; used to nil-initialise fresh objects. *)

val allocate_float : t -> float -> Value.t

val allocate_method :
  t ->
  literals:Value.t array ->
  bytecode:Bytes.t ->
  num_args:int ->
  num_temps:int ->
  native_method:int option ->
  Value.t

val class_id_of : t -> Value.t -> int
(** Class-table id, [small_integer_id] for immediates.
    @raise Invalid_access on a dangling pointer. *)

val class_of : t -> Value.t -> Class_desc.t
val format_of : t -> Value.t -> Objformat.t
val is_valid_object : t -> Value.t -> bool

val num_slots : t -> Value.t -> int
(** Total body slots (pointer slots, or byte count for byte objects). *)

val indexable_size : t -> Value.t -> int
(** Indexable slots past the fixed named instance variables. *)

val fetch_pointer : t -> Value.t -> int -> Value.t
val store_pointer : t -> Value.t -> int -> Value.t -> unit
val fetch_byte : t -> Value.t -> int -> int
val store_byte : t -> Value.t -> int -> int -> unit

val float_value : t -> Value.t -> float
(** @raise Invalid_access if the object is not a boxed float. *)

val unchecked_float_value : t -> Value.t -> float
(** Reinterpret the body as a double without a class check — models
    compiled code that unboxes without type-checking.  Garbage on
    non-float receivers, by design. *)

val set_float_value : t -> Value.t -> float -> unit
val method_body : t -> Value.t -> method_body
val is_method : t -> Value.t -> bool
val identity_hash : t -> Value.t -> int
val object_count : t -> int

val truncate : t -> int -> unit
(** [truncate t mark] rolls the allocation frontier back to a previously
    observed {!object_count}: objects at indices [>= mark] are dropped,
    everything below survives with its oop unchanged.  Callers must
    ensure below-mark objects were not mutated since the mark was taken
    (the scratch-memory protocol of {!Object_memory.reset_to_mark}). *)
val shallow_copy : t -> Value.t -> Value.t

val compact : t -> roots:Value.t list -> (Value.t -> Value.t) * int
(** Mark-compact collection: keep everything transitively reachable from
    [roots], slide survivors down, rewrite references.  Returns the
    forwarding function (callers must remap the oops they hold; immediates
    pass through) and the number of reclaimed objects.  Identity hashes
    of survivors change (they are table-position based) — a documented
    difference from a real VM's header-stored hashes. *)
