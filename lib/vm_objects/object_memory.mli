(** The object memory facade — the interpreter-facing protocol mirroring
    the Pharo VM's [objectMemory] (cf. Listing 1 of the paper). *)

type t

val create : unit -> t
(** A fresh memory holding the singletons and one class object per
    well-known class: a {!copy} of one prototype built at module
    initialisation. *)

val copy : t -> t
(** A deep copy: same oops and contents, and no mutable state shared
    with the source (heap entries and bodies, the class table and the
    class-object table are all copied), so stores and allocations in
    either never show in the other. *)

val class_table : t -> Class_table.t
val heap : t -> Heap.t
val specials : t -> Special_objects.t
val nil : t -> Value.t
val true_obj : t -> Value.t
val false_obj : t -> Value.t
val bool_object : t -> bool -> Value.t

(** {1 Small integer protocol} *)

val is_integer_object : t -> Value.t -> bool
val are_integers : t -> Value.t -> Value.t -> bool
val integer_value_of : t -> Value.t -> int
val is_integer_value : t -> int -> bool
(** Overflow check: does the untagged value fit back in a small integer? *)

val integer_object_of : t -> int -> Value.t

(** {1 Float protocol} *)

val is_float_object : t -> Value.t -> bool
val float_value_of : t -> Value.t -> float
val unchecked_float_value_of : t -> Value.t -> float
val float_object_of : t -> float -> Value.t

(** {1 Class protocol} *)

(** {1 Scratch-memory protocol}

    A memory can serve as a reusable scratch arena: take a {!mark} once
    the stable prefix (singletons, class objects, the method under test)
    is built, then {!reset_to_mark} before each reuse.  Allocation after
    a reset replays deterministically — same oops, same invented class
    ids — provided below-mark objects were never mutated, which holds
    for the explorer's materialisation (inputs are always fresh
    allocations; stores into the stable prefix are bounds-rejected
    before any write). *)

type mark

val mark : t -> mark
(** Capture the current heap frontier and user-class watermark. *)

val reset_to_mark : t -> mark -> unit
(** Drop every object allocated and every user class registered since
    the mark was taken. *)

val register_class :
  ?superclass:int -> t -> name:string -> format:Objformat.t -> Class_desc.t
(** Register a user class (inheriting from Object by default) and
    allocate its class object. *)

val class_object : t -> class_id:int -> Value.t
(** The class object (instance of Class) for a registered class id.
    @raise Invalid_argument for an unregistered id. *)

val class_object_of : t -> Value.t -> Value.t
(** The class object of a value's class. *)

val is_class_object : t -> Value.t -> bool

val class_id_described_by : t -> Value.t -> int
(** Class-table id stored in a class object (slot 0). *)

val permanent_roots : t -> Value.t list
(** GC roots that must survive any collection (singletons and class
    objects); being the oldest allocations, their oops are stable across
    compactions. *)

val class_index_of : t -> Value.t -> int
val is_instance_of : t -> Value.t -> class_id:int -> bool
val is_pointers_object : t -> Value.t -> bool
val is_bytes_object : t -> Value.t -> bool
val is_indexable : t -> Value.t -> bool

(** {1 Allocation} *)

val instantiate_class : t -> class_id:int -> indexable_size:int -> Value.t
val allocate_array : t -> Value.t array -> Value.t
val allocate_byte_array : t -> int array -> Value.t
val allocate_string : t -> string -> Value.t

(** {1 Slot access (bounds-checked; raises {!Heap.Invalid_access})} *)

val fetch_pointer : t -> Value.t -> int -> Value.t
val store_pointer : t -> Value.t -> int -> Value.t -> unit
val fetch_byte : t -> Value.t -> int -> int
val store_byte : t -> Value.t -> int -> int -> unit
val num_slots : t -> Value.t -> int
val indexable_size : t -> Value.t -> int
val fixed_size_of : t -> Value.t -> int
val identity_hash : t -> Value.t -> int
val shallow_copy : t -> Value.t -> Value.t
