(* The object memory facade — the interpreter-facing API mirroring the
   Pharo VM's [objectMemory] protocol (Listing 1 of the paper uses
   [areIntegers:and:], [integerValueOf:], [isIntegerValue:],
   [integerObjectOf:]).  It bundles the class table, heap and special
   objects into the single concrete VM memory. *)

type t = {
  class_table : Class_table.t;
  heap : Heap.t;
  specials : Special_objects.t;
  class_objects : (int, Value.t) Hashtbl.t;
      (* class-table id → class object (instance of Class) *)
}

let allocate_class_object t class_id =
  let oop =
    Heap.allocate t.heap ~class_id:Class_table.class_class_id
      ~indexable_size:0
  in
  Heap.store_pointer t.heap oop 0 (Value.of_small_int class_id);
  Heap.store_pointer t.heap oop 1 (Special_objects.nil t.specials);
  Hashtbl.replace t.class_objects class_id oop;
  oop

let build () =
  let class_table = Class_table.create () in
  let heap = Heap.create class_table in
  let specials = Special_objects.install heap in
  let t = { class_table; heap; specials; class_objects = Hashtbl.create 64 } in
  (* Pre-allocate class objects for the well-known classes, in id order
     (the table's iteration order), so oops stay deterministic across
     runs. *)
  Class_table.iter class_table (fun d ->
      ignore (allocate_class_object t (Class_desc.class_id d)));
  t

let copy t =
  let class_table = Class_table.copy t.class_table in
  {
    class_table;
    heap = Heap.copy t.heap class_table;
    specials = t.specials;
    class_objects = Hashtbl.copy t.class_objects;
  }

(* Every fresh memory starts as the same singletons and class objects,
   so it is a copy of one prototype instead of a rebuild.  The
   prototype is init-only: built at module initialisation and never
   mutated after it, only copied, which any number of domains may do
   at once.  It is built eagerly because an OCaml 5 lazy forced by two
   domains at once raises [CamlinternalLazy.Undefined] in one. *)
let prototype = build ()
let create () = copy prototype

(* --- Scratch-memory protocol: mark / reset --- *)

type mark = { heap_mark : int; class_mark : int }

let mark t =
  {
    heap_mark = Heap.object_count t.heap;
    class_mark = Class_table.next_user_id t.class_table;
  }

let reset_to_mark t m =
  Heap.truncate t.heap m.heap_mark;
  let doomed =
    Hashtbl.fold
      (fun id _ acc -> if id >= m.class_mark then id :: acc else acc)
      t.class_objects []
  in
  List.iter (Hashtbl.remove t.class_objects) doomed;
  Class_table.truncate t.class_table m.class_mark

let register_class ?superclass t ~name ~format =
  let desc = Class_table.register ?superclass t.class_table ~name ~format in
  ignore (allocate_class_object t (Class_desc.class_id desc));
  desc

let class_object t ~class_id =
  match Hashtbl.find_opt t.class_objects class_id with
  | Some oop -> oop
  | None ->
      invalid_arg
        (Printf.sprintf "Object_memory.class_object: no class object for %d"
           class_id)

let is_class_object t v =
  Value.is_pointer v
  && Heap.is_valid_object t.heap v
  && Heap.class_id_of t.heap v = Class_table.class_class_id

let class_id_described_by t v =
  let id_oop = Heap.fetch_pointer t.heap v 0 in
  Value.small_int_value id_oop

let class_table t = t.class_table
let heap t = t.heap
let specials t = t.specials
let nil t = Special_objects.nil t.specials
let true_obj t = Special_objects.true_ t.specials
let false_obj t = Special_objects.false_ t.specials
let bool_object t b = Special_objects.of_bool t.specials b

(* --- Small integer protocol --- *)

let is_integer_object (_ : t) v = Value.is_small_int v
let are_integers (_ : t) a b = Value.is_small_int a && Value.is_small_int b
let integer_value_of (_ : t) v = Value.small_int_value v
let is_integer_value (_ : t) i = Value.is_small_int_value i
let integer_object_of (_ : t) i = Value.of_small_int i

(* --- Float protocol --- *)

let is_float_object t v =
  Value.is_pointer v
  && Heap.is_valid_object t.heap v
  && Heap.class_id_of t.heap v = Class_table.boxed_float_id

let float_value_of t v = Heap.float_value t.heap v
let unchecked_float_value_of t v = Heap.unchecked_float_value t.heap v
let float_object_of t f = Heap.allocate_float t.heap f

(* --- Class protocol --- *)

(* Roots that must survive any collection: the singletons and the class
   objects.  They are the oldest allocations, and compaction preserves
   allocation order, so their oops are stable across collections. *)
let permanent_roots t =
  nil t :: true_obj t :: false_obj t
  :: Hashtbl.fold (fun _ v acc -> v :: acc) t.class_objects []

let class_index_of t v =
  if Value.is_small_int v then Class_table.small_integer_id
  else Heap.class_id_of t.heap v

let class_object_of t v = class_object t ~class_id:(class_index_of t v)

let is_instance_of t v ~class_id = class_index_of t v = class_id

let is_pointers_object t v =
  Value.is_pointer v && Objformat.is_pointers (Heap.format_of t.heap v)

let is_bytes_object t v =
  Value.is_pointer v && Objformat.is_bytes (Heap.format_of t.heap v)

let is_indexable t v =
  Value.is_pointer v && Objformat.is_variable (Heap.format_of t.heap v)

(* --- Allocation --- *)

let instantiate_class t ~class_id ~indexable_size =
  let oop = Heap.allocate t.heap ~class_id ~indexable_size in
  Heap.fill_pointers t.heap oop (nil t);
  oop

let allocate_array t values =
  let oop =
    instantiate_class t ~class_id:Class_table.array_id
      ~indexable_size:(Array.length values)
  in
  Array.iteri (fun i v -> Heap.store_pointer t.heap oop i v) values;
  oop

let allocate_byte_array t bytes =
  let oop =
    instantiate_class t ~class_id:Class_table.byte_array_id
      ~indexable_size:(Array.length bytes)
  in
  Array.iteri (fun i b -> Heap.store_byte t.heap oop i b) bytes;
  oop

let allocate_string t s =
  let oop =
    instantiate_class t ~class_id:Class_table.byte_string_id
      ~indexable_size:(String.length s)
  in
  String.iteri (fun i c -> Heap.store_byte t.heap oop i (Char.code c)) s;
  oop

(* --- Slot access (bounds-checked: Heap raises Invalid_access) --- *)

let fetch_pointer t v i = Heap.fetch_pointer t.heap v i
let store_pointer t v i x = Heap.store_pointer t.heap v i x
let fetch_byte t v i = Heap.fetch_byte t.heap v i
let store_byte t v i x = Heap.store_byte t.heap v i x
let num_slots t v = Heap.num_slots t.heap v
let indexable_size t v = Heap.indexable_size t.heap v
let fixed_size_of t v = Objformat.fixed_size (Heap.format_of t.heap v)
let identity_hash t v = Heap.identity_hash t.heap v
let shallow_copy t v = Heap.shallow_copy t.heap v
