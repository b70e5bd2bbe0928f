(* The class table maps class-table indices to class descriptions.

   A handful of classes are "well-known": the VM dispatches on their ids in
   inlined fast paths (small integer arithmetic, float unboxing, ...) so
   their indices are fixed, mirroring Pharo's compact class indices. *)

type t = { mutable classes : Class_desc.t option array; mutable next_id : int }

(* Well-known class ids. *)
let undefined_object_id = 0
let small_integer_id = 1
let true_id = 2
let false_id = 3
let boxed_float_id = 4
let array_id = 5
let byte_string_id = 6
let byte_array_id = 7
let object_id = 8
let compiled_method_id = 9
let point_id = 10
let association_id = 11
let character_id = 12
let context_id = 13
let symbol_id = 14
let external_address_id = 15
let large_positive_integer_id = 16
let large_negative_integer_id = 17
let class_class_id = 18

let first_user_id = 32

let well_known =
  let open Objformat in
  [
    (undefined_object_id, "UndefinedObject", Fixed_pointers 0);
    (small_integer_id, "SmallInteger", Fixed_pointers 0);
    (true_id, "True", Fixed_pointers 0);
    (false_id, "False", Fixed_pointers 0);
    (boxed_float_id, "BoxedFloat64", Boxed_float);
    (array_id, "Array", Variable_pointers 0);
    (byte_string_id, "ByteString", Variable_bytes);
    (byte_array_id, "ByteArray", Variable_bytes);
    (object_id, "Object", Fixed_pointers 0);
    (compiled_method_id, "CompiledMethod", Compiled_method);
    (point_id, "Point", Fixed_pointers 2);
    (association_id, "Association", Fixed_pointers 2);
    (character_id, "Character", Fixed_pointers 1);
    (context_id, "Context", Variable_pointers 4);
    (symbol_id, "Symbol", Variable_bytes);
    (external_address_id, "ExternalAddress", Variable_bytes);
    (large_positive_integer_id, "LargePositiveInteger", Variable_bytes);
    (large_negative_integer_id, "LargeNegativeInteger", Variable_bytes);
    (* A class object has two named slots: the class-table id of the class
       it describes (a small integer), and a reserved slot. *)
    (class_class_id, "Class", Fixed_pointers 2);
  ]

(* Descriptions are immutable, so every table shares one set of the
   well-known ones: a fresh table costs one array. *)
let well_known_descs =
  List.map
    (fun (id, name, format) ->
      (* every well-known class except Object itself inherits from Object *)
      let superclass = if id = object_id then None else Some object_id in
      (id, Some (Class_desc.make ?superclass ~class_id:id ~name ~format ())))
    well_known

let create () =
  let t = { classes = Array.make 64 None; next_id = first_user_id } in
  List.iter (fun (id, desc) -> t.classes.(id) <- desc) well_known_descs;
  t

(* Descriptions are immutable: copying the array is a deep copy. *)
let copy t = { classes = Array.copy t.classes; next_id = t.next_id }

let grow t wanted =
  if wanted >= Array.length t.classes then begin
    let n = Array.make (max (wanted + 1) (2 * Array.length t.classes)) None in
    Array.blit t.classes 0 n 0 (Array.length t.classes);
    t.classes <- n
  end

let register ?(superclass = object_id) t ~name ~format =
  let id = t.next_id in
  t.next_id <- id + 1;
  grow t id;
  let desc = Class_desc.make ~superclass ~class_id:id ~name ~format () in
  t.classes.(id) <- Some desc;
  desc

let lookup t id =
  if id < 0 || id >= Array.length t.classes then None else t.classes.(id)

let lookup_exn t id =
  match lookup t id with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Class_table.lookup_exn: no class %d" id)

let next_user_id t = t.next_id

let truncate t mark =
  if mark < first_user_id || mark > t.next_id then
    invalid_arg "Class_table.truncate: bad mark";
  for i = mark to t.next_id - 1 do
    if i < Array.length t.classes then t.classes.(i) <- None
  done;
  t.next_id <- mark

let count t =
  Array.fold_left (fun n c -> if c = None then n else n + 1) 0 t.classes

let iter t f = Array.iter (function Some d -> f d | None -> ()) t.classes
