(* Heap and object-memory substrate tests. *)

open Vm_objects

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh_om () = Object_memory.create ()

let test_specials_deterministic () =
  (* the solver relies on nil/true/false having stable oops *)
  let om1 = fresh_om () and om2 = fresh_om () in
  check_int "nil oop" 8 (Object_memory.nil om1 :> int);
  check_int "true oop" 16 (Object_memory.true_obj om1 :> int);
  check_int "false oop" 24 (Object_memory.false_obj om1 :> int);
  check_bool "same across heaps" true
    (Value.equal (Object_memory.nil om1) (Object_memory.nil om2))

let test_array_alloc_and_access () =
  let om = fresh_om () in
  let a =
    Object_memory.allocate_array om
      [| Value.of_small_int 1; Value.of_small_int 2; Value.of_small_int 3 |]
  in
  check_int "size" 3 (Object_memory.indexable_size om a);
  check_int "slot 1" 2
    (Value.small_int_value (Object_memory.fetch_pointer om a 1));
  Object_memory.store_pointer om a 1 (Value.of_small_int 99);
  check_int "after store" 99
    (Value.small_int_value (Object_memory.fetch_pointer om a 1))

let test_bounds_checked () =
  let om = fresh_om () in
  let a = Object_memory.allocate_array om [| Value.of_small_int 1 |] in
  check_bool "out of bounds raises" true
    (match Object_memory.fetch_pointer om a 1 with
    | _ -> false
    | exception Heap.Invalid_access _ -> true);
  check_bool "negative index raises" true
    (match Object_memory.fetch_pointer om a (-1) with
    | _ -> false
    | exception Heap.Invalid_access _ -> true)

let test_byte_objects () =
  let om = fresh_om () in
  let s = Object_memory.allocate_string om "hello" in
  check_int "string size" 5 (Object_memory.indexable_size om s);
  check_int "byte read" (Char.code 'e') (Object_memory.fetch_byte om s 1);
  Object_memory.store_byte om s 0 (Char.code 'H');
  check_int "byte write" (Char.code 'H') (Object_memory.fetch_byte om s 0);
  check_bool "bytes object" true (Object_memory.is_bytes_object om s);
  check_bool "not pointers" false (Object_memory.is_pointers_object om s)

let test_byte_out_of_bounds () =
  let om = fresh_om () in
  let s = Object_memory.allocate_byte_array om [| 1; 2 |] in
  check_bool "byte OOB raises" true
    (match Object_memory.fetch_byte om s 2 with
    | _ -> false
    | exception Heap.Invalid_access _ -> true)

let test_floats () =
  let om = fresh_om () in
  let f = Object_memory.float_object_of om 3.25 in
  check_bool "is float" true (Object_memory.is_float_object om f);
  Alcotest.(check (float 0.0)) "value" 3.25 (Object_memory.float_value_of om f);
  check_bool "int not float" false
    (Object_memory.is_float_object om (Value.of_small_int 3))

let test_unchecked_float_garbage () =
  (* unchecked unboxing of a non-float must not crash: it yields garbage *)
  let om = fresh_om () in
  let a = Object_memory.allocate_array om [| Value.of_small_int 1 |] in
  let g = Heap.unchecked_float_value (Object_memory.heap om) a in
  check_bool "deterministic garbage" true
    (g = Heap.unchecked_float_value (Object_memory.heap om) a)

let test_class_protocol () =
  let om = fresh_om () in
  check_int "smallint class" Class_table.small_integer_id
    (Object_memory.class_index_of om (Value.of_small_int 4));
  let a = Object_memory.allocate_array om [||] in
  check_int "array class" Class_table.array_id
    (Object_memory.class_index_of om a);
  check_bool "indexable" true (Object_memory.is_indexable om a)

let test_class_objects () =
  let om = fresh_om () in
  let c = Object_memory.class_object om ~class_id:Class_table.array_id in
  check_bool "is class object" true (Object_memory.is_class_object om c);
  check_int "describes array" Class_table.array_id
    (Object_memory.class_id_described_by om c);
  let co = Object_memory.class_object_of om (Value.of_small_int 1) in
  check_int "class of int describes SmallInteger" Class_table.small_integer_id
    (Object_memory.class_id_described_by om co)

let test_register_class () =
  let om = fresh_om () in
  let d =
    Object_memory.register_class om ~name:"Widget"
      ~format:(Objformat.Fixed_pointers 3)
  in
  let w =
    Object_memory.instantiate_class om ~class_id:(Class_desc.class_id d)
      ~indexable_size:0
  in
  check_int "fixed slots" 3 (Object_memory.num_slots om w);
  check_bool "slots nil-initialised" true
    (Value.equal (Object_memory.fetch_pointer om w 0) (Object_memory.nil om))

let test_shallow_copy () =
  let om = fresh_om () in
  let a =
    Object_memory.allocate_array om [| Value.of_small_int 7; Object_memory.nil om |]
  in
  let c = Object_memory.shallow_copy om a in
  check_bool "distinct oop" false (Value.equal a c);
  check_int "same class" (Object_memory.class_index_of om a)
    (Object_memory.class_index_of om c);
  check_int "copied slot" 7
    (Value.small_int_value (Object_memory.fetch_pointer om c 0));
  (* copies are shallow: mutating the copy leaves the original alone *)
  Object_memory.store_pointer om c 0 (Value.of_small_int 8);
  check_int "original untouched" 7
    (Value.small_int_value (Object_memory.fetch_pointer om a 0))

let test_identity_hash_stable () =
  let om = fresh_om () in
  let a = Object_memory.allocate_array om [||] in
  check_int "hash stable" (Object_memory.identity_hash om a)
    (Object_memory.identity_hash om a);
  check_bool "hash in 22-bit range" true
    (Object_memory.identity_hash om a land lnot 0x3FFFFF = 0)

let test_methods () =
  let om = fresh_om () in
  let heap = Object_memory.heap om in
  let m =
    Heap.allocate_method heap
      ~literals:[| Value.of_small_int 1 |]
      ~bytecode:(Bytes.of_string "\x2C") ~num_args:2 ~num_temps:1
      ~native_method:(Some 40)
  in
  let body = Heap.method_body heap m in
  check_int "args" 2 body.num_args;
  check_int "temps" 1 body.num_temps;
  check_bool "native id" true (body.native_method = Some 40);
  check_bool "is method" true (Heap.is_method heap m)

let test_format_predicates () =
  check_bool "fixed is pointers" true (Objformat.is_pointers (Objformat.Fixed_pointers 2));
  check_bool "bytes not pointers" false (Objformat.is_pointers Objformat.Variable_bytes);
  check_bool "variable pointers indexable" true
    (Objformat.is_variable (Objformat.Variable_pointers 0));
  check_bool "fixed not indexable" false (Objformat.is_variable (Objformat.Fixed_pointers 0));
  check_int "fixed size" 2 (Objformat.fixed_size (Objformat.Fixed_pointers 2))

let qcheck_array_roundtrip =
  QCheck.Test.make ~name:"qcheck: array store/fetch roundtrip" ~count:200
    QCheck.(pair (int_range 0 20) (small_list (int_range (-1000) 1000)))
    (fun (extra, values) ->
      let om = fresh_om () in
      let n = List.length values + extra in
      let a =
        Object_memory.instantiate_class om ~class_id:Class_table.array_id
          ~indexable_size:n
      in
      List.iteri
        (fun i v -> Object_memory.store_pointer om a i (Value.of_small_int v))
        values;
      List.for_all2
        (fun i v ->
          Value.small_int_value (Object_memory.fetch_pointer om a i) = v)
        (List.init (List.length values) Fun.id)
        values)

(* The test pipeline creates a fresh object memory per path, ISA and
   witness replay, so creating one must allocate nothing straight into
   the major heap.  The OCaml allocator puts a block there directly
   only when it is larger than [Max_young_wosize] (256 words), so over
   1000 creates the direct major words, [major_words - promoted_words]
   with [Gc.minor] settling the promotion counters at each snapshot,
   must stay below one such block: the counters' own bookkeeping reads
   a few words either way. *)
let test_create_allocates_minor () =
  ignore (Object_memory.create ());
  Gc.full_major ();
  let direct () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = direct () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Object_memory.create ()))
  done;
  let words = direct () -. before in
  check_bool
    (Printf.sprintf "direct major-heap words over 1000 creates (%.0f) < 257"
       words)
    true (words < 257.0)

(* Growing past the initial store keeps every oop at [8 * (index + 1)]
   and every slot's contents. *)
let test_growth_keeps_oops () =
  let heap = Heap.create (Class_table.create ()) in
  let oops =
    Array.init 300 (fun i ->
        let oop =
          Heap.allocate heap ~class_id:Class_table.array_id ~indexable_size:1
        in
        Heap.store_pointer heap oop 0 (Value.of_small_int i);
        oop)
  in
  Array.iteri
    (fun i oop ->
      check_int "oop" (8 * (i + 1)) (oop : Value.t :> int);
      check_int "slot" i (Value.small_int_value (Heap.fetch_pointer heap oop 0)))
    oops;
  check_int "object count" 300 (Heap.object_count heap)

(* --- deep copies: fidelity and isolation --- *)

(* Everything a memory holds, object by object in oop order: class id,
   format and body (slots, bytes, float bits, method literals, bytecode
   and header), then the class table and the class-object table.  Two
   memories with equal dumps are equal object for object. *)
let dump_memory om =
  let heap = Object_memory.heap om in
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  let value (v : Value.t) = p " %d" (v :> int) in
  for k = 0 to Heap.object_count heap - 1 do
    let oop = Value.of_pointer (8 * (k + 1)) in
    p "\n%d:" (oop :> int);
    if Heap.is_valid_object heap oop then begin
      let format = Heap.format_of heap oop in
      p " class %d %s" (Heap.class_id_of heap oop) (Objformat.show format);
      if Heap.is_method heap oop then begin
        let m = Heap.method_body heap oop in
        p " args %d temps %d native %d bytecode %S literals" m.num_args
          m.num_temps
          (Option.value m.native_method ~default:(-1))
          (Bytes.to_string m.bytecode);
        Array.iter value m.literals
      end
      else
        match format with
        | Objformat.Fixed_pointers _ | Objformat.Variable_pointers _ ->
            for i = 0 to Heap.num_slots heap oop - 1 do
              value (Heap.fetch_pointer heap oop i)
            done
        | Objformat.Variable_bytes ->
            for i = 0 to Heap.num_slots heap oop - 1 do
              p " %d" (Heap.fetch_byte heap oop i)
            done
        | Objformat.Boxed_float ->
            p " %Ld" (Int64.bits_of_float (Heap.float_value heap oop))
        | Objformat.Compiled_method -> p " no method body"
    end
    else p " dropped"
  done;
  let table = Object_memory.class_table om in
  p "\nclasses %d next %d" (Class_table.count table)
    (Class_table.next_user_id table);
  Class_table.iter table (fun d ->
      let id = Class_desc.class_id d in
      p "\n%s object" (Class_desc.show d);
      match Object_memory.class_object om ~class_id:id with
      | oop -> value oop
      | exception Invalid_argument _ -> p " none");
  Buffer.contents b

(* A memory with one object of every kind above the prototype: an
   array, a byte object, a boxed float, a method with literals, and an
   instance of a newly registered class. *)
let populated () =
  let om = fresh_om () in
  let heap = Object_memory.heap om in
  let arr =
    Object_memory.allocate_array om [| Value.of_small_int 3; Object_memory.nil om |]
  in
  let bytes = Object_memory.allocate_string om "bytes" in
  let flt = Object_memory.float_object_of om 2.5 in
  let meth =
    Heap.allocate_method heap ~literals:[| arr; Value.of_small_int 9 |]
      ~bytecode:(Bytes.of_string "\x2C\x7C") ~num_args:1 ~num_temps:0
      ~native_method:None
  in
  let widget =
    Object_memory.register_class om ~name:"Widget"
      ~format:(Objformat.Fixed_pointers 2)
  in
  let w =
    Object_memory.instantiate_class om
      ~class_id:(Class_desc.class_id widget) ~indexable_size:0
  in
  (om, arr, bytes, flt, meth, w)

let test_copy_fidelity () =
  let om, _, _, _, _, _ = populated () in
  let copy = Object_memory.copy om in
  Alcotest.(check string) "copy == source" (dump_memory om) (dump_memory copy)

(* Write everything a run can write in [om]: a class-object slot, a
   method literal and its bytecode, a byte, a float, a new class and a
   new object, then drop every object above nil's (nil included, which
   has no slot to store into) by rolling the heap back. *)
let scribble om ~arr ~bytes ~flt ~meth =
  let heap = Object_memory.heap om in
  let array_class = Object_memory.class_object om ~class_id:Class_table.array_id in
  Object_memory.store_pointer om array_class 1 (Value.of_small_int 77);
  let m = Heap.method_body heap meth in
  m.literals.(0) <- Value.of_small_int 66;
  Bytes.set m.bytecode 0 '\x00';
  Object_memory.store_pointer om arr 0 (Value.of_small_int 55);
  Object_memory.store_byte om bytes 0 0x21;
  Heap.set_float_value heap flt (-1.0);
  let gadget =
    Object_memory.register_class om ~name:"Gadget"
      ~format:(Objformat.Variable_pointers 1)
  in
  ignore
    (Object_memory.instantiate_class om
       ~class_id:(Class_desc.class_id gadget) ~indexable_size:4);
  (match Object_memory.store_pointer om (Object_memory.nil om) 0 arr with
  | () -> Alcotest.fail "nil has no slot to store into"
  | exception Heap.Invalid_access _ -> ());
  Heap.truncate heap 0

let test_copy_isolation () =
  let prototype = dump_memory (fresh_om ()) in
  let om, arr, bytes, flt, meth, _ = populated () in
  let source = dump_memory om in
  let copy = Object_memory.copy om and sibling = Object_memory.copy om in
  scribble copy ~arr ~bytes ~flt ~meth;
  check_bool "the stores landed in the copy" false (dump_memory copy = source);
  Alcotest.(check string) "source untouched" source (dump_memory om);
  Alcotest.(check string) "sibling untouched" source (dump_memory sibling);
  Alcotest.(check string) "prototype untouched" prototype
    (dump_memory (fresh_om ()));
  (* and the other way round: the source's stores miss the sibling *)
  scribble om ~arr ~bytes ~flt ~meth;
  Alcotest.(check string) "sibling untouched by the source" source
    (dump_memory sibling)

let test_creates_share_nothing () =
  let a = fresh_om () and b = fresh_om () in
  let fresh = dump_memory b in
  let arr = Object_memory.allocate_array a [| Value.of_small_int 1 |] in
  let bytes = Object_memory.allocate_byte_array a [| 1 |] in
  let flt = Object_memory.float_object_of a 1.0 in
  let meth =
    Heap.allocate_method (Object_memory.heap a) ~literals:[| arr |]
      ~bytecode:(Bytes.of_string "\x2C") ~num_args:0 ~num_temps:0
      ~native_method:None
  in
  scribble a ~arr ~bytes ~flt ~meth;
  Alcotest.(check string) "the other create () is untouched" fresh
    (dump_memory b);
  Alcotest.(check string) "a later create () is untouched" fresh
    (dump_memory (fresh_om ()))

let suite =
  [
    Alcotest.test_case "create allocates in the minor heap" `Quick
      test_create_allocates_minor;
    Alcotest.test_case "growth keeps oops and slots" `Quick
      test_growth_keeps_oops;
    Alcotest.test_case "special objects deterministic" `Quick test_specials_deterministic;
    Alcotest.test_case "array alloc and access" `Quick test_array_alloc_and_access;
    Alcotest.test_case "pointer bounds checked" `Quick test_bounds_checked;
    Alcotest.test_case "byte objects" `Quick test_byte_objects;
    Alcotest.test_case "byte bounds checked" `Quick test_byte_out_of_bounds;
    Alcotest.test_case "boxed floats" `Quick test_floats;
    Alcotest.test_case "unchecked float garbage" `Quick test_unchecked_float_garbage;
    Alcotest.test_case "class protocol" `Quick test_class_protocol;
    Alcotest.test_case "class objects" `Quick test_class_objects;
    Alcotest.test_case "register user class" `Quick test_register_class;
    Alcotest.test_case "shallow copy" `Quick test_shallow_copy;
    Alcotest.test_case "identity hash" `Quick test_identity_hash_stable;
    Alcotest.test_case "compiled methods" `Quick test_methods;
    Alcotest.test_case "format predicates" `Quick test_format_predicates;
    QCheck_alcotest.to_alcotest qcheck_array_roundtrip;
    Alcotest.test_case "copy equals its source" `Quick test_copy_fidelity;
    Alcotest.test_case "copy isolated from source" `Quick test_copy_isolation;
    Alcotest.test_case "creates share no state" `Quick
      test_creates_share_nothing;
  ]
