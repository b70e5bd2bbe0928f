(* The object heap.

   Objects live in a growable store; an object's oop is its (even) address
   [8 * (index + 1)].  Every access is bounds-checked and raises
   {!Invalid_access} on out-of-bounds slots — the interpreter maps this to
   the "invalid memory access" exit condition of the paper (§3.4), and the
   CPU simulator maps it to a segmentation-fault trap.

   Compiled methods are heap objects whose body stores literals, raw
   bytecode bytes and the method header fields (argument/temporary counts
   and an optional native-method id); decoding bytecode is the business of
   the [bytecodes] library. *)

type method_body = {
  literals : Value.t array;
  bytecode : Bytes.t;
  num_args : int;
  num_temps : int; (* temps *excluding* arguments *)
  native_method : int option; (* native method (primitive) id, if any *)
}

type body =
  | Pointers of Value.t array
  | Byte_data of Bytes.t
  | Float_body of float
  | Method_body of method_body

type entry = { class_id : int; format : Objformat.t; mutable body : body }

type t = {
  mutable store : entry option array;
  mutable next : int;
  class_table : Class_table.t;
}

exception Invalid_access of { oop : Value.t; index : int }

let oop_of_index i = Value.of_pointer (8 * (i + 1))

let index_of_oop oop =
  let a = Value.pointer_address oop in
  if a mod 8 <> 0 || a <= 0 then
    raise (Invalid_access { oop; index = -1 })
  else (a / 8) - 1

(* The store starts below OCaml's minor-heap size limit (256 words):
   a larger block is allocated straight into the major heap, and the
   test pipeline creates one fresh memory per path, ISA and witness
   replay.  [grow] doubles on demand, and an oop depends only on its
   index, never on the capacity. *)
let initial_capacity = 64

let create class_table =
  { store = Array.make initial_capacity None; next = 0; class_table }

let class_table t = t.class_table

(* A deep copy: every entry and every mutable body (pointer slots,
   bytes, method literals and bytecode) is fresh, so no store into the
   copy can reach [t]. *)
let copy_body = function
  | Pointers a -> Pointers (Array.copy a)
  | Byte_data b -> Byte_data (Bytes.copy b)
  | Float_body f -> Float_body f
  | Method_body m ->
      Method_body
        { m with literals = Array.copy m.literals; bytecode = Bytes.copy m.bytecode }

let copy t class_table =
  {
    store =
      Array.map
        (Option.map (fun e -> { e with body = copy_body e.body }))
        t.store;
    next = t.next;
    class_table;
  }

let entry_opt t oop =
  if not (Value.is_pointer oop) then None
  else
    let i = index_of_oop oop in
    if i < 0 || i >= t.next then None else t.store.(i)

let entry t oop =
  match entry_opt t oop with
  | Some e -> e
  | None -> raise (Invalid_access { oop; index = -1 })

let grow t =
  if t.next >= Array.length t.store then begin
    let n = Array.make (2 * Array.length t.store) None in
    Array.blit t.store 0 n 0 (Array.length t.store);
    t.store <- n
  end

let alloc_entry t e =
  grow t;
  let i = t.next in
  t.next <- i + 1;
  t.store.(i) <- Some e;
  oop_of_index i

let allocate t ~class_id ~indexable_size =
  let desc = Class_table.lookup_exn t.class_table class_id in
  let format = Class_desc.format desc in
  let body =
    match format with
    | Objformat.Fixed_pointers n ->
        if indexable_size <> 0 then
          invalid_arg "Heap.allocate: fixed-format class with indexable size";
        Pointers (Array.make n (Value.of_pointer 8 (* patched below *)))
    | Objformat.Variable_pointers n ->
        Pointers (Array.make (n + indexable_size) (Value.of_pointer 8))
    | Objformat.Variable_bytes -> Byte_data (Bytes.make indexable_size '\000')
    | Objformat.Boxed_float -> Float_body 0.0
    | Objformat.Compiled_method ->
        Method_body
          {
            literals = [||];
            bytecode = Bytes.create 0;
            num_args = 0;
            num_temps = 0;
            native_method = None;
          }
  in
  alloc_entry t { class_id; format; body }

(* The heap must exist before nil does, so freshly allocated pointer slots
   are initially filled with a placeholder and re-initialised by
   {!Special_objects}.  [fill_pointers] lets it do so. *)
let fill_pointers t oop v =
  match (entry t oop).body with
  | Pointers a -> Array.fill a 0 (Array.length a) v
  | _ -> ()

let allocate_float t f =
  let oop =
    allocate t ~class_id:Class_table.boxed_float_id ~indexable_size:0
  in
  (entry t oop).body <- Float_body f;
  oop

let allocate_method t ~literals ~bytecode ~num_args ~num_temps ~native_method =
  if num_args < 0 || num_temps < 0 then
    invalid_arg "Heap.allocate_method: negative arg/temp count";
  let oop =
    allocate t ~class_id:Class_table.compiled_method_id ~indexable_size:0
  in
  (entry t oop).body <-
    Method_body { literals; bytecode; num_args; num_temps; native_method };
  oop

let class_id_of t oop =
  if Value.is_small_int oop then Class_table.small_integer_id
  else (entry t oop).class_id

let class_of t oop = Class_table.lookup_exn t.class_table (class_id_of t oop)
let format_of t oop = (entry t oop).format

let is_valid_object t oop = Value.is_small_int oop || entry_opt t oop <> None

let num_slots t oop =
  match (entry t oop).body with
  | Pointers a -> Array.length a
  | Byte_data b -> Bytes.length b
  | Float_body _ -> 0
  | Method_body m -> Array.length m.literals

(* Number of *indexable* slots, past the fixed named instance variables. *)
let indexable_size t oop =
  let e = entry t oop in
  match e.body with
  | Pointers a -> Array.length a - Objformat.fixed_size e.format
  | Byte_data b -> Bytes.length b
  | Float_body _ -> 0
  | Method_body m -> Array.length m.literals + Bytes.length m.bytecode

let fetch_pointer t oop index =
  match (entry t oop).body with
  | Pointers a ->
      if index < 0 || index >= Array.length a then
        raise (Invalid_access { oop; index })
      else a.(index)
  | _ -> raise (Invalid_access { oop; index })

let store_pointer t oop index v =
  match (entry t oop).body with
  | Pointers a ->
      if index < 0 || index >= Array.length a then
        raise (Invalid_access { oop; index })
      else a.(index) <- v
  | _ -> raise (Invalid_access { oop; index })

let fetch_byte t oop index =
  match (entry t oop).body with
  | Byte_data b ->
      if index < 0 || index >= Bytes.length b then
        raise (Invalid_access { oop; index })
      else Char.code (Bytes.get b index)
  | _ -> raise (Invalid_access { oop; index })

let store_byte t oop index v =
  match (entry t oop).body with
  | Byte_data b ->
      if index < 0 || index >= Bytes.length b then
        raise (Invalid_access { oop; index })
      else Bytes.set b index (Char.chr (v land 0xff))
  | _ -> raise (Invalid_access { oop; index })

let float_value t oop =
  match (entry t oop).body with
  | Float_body f -> f
  | _ -> raise (Invalid_access { oop; index = 0 })

(* Unchecked float read: reinterprets whatever the body holds as a float,
   the way compiled code unboxing without a class check would.  Pointer and
   integer bodies yield garbage doubles. *)
let unchecked_float_value t oop =
  match (entry_opt t oop : entry option) with
  | Some { body = Float_body f; _ } -> f
  | Some { body = Pointers a; _ } ->
      Int64.float_of_bits (Int64.of_int (Array.length a * 0x1D2C3B4A))
  | Some { body = Byte_data b; _ } ->
      Int64.float_of_bits (Int64.of_int (Bytes.length b * 0x5A6B7C8D))
  | Some { body = Method_body _; _ } -> Int64.float_of_bits 0x4011223344556677L
  | None -> Int64.float_of_bits (Int64.of_int (Value.pointer_address oop))

let set_float_value t oop f =
  let e = entry t oop in
  match e.body with
  | Float_body _ -> e.body <- Float_body f
  | _ -> raise (Invalid_access { oop; index = 0 })

let method_body t oop =
  match (entry t oop).body with
  | Method_body m -> m
  | _ -> raise (Invalid_access { oop; index = 0 })

let is_method t oop =
  match entry_opt t oop with
  | Some { body = Method_body _; _ } -> true
  | _ -> false

let identity_hash (_ : t) oop =
  if Value.is_small_int oop then Value.small_int_value oop land 0x3FFFFF
  else (index_of_oop oop + 1) * 2654435761 land 0x3FFFFF

let object_count t = t.next

(* Roll the allocation frontier back to a previously observed
   [object_count].  Everything at or above the mark is dropped; objects
   below it are untouched (callers guarantee they were not mutated).
   This is what lets a scratch memory be reset between materialisations
   instead of rebuilt from scratch. *)
let truncate t mark =
  if mark < 0 || mark > t.next then invalid_arg "Heap.truncate: bad mark";
  Array.fill t.store mark (t.next - mark) None;
  t.next <- mark

let shallow_copy t oop =
  let e = entry t oop in
  let body =
    match e.body with
    | Pointers a -> Pointers (Array.copy a)
    | Byte_data b -> Byte_data (Bytes.copy b)
    | Float_body f -> Float_body f
    | Method_body m -> Method_body m
  in
  alloc_entry t { class_id = e.class_id; format = e.format; body }

(* --- Garbage collection support: mark-compact with forwarding ---

   The store is an object table, so "copying" is compaction: surviving
   entries slide down, every pointer slot (and method literal) is
   rewritten through the forwarding table, and callers remap their roots
   with the returned forwarding function.  {!Scavenger} layers
   generational accounting on top. *)

let compact t ~(roots : Value.t list) : (Value.t -> Value.t) * int =
  let n = t.next in
  let marked = Array.make n false in
  let rec mark v =
    if Value.is_pointer v then begin
      let i = index_of_oop v in
      if i >= 0 && i < n && not marked.(i) then begin
        marked.(i) <- true;
        match t.store.(i) with
        | Some { body = Pointers slots; _ } -> Array.iter mark slots
        | Some { body = Method_body m; _ } -> Array.iter mark m.literals
        | Some { body = (Byte_data _ | Float_body _); _ } | None -> ()
      end
    end
  in
  List.iter mark roots;
  (* forwarding table: old index → new index *)
  let forward_idx = Array.make n (-1) in
  let next = ref 0 in
  for i = 0 to n - 1 do
    if marked.(i) then begin
      forward_idx.(i) <- !next;
      incr next
    end
  done;
  let forward v =
    if not (Value.is_pointer v) then v
    else
      let i = index_of_oop v in
      if i < 0 || i >= n || forward_idx.(i) < 0 then
        raise (Invalid_access { oop = v; index = -1 })
      else oop_of_index forward_idx.(i)
  in
  (* slide survivors down, rewriting their references *)
  let old_store = Array.copy t.store in
  Array.fill t.store 0 n None;
  for i = 0 to n - 1 do
    if marked.(i) then begin
      let e = Option.get old_store.(i) in
      (match e.body with
      | Pointers slots ->
          Array.iteri (fun k v -> slots.(k) <- forward v) slots
      | Method_body m ->
          Array.iteri (fun k v -> m.literals.(k) <- forward v) m.literals
      | Byte_data _ | Float_body _ -> ());
      t.store.(forward_idx.(i)) <- Some e
    end
  done;
  let reclaimed = n - !next in
  t.next <- !next;
  (forward, reclaimed)
