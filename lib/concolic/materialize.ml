(* Input materialisation: interpret a solver model's structural object
   descriptions to build a concrete object memory and VM frame (§3.2:
   "re-creating a VM input implies interpreting the results of the
   constraint solver using the structural information in the VM object
   constraints").

   Materialisation is deterministic for a given model, so the explorer
   (interpreter side) and the differential tester (compiled side) rebuild
   byte-identical inputs independently. *)

open Vm_objects
module Sym = Symbolic.Sym_expr

type input = {
  om : Object_memory.t;
  frame : Interpreter.Frame.t;
  meth : Bytecodes.Compiled_method.t;
  bindings : (Sym.t * Value.t) list; (* term → materialised oop *)
  stack_depth : int;
}

let max_stack_entries = 16
let max_object_slots = 128
let max_byte_size = 4096

(* Cache of invented plain-object classes, per object memory. *)
let flex_class om ~slots =
  let name = Printf.sprintf "SolverObject%d" slots in
  let table = Object_memory.class_table om in
  let found = ref None in
  Class_table.iter table (fun d ->
      if Class_desc.name d = name then found := Some d);
  match !found with
  | Some d -> Class_desc.class_id d
  | None ->
      Class_desc.class_id
        (Object_memory.register_class om ~name
           ~format:(Objformat.Fixed_pointers slots))

(* A reusable scratch memory: the stable prefix (singletons, class
   objects, the method under test) is built once, and every [build] call
   rolls the heap back to the watermark taken just after it.  Because
   materialisation only allocates above the watermark (and failed stores
   into the prefix bounds-reject before writing), the replayed
   allocations produce oops identical to a freshly created memory. *)
type arena = {
  scratch_om : Object_memory.t;
  scratch_meth : Bytecodes.Compiled_method.t;
  scratch_mark : Object_memory.mark;
}

let arena ~(method_in : Object_memory.t -> Bytecodes.Compiled_method.t) :
    arena =
  let om = Object_memory.create () in
  let meth = method_in om in
  { scratch_om = om; scratch_meth = meth; scratch_mark = Object_memory.mark om }

let build ?arena ~(model : Solver.Model.t)
    ~(method_in : Object_memory.t -> Bytecodes.Compiled_method.t)
    ~(recv_var : Sym.var) ~(temp_vars : Sym.var array)
    ~(entry_var : int -> Sym.var) ~(stack_size_term : Sym.t) () : input =
  let om, premade_meth =
    match arena with
    | Some a ->
        Object_memory.reset_to_mark a.scratch_om a.scratch_mark;
        (a.scratch_om, Some a.scratch_meth)
    | None -> (Object_memory.create (), None)
  in
  let env = Solver.Eval.env_of_model model in
  let memo : (Sym.t, Value.t) Hashtbl.t = Hashtbl.create 32 in
  let bindings = ref [] in

  (* All Slot_at / Byte_at assignments of the model, grouped by parent. *)
  let slot_assignments parent =
    List.filter_map
      (fun (k, _) ->
        match (k : Sym.t) with
        | Slot_at (p, idx) when Sym.equal p parent -> (
            match Solver.Eval.eval_int env idx with
            | i -> Some (i, k)
            | exception Solver.Eval.Failed -> None)
        | _ -> None)
      (Solver.Model.oop_bindings model)
  in
  let byte_assignments parent =
    List.filter_map
      (fun (k, v) ->
        match (k : Sym.t) with
        | Byte_at (p, idx) when Sym.equal p parent -> (
            match Solver.Eval.eval_int env idx with
            | i -> Some (i, v)
            | exception Solver.Eval.Failed -> None)
        | _ -> None)
      (Solver.Model.int_bindings model)
  in

  let rec materialize (term : Sym.t) : Value.t =
    match Hashtbl.find_opt memo term with
    | Some v -> v
    | None ->
        let desc =
          match Solver.Model.oop model term with
          | Some d -> d
          | None -> Solver.Model.D_small_int 0 (* unconstrained default *)
        in
        let v = of_desc term desc in
        Hashtbl.replace memo term v;
        bindings := (term, v) :: !bindings;
        v

  and of_desc term (desc : Solver.Model.oop_desc) : Value.t =
    match desc with
    | D_small_int v ->
        let v = max Value.min_small_int (min Value.max_small_int v) in
        Value.of_small_int v
    | D_float f -> Object_memory.float_object_of om f
    | D_nil -> Object_memory.nil om
    | D_true -> Object_memory.true_obj om
    | D_false -> Object_memory.false_obj om
    | D_class { described_class_id } ->
        Object_memory.class_object om ~class_id:described_class_id
    | D_object { class_id; num_slots } -> (
        let num_slots = max 0 (min max_object_slots num_slots) in
        match class_id with
        | Some cid ->
            let desc = Class_table.lookup_exn (Object_memory.class_table om) cid in
            let indexable =
              if Class_desc.is_variable desc then
                max 0 (num_slots - Class_desc.fixed_size desc)
              else 0
            in
            let obj =
              Object_memory.instantiate_class om ~class_id:cid
                ~indexable_size:indexable
            in
            fill_slots term obj;
            obj
        | None ->
            let cid = flex_class om ~slots:num_slots in
            let obj =
              Object_memory.instantiate_class om ~class_id:cid
                ~indexable_size:0
            in
            fill_slots term obj;
            obj)
    | D_byte_object { class_id; size } ->
        let size = max 0 (min max_byte_size size) in
        let cid = Option.value class_id ~default:Class_table.byte_array_id in
        let obj =
          Object_memory.instantiate_class om ~class_id:cid ~indexable_size:size
        in
        List.iter
          (fun (i, b) ->
            if i >= 0 && i < size then
              Object_memory.store_byte om obj i (b land 0xff))
          (byte_assignments term);
        obj

  and fill_slots term obj =
    let total = Object_memory.num_slots om obj in
    List.iter
      (fun (i, slot_term) ->
        if i >= 0 && i < total then
          Object_memory.store_pointer om obj i (materialize slot_term))
      (slot_assignments term)
  in

  (* Character objects need their value slot set from [Char_value_of]. *)
  let patch_character term v =
    if
      Value.is_pointer v
      && Object_memory.class_index_of om v = Class_table.character_id
    then
      let cv =
        Solver.Model.int_or model (Sym.Char_value_of term) ~default:65
      in
      Object_memory.store_pointer om v 0
        (Value.of_small_int (max 0 (min 0x10FFFF cv)))
  in

  (* Build the method first so its oop is stable, then the frame inputs.
     An arena already holds the method (below its watermark). *)
  let meth =
    match premade_meth with Some m -> m | None -> method_in om
  in
  let receiver = materialize (Sym.Var recv_var) in
  patch_character (Sym.Var recv_var) receiver;
  let temps =
    Array.map
      (fun v ->
        let value = materialize (Sym.Var v) in
        patch_character (Sym.Var v) value;
        value)
      temp_vars
  in
  let depth =
    let d =
      match Solver.Model.int model stack_size_term with
      | Some d -> d
      | None -> 0
    in
    max 0 (min max_stack_entries d)
  in
  (* Bottom-up: ranks depth-1 .. 0 (rank 0 is the top of stack). *)
  let stack =
    List.init depth (fun i ->
        let rank = depth - 1 - i in
        let v = materialize (Sym.Var (entry_var rank)) in
        patch_character (Sym.Var (entry_var rank)) v;
        v)
  in
  let frame = Interpreter.Frame.create ~receiver ~meth ~temps ~stack in
  { om; frame; meth; bindings = !bindings; stack_depth = depth }

(* Oops survive the copy, so the bindings carry over as they are; the
   method view and the frame are rebuilt over the copied memory. *)
let copy (i : input) : input =
  let module F = Interpreter.Frame in
  let om = Object_memory.copy i.om in
  let meth =
    Bytecodes.Compiled_method.of_oop (Object_memory.heap om)
      (Bytecodes.Compiled_method.oop i.meth)
  in
  let frame =
    F.create ~receiver:(F.receiver i.frame) ~meth
      ~temps:(Array.copy (F.temps i.frame))
      ~stack:(F.stack_bottom_up i.frame)
  in
  { i with om; meth; frame }
