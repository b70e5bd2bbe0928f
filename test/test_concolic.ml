(* Concolic exploration tests: path structure for the paper's guiding
   example, frame-shape discipline, materialisation determinism. *)

module Op = Bytecodes.Opcode
module EC = Interpreter.Exit_condition
module Sym = Symbolic.Sym_expr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let explore ?defects subject = Concolic.Explorer.explore ?defects subject

let exits r = List.map (fun (p : Concolic.Path.t) -> p.exit_) r.Concolic.Explorer.paths

let count_exit r e = List.length (List.filter (( = ) e) (exits r))

(* --- the guiding example (Table 1 / Figure 2) --- *)

let test_add_paths () =
  let r = explore (Concolic.Path.Bytecode (Op.Arith_special Op.Sel_add)) in
  check_int "nine paths" 9 (List.length r.paths);
  check_int "one invalid frame (Fig 2 execution #1)" 1
    (count_exit r EC.Invalid_frame);
  check_int "two successes (int and float)" 2 (count_exit r EC.Success);
  check_int "six sends" 6
    (count_exit r (EC.Message_send { selector = EC.Special Op.Sel_add; num_args = 1 }))

let test_add_first_path_is_stack_shape () =
  (* the first execution runs on an empty frame and exits invalid-frame
     with the size constraint recorded, exactly like Fig 2 *)
  let r = explore (Concolic.Path.Bytecode (Op.Arith_special Op.Sel_add)) in
  let first = List.hd r.paths in
  check_bool "invalid frame first" true (first.exit_ = EC.Invalid_frame);
  check_int "single clause" 1
    (Symbolic.Path_condition.length first.path_condition)

let test_add_success_output () =
  let r = explore (Concolic.Path.Bytecode (Op.Arith_special Op.Sel_add)) in
  let success =
    List.find
      (fun (p : Concolic.Path.t) ->
        p.exit_ = EC.Success
        && not
             (List.exists
                (fun (c : Symbolic.Path_condition.clause) ->
                  match c.cond with Sym.Is_float_object _ -> true | _ -> false)
                p.path_condition))
      r.paths
  in
  (* output stack is intObjectOf(a + b) *)
  match success.output.stack with
  | [ Sym.Integer_object_of (Sym.Add _) ] -> ()
  | other ->
      Alcotest.failf "unexpected output %s"
        (String.concat ";" (List.map Sym.to_string other))

let test_overflow_path_has_witness () =
  let r = explore (Concolic.Path.Bytecode (Op.Arith_special Op.Sel_add)) in
  let overflow =
    List.find
      (fun (p : Concolic.Path.t) ->
        List.exists
          (fun (c : Symbolic.Path_condition.clause) ->
            match c.cond with
            | Sym.Not (Sym.Is_in_small_int_range _) -> true
            | _ -> false)
          p.path_condition)
      r.paths
  in
  check_bool "overflow exits via send" true
    (overflow.exit_ = EC.Message_send { selector = EC.Special Op.Sel_add; num_args = 1 })

(* --- path counts per instruction kind (Figure 5 shape) --- *)

let test_simple_pushes_have_few_paths () =
  List.iter
    (fun op ->
      let r = explore (Concolic.Path.Bytecode op) in
      check_bool (Op.mnemonic op ^ " has 1-2 paths") true
        (List.length r.paths >= 1 && List.length r.paths <= 2))
    [ Op.Push_one; Op.Push_nil; Op.Push_receiver; Op.Nop ]

let test_natives_have_more_paths () =
  (* native methods check operands, so they branch more than pushes *)
  let native_avg =
    let ids = [ 1; 10; 17; 41; 70; 77 ] in
    let total =
      List.fold_left
        (fun acc id ->
          acc + List.length (explore (Concolic.Path.Native id)).paths)
        0 ids
    in
    float_of_int total /. float_of_int (List.length ids)
  in
  check_bool "natives average above 4 paths" true (native_avg > 4.0)

let test_push_this_context_unsupported () =
  let r = explore (Concolic.Path.Bytecode Op.Push_this_context) in
  check_bool "unsupported flag" true r.unsupported;
  check_int "no paths" 0 (List.length r.paths)

(* --- frame-shape discipline --- *)

let test_receiver_variable_materialises_slots () =
  (* pushRcvrVar 2 needs a receiver with ≥ 3 slots: the negation of the
     bounds constraint must materialise one *)
  let r = explore (Concolic.Path.Bytecode (Op.Push_receiver_variable 2)) in
  check_bool "has a success path" true
    (List.exists (fun (p : Concolic.Path.t) -> p.exit_ = EC.Success) r.paths);
  check_bool "has an invalid-memory path" true
    (List.exists
       (fun (p : Concolic.Path.t) -> p.exit_ = EC.Invalid_memory_access)
       r.paths)

let test_at_explores_string_and_array () =
  let r = explore (Concolic.Path.Bytecode (Op.Common_special Op.Sel_at)) in
  let successes =
    List.filter (fun (p : Concolic.Path.t) -> p.exit_ = EC.Success) r.paths
  in
  (* both the pointers case and the bytes case must be found *)
  check_int "two success paths (array and bytes)" 2 (List.length successes)

let test_native_invalid_frame_paths () =
  (* a unary native needs receiver+arg: sizes 0 and 1 are invalid-frame *)
  let r = explore (Concolic.Path.Native 1) in
  check_int "one aggregated invalid-frame path" 1
    (count_exit r EC.Invalid_frame)

(* --- determinism --- *)

let test_exploration_deterministic () =
  let key r =
    String.concat "\n"
      (List.map Concolic.Path.key r.Concolic.Explorer.paths)
  in
  let r1 = explore (Concolic.Path.Bytecode (Op.Arith_special Op.Sel_add)) in
  let r2 = explore (Concolic.Path.Bytecode (Op.Arith_special Op.Sel_add)) in
  check_bool "same paths across runs" true (key r1 = key r2)

let test_materialisation_deterministic () =
  (* the differential tester depends on re-materialisation producing the
     same concrete inputs as the exploration *)
  let r = explore (Concolic.Path.Native 1) in
  List.iter
    (fun (path : Concolic.Path.t) ->
      let frame = path.input_frame in
      let as_var e =
        match (e : Sym.t) with Var v -> v | _ -> Alcotest.fail "var expected"
      in
      let stack = Symbolic.Abstract_frame.operand_stack frame in
      let n = List.length stack in
      let entry_var rank = as_var (List.nth stack (n - 1 - rank)) in
      let build () =
        Concolic.Materialize.build ~model:path.model
          ~method_in:(Concolic.Explorer.method_in_for path.subject)
          ~recv_var:(as_var (Symbolic.Abstract_frame.receiver frame))
          ~temp_vars:(Array.map as_var (Symbolic.Abstract_frame.temps frame))
          ~entry_var ~stack_size_term:path.stack_size_term ()
      in
      let i1 = build () and i2 = build () in
      check_bool "identical stacks" true
        (List.for_all2 Vm_objects.Value.equal
           (Interpreter.Frame.stack_bottom_up i1.frame)
           (Interpreter.Frame.stack_bottom_up i2.frame));
      check_bool "identical receiver" true
        (Vm_objects.Value.equal
           (Interpreter.Frame.receiver i1.frame)
           (Interpreter.Frame.receiver i2.frame)))
    r.paths

let test_as_float_defect_visible_to_exploration () =
  (* with the paper defect, the assertion is visible: the pointer-receiver
     path exists and SUCCEEDS in the interpreter *)
  let r = explore ~defects:Interpreter.Defects.paper (Concolic.Path.Native 40) in
  let non_int_success =
    List.exists
      (fun (p : Concolic.Path.t) ->
        p.exit_ = EC.Success
        && List.exists
             (fun (c : Symbolic.Path_condition.clause) ->
               match c.cond with
               | Sym.Not (Sym.Is_small_int _) -> true
               | _ -> false)
             p.path_condition)
      r.paths
  in
  check_bool "buggy success on pointer receiver" true non_int_success;
  (* pristine: that path fails instead *)
  let r = explore ~defects:Interpreter.Defects.pristine (Concolic.Path.Native 40) in
  let non_int_failure =
    List.exists
      (fun (p : Concolic.Path.t) ->
        p.exit_ = EC.Failure)
      r.paths
  in
  check_bool "fixed failure on pointer receiver" true non_int_failure

(* primFFIStoreFloat64's bounds conjunctions are where cold native
   exploration spent its time; its exploration counts are pinned so a
   faster solver can never change what the explorer finds. *)
let test_ffi_store_float64_counts () =
  let info =
    List.find
      (fun (i : Interpreter.Primitive_table.info) ->
        i.name = "primFFIStoreFloat64")
      Interpreter.Primitive_table.all
  in
  let r = Concolic.Explorer.explore_uncached (Concolic.Path.Native info.id) in
  check_int "iterations" 7 r.iterations;
  check_int "paths" 7 (List.length r.paths);
  check_int "unsat negations" 9 r.unsat_negations;
  check_int "skipped negations" 8 r.skipped_negations

let test_effects_recorded () =
  let r = explore (Concolic.Path.Bytecode (Op.Common_special Op.Sel_at_put)) in
  let with_effects =
    List.filter
      (fun (p : Concolic.Path.t) -> p.output.effects <> [])
      r.paths
  in
  check_bool "at:put: records heap effects" true (List.length with_effects >= 1)

let test_return_value_recorded () =
  let r = explore (Concolic.Path.Bytecode Op.Return_top) in
  let returned =
    List.find (fun (p : Concolic.Path.t) -> p.exit_ = EC.Method_return) r.paths
  in
  check_bool "return value captured" true (returned.output.return_value <> None)

(* The path-summary memo and the store share one string key.  Over
   the curated universe and the 700-subject extracted corpus the keys
   must tell exactly the distinct subjects apart (so
   [Path.subject_name] is injective there), and their hashes must
   spread: the (subject, defects, ...) tuple the memo used to be keyed
   by hashed every byte-code sequence alike. *)
let test_memo_keys_hash () =
  let module Campaign = Ijdt_core.Campaign in
  let subjects =
    Campaign.curated_universe ()
    @ Templates.Corpus.subjects (Campaign.extracted_corpus ~seed:42 ~n:700 ())
  in
  let key s =
    Concolic.Explorer.store_key s Interpreter.Defects.paper 96 false
  in
  let distinct l = List.length (List.sort_uniq compare l) in
  let keys = List.map key subjects in
  let n = distinct subjects in
  check_bool "more than the curated universe" true (n > 1000);
  check_int "one key per distinct subject" n (distinct keys);
  check_int "keys equal exactly when subjects are" n
    (distinct (List.combine subjects keys));
  let hashes = distinct (List.map Hashtbl.hash (List.sort_uniq compare keys)) in
  check_bool
    (Printf.sprintf ">= 95%% distinct hashes (%d of %d)" hashes n)
    true
    (hashes * 100 >= 95 * n)

let suite =
  [
    Alcotest.test_case "add: nine paths (Table 1)" `Quick test_add_paths;
    Alcotest.test_case "add: invalid frame first (Fig 2)" `Quick
      test_add_first_path_is_stack_shape;
    Alcotest.test_case "add: success output shape" `Quick test_add_success_output;
    Alcotest.test_case "add: overflow witness" `Quick test_overflow_path_has_witness;
    Alcotest.test_case "pushes have few paths" `Quick test_simple_pushes_have_few_paths;
    Alcotest.test_case "natives have more paths (Fig 5)" `Quick
      test_natives_have_more_paths;
    Alcotest.test_case "pushThisContext unsupported (§4.3)" `Quick
      test_push_this_context_unsupported;
    Alcotest.test_case "receiver slots materialised" `Quick
      test_receiver_variable_materialises_slots;
    Alcotest.test_case "at: explores array and bytes" `Quick
      test_at_explores_string_and_array;
    Alcotest.test_case "native invalid-frame paths" `Quick
      test_native_invalid_frame_paths;
    Alcotest.test_case "exploration deterministic" `Quick test_exploration_deterministic;
    Alcotest.test_case "materialisation deterministic" `Quick
      test_materialisation_deterministic;
    Alcotest.test_case "asFloat defect visible (Listing 5)" `Quick
      test_as_float_defect_visible_to_exploration;
    Alcotest.test_case "primFFIStoreFloat64 exploration counts" `Quick
      test_ffi_store_float64_counts;
    Alcotest.test_case "memo keys: injective and hashing" `Quick
      test_memo_keys_hash;
    Alcotest.test_case "heap effects recorded" `Quick test_effects_recorded;
    Alcotest.test_case "return value recorded" `Quick test_return_value_recorded;
  ]
