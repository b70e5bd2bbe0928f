(* The differential test runner (§2.4, §4.2).

   For each concolically explored path:
   1. *curate*: re-solve the recorded path condition; paths the solver
      cannot crack (bitwise constraints, precision limits) are curated
      out, mirroring the paper's curated-paths column;
   2. rebuild the concrete input deterministically from the path's model
      (the same materialisation the interpreter side used);
   3. compile the instruction with the compiler under test and run the
      machine code on the CPU simulator, adapting the stack-machine input
      to the register-machine calling convention;
   4. validate the exit condition and the observable outputs against the
      recorded output constraints. *)

module Sym = Symbolic.Sym_expr
module EC = Interpreter.Exit_condition

type outcome =
  | Pass
  | Expected_failure (* invalid-frame paths etc. (§3.4) *)
  | Curated_out of string
  | Diff of Difference.t

let is_diff = function Diff _ -> true | _ -> false

(* Rebuild the materialisation parameters recorded in a path. *)
let rebuild_input (path : Concolic.Path.t) =
  let frame = path.input_frame in
  let as_var e =
    match (e : Sym.t) with
    | Var v -> v
    | _ -> invalid_arg "Runner: input frame entry is not a variable"
  in
  let recv_var = as_var (Symbolic.Abstract_frame.receiver frame) in
  let temp_vars =
    Array.map as_var (Symbolic.Abstract_frame.temps frame)
  in
  let stack = Symbolic.Abstract_frame.operand_stack frame in
  let n = List.length stack in
  let entry_var rank =
    (* bottom-up list [rank n-1; ...; rank 0] *)
    if rank < n then as_var (List.nth stack (n - 1 - rank))
    else
      (* never materialised beyond the recorded depth *)
      { Sym.id = 100000 + rank; name = Printf.sprintf "s%d!" rank; sort = Sym.Oop }
  in
  let method_in om =
    Concolic.Explorer.method_in_for path.subject om
  in
  Concolic.Materialize.build ~model:path.model ~method_in ~recv_var ~temp_vars
    ~entry_var ~stack_size_term:path.stack_size_term ()

(* Expected final pc → stop marker mapping for branch instructions. *)
let expected_marker (path : Concolic.Path.t) =
  match path.subject with
  | Concolic.Path.Native _ -> 0
  | Concolic.Path.Bytecode_seq _ ->
      (* every sequence path that succeeds runs to the end marker *)
      0
  | Concolic.Path.Bytecode op -> (
      match op with
      | Bytecodes.Opcode.Jump d | Jump_false d | Jump_true d ->
          let next = 1 in
          if path.output.pc = next + d then 1 else 0
      | Jump_ext d | Jump_false_ext d | Jump_true_ext d ->
          let next = 2 in
          if path.output.pc = next + d then 1 else 0
      | _ -> 0)

(* Map a send selector recorded by the interpreter to the trampoline info
   the compiled code must call. *)
let send_info_matches (expected : EC.selector * int)
    (info : Machine.Machine_code.send_info) =
  let sel, n = expected in
  EC.equal_selector sel info.selector && n = info.num_args

let run_machine ~defects cpu program =
  match Machine.Cpu.run cpu program with
  | Machine.Cpu.Returned w -> Difference.O_return w
  | Machine.Cpu.Stopped 0 -> Difference.O_success { marker = 0 }
  | Machine.Cpu.Stopped m -> Difference.O_success { marker = m }
  | Machine.Cpu.Called_trampoline info -> Difference.O_send info
  | Machine.Cpu.Segfault -> Difference.O_segfault
  | Machine.Cpu.Out_of_fuel -> Difference.O_out_of_fuel
  | exception Machine.Register_accessors.Simulation_error msg ->
      ignore defects;
      Difference.O_simulation_error msg

(* Validate machine outputs against the recorded output constraints. *)
let check_outputs ~(path : Concolic.Path.t) ~(env : Concrete_eval.env)
    ~(cpu : Machine.Cpu.t) ~(stack_expected : Sym.t list)
    ~(check_stack : bool) : string option =
  let om = Machine.Cpu.object_memory cpu in
  ignore om;
  let mismatch = ref None in
  let note what = if !mismatch = None then mismatch := Some what in
  (if check_stack then begin
     let words = Machine.Cpu.stack_words cpu in
     if List.length words <> List.length stack_expected then
       note
         (Printf.sprintf "stack depth: machine %d, interpreter %d"
            (List.length words)
            (List.length stack_expected))
     else
       List.iteri
         (fun i (w, e) ->
           match Concrete_eval.eval_oop env e with
           | expected ->
               if not (Concrete_eval.matches env expected w) then
                 note (Printf.sprintf "stack slot %d" i)
           | exception Concrete_eval.Unevaluable m ->
               note ("unevaluable output: " ^ m))
         (List.combine words stack_expected)
   end);
  (* heap effects: the compiled run must have performed the same stores *)
  List.iter
    (fun (eff : Concolic.Shadow_machine.effect) ->
      match eff with
      | Concolic.Shadow_machine.Slot_write { target; index; stored } -> (
          match Concrete_eval.eval_oop env target with
          | Concrete_eval.Exact tv -> (
              match Concrete_eval.eval_oop env stored with
              | expected -> (
                  match
                    Vm_objects.Object_memory.fetch_pointer
                      (Machine.Cpu.object_memory cpu) tv index
                  with
                  | actual ->
                      if not (Concrete_eval.matches env expected (actual :> int))
                      then note (Printf.sprintf "heap slot %d" index)
                  | exception Vm_objects.Heap.Invalid_access _ ->
                      note "heap write target invalid")
              | exception Concrete_eval.Unevaluable m ->
                  note ("unevaluable stored value: " ^ m))
          | _ -> ()
          | exception Concrete_eval.Unevaluable _ -> ())
      | Concolic.Shadow_machine.Byte_write { target; index; stored } -> (
          match Concrete_eval.eval_oop env target with
          | Concrete_eval.Exact tv -> (
              match Concrete_eval.eval_int env stored with
              | expected -> (
                  match
                    Vm_objects.Object_memory.fetch_byte
                      (Machine.Cpu.object_memory cpu) tv index
                  with
                  | actual ->
                      if actual <> expected land 0xff then
                        note (Printf.sprintf "heap byte %d" index)
                  | exception Vm_objects.Heap.Invalid_access _ ->
                      note "heap write target invalid")
              | exception Concrete_eval.Unevaluable m ->
                  note ("unevaluable stored byte: " ^ m))
          | _ -> ()
          | exception Concrete_eval.Unevaluable _ -> ()))
    path.output.effects;
  !mismatch

let diff ~compiler ~arch ~(path : Concolic.Path.t) kind =
  let family, cause =
    Classify.classify ~compiler ~subject:path.subject ~exit_:path.exit_
      ~observed:
        (match kind with
        | Difference.Exit_mismatch { observed; _ } -> observed
        | Difference.Value_mismatch _ -> Difference.O_success { marker = 0 })
  in
  let family, cause = Classify.refine_simple_arith ~path (family, cause) in
  Diff
    {
      Difference.compiler;
      arch;
      subject = path.subject;
      path_key = Concolic.Path.key path;
      kind;
      family;
      cause;
    }

(* --- byte-code instruction testing --- *)

let run_bytecode_path ~front ~defects ~compiler ~arch (path : Concolic.Path.t)
    (op : [ `One of Bytecodes.Opcode.t | `Seq of Bytecodes.Opcode.t list ]) :
    outcome =
  match path.exit_ with
  | EC.Invalid_frame ->
      (* expected failures: the frame generator simply lacked elements *)
      Expected_failure
  | _ -> (
      (* curation was computed once at exploration time (same query,
         same verdict) — no re-solve per (compiler × arch) consumer.
         The chaos hook still fires per consult so a memoized verdict
         can never mask an injected solver fault. *)
      Exec.Chaos.hook_solver ();
      match path.curation with
      | Solver.Solve.Unknown reason -> Curated_out reason
      | Solver.Solve.Unsat -> Curated_out "path condition re-solve unsat"
      | Solver.Solve.Sat _ -> (
          let input = rebuild_input path in
          let om = input.om in
          let meth = input.meth in
          let literals =
            Array.map
              (fun (v : Vm_objects.Value.t) -> (v :> int))
              (Bytecodes.Compiled_method.literals meth)
          in
          let stack_setup =
            List.map
              (fun (v : Vm_objects.Value.t) -> (v :> int))
              (Interpreter.Frame.stack_bottom_up input.frame)
          in
          (* materialisation is deterministic: every ISA of this path
             sees the same literals and stack set-up, so [front]
             compiles them once *)
          let compiled () =
            Jit.Cogits.lower_for compiler ~arch
              (Jit.Cogits.compile_once front (fun () ->
                   match op with
                   | `One op ->
                       Jit.Cogits.compile_bytecode compiler ~defects ~literals
                         ~stack_setup op
                   | `Seq ops ->
                       Jit.Cogits.compile_sequence compiler ~defects ~literals
                         ~stack_setup ops))
          in
          match compiled () with
          | exception Jit.Cogits.Not_compiled msg ->
              diff ~compiler ~arch ~path
                (Difference.Exit_mismatch
                   { expected = path.exit_; observed = Difference.O_not_compiled msg })
          | program -> (
              let cpu =
                Machine.Cpu.create
                  ~accessor_gaps:defects.Interpreter.Defects.simulation_accessor_gaps
                  om
              in
              Machine.Cpu.set_reg cpu Machine.Machine_code.r_receiver
                ((Interpreter.Frame.receiver input.frame :> int));
              Array.iteri
                (fun i (v : Vm_objects.Value.t) ->
                  Machine.Cpu.set_temp cpu i (v :> int))
                (Interpreter.Frame.temps input.frame);
              let observed = run_machine ~defects cpu program in
              let env =
                Concrete_eval.create ~om
                  ~bindings:
                    (List.map (fun (t, v) -> (t, v)) input.bindings)
              in
              let mismatch k = diff ~compiler ~arch ~path k in
              match (path.exit_, observed) with
              | EC.Success, Difference.O_success { marker } ->
                  if marker <> expected_marker path then
                    mismatch
                      (Difference.Exit_mismatch
                         { expected = path.exit_; observed })
                  else begin
                    (* temps check *)
                    let temp_mismatch = ref None in
                    Array.iteri
                      (fun i e ->
                        match Concrete_eval.eval_oop env e with
                        | expected ->
                            if
                              not
                                (Concrete_eval.matches env expected
                                   (Machine.Cpu.temp cpu i))
                            then
                              if !temp_mismatch = None then
                                temp_mismatch :=
                                  Some (Printf.sprintf "temp %d" i)
                        | exception Concrete_eval.Unevaluable m ->
                            if !temp_mismatch = None then
                              temp_mismatch := Some ("unevaluable temp: " ^ m))
                      path.output.temps;
                    match
                      ( !temp_mismatch,
                        check_outputs ~path ~env ~cpu
                          ~stack_expected:path.output.stack ~check_stack:true )
                    with
                    | None, None -> Pass
                    | Some what, _ | None, Some what ->
                        mismatch (Difference.Value_mismatch { what })
                  end
              | EC.Message_send { selector; num_args }, Difference.O_send info
                ->
                  if send_info_matches (selector, num_args) info then Pass
                  else
                    mismatch
                      (Difference.Exit_mismatch
                         { expected = path.exit_; observed })
              | EC.Method_return, Difference.O_return w -> (
                  match path.output.return_value with
                  | None -> Pass
                  | Some e -> (
                      match Concrete_eval.eval_oop env e with
                      | expected ->
                          if Concrete_eval.matches env expected w then Pass
                          else
                            mismatch
                              (Difference.Value_mismatch
                                 { what = "return value" })
                      | exception Concrete_eval.Unevaluable m ->
                          mismatch
                            (Difference.Value_mismatch
                               { what = "unevaluable return: " ^ m })))
              | EC.Invalid_memory_access, Difference.O_segfault ->
                  (* unsafe byte-codes: both engines fault — expected *)
                  Expected_failure
              | _, Difference.O_simulation_error _ ->
                  mismatch
                    (Difference.Exit_mismatch
                       { expected = path.exit_; observed })
              | _ ->
                  mismatch
                    (Difference.Exit_mismatch
                       { expected = path.exit_; observed }))))

(* --- native method testing --- *)

let run_native_path ~front ~defects ~arch (path : Concolic.Path.t)
    (prim_id : int) : outcome =
  let compiler = Jit.Cogits.Native_method_compiler in
  match path.exit_ with
  | EC.Invalid_frame -> Expected_failure
  | _ -> (
      Exec.Chaos.hook_solver ();
      match path.curation with
      | Solver.Solve.Unknown reason -> Curated_out reason
      | Solver.Solve.Unsat -> Curated_out "path condition re-solve unsat"
      | Solver.Solve.Sat _ -> (
          let arity = Interpreter.Primitive_table.arity prim_id in
          let input = rebuild_input path in
          let stack = Interpreter.Frame.stack_bottom_up input.frame in
          if List.length stack <> arity + 1 then Expected_failure
          else
            match
              Jit.Cogits.lower_for compiler ~arch
                (Jit.Cogits.compile_once front (fun () ->
                     Jit.Cogits.compile_native ~defects prim_id))
            with
            | exception Jit.Cogits.Not_compiled msg ->
                diff ~compiler ~arch ~path
                  (Difference.Exit_mismatch
                     {
                       expected = path.exit_;
                       observed = Difference.O_not_compiled msg;
                     })
            | program -> (
                let om = input.om in
                let cpu =
                  Machine.Cpu.create
                    ~accessor_gaps:
                      defects.Interpreter.Defects.simulation_accessor_gaps om
                in
                (* calling convention: receiver + args in registers *)
                List.iteri
                  (fun i (v : Vm_objects.Value.t) ->
                    Machine.Cpu.set_reg cpu
                      (if i = 0 then Machine.Machine_code.r_receiver
                       else Machine.Machine_code.r_arg0 + i - 1)
                      (v :> int))
                  stack;
                let observed =
                  (* for native methods the breakpoint means the template
                     fell through: the primitive failed (Listing 4) *)
                  match run_machine ~defects cpu program with
                  | Difference.O_success { marker = 0 } -> Difference.O_failure
                  | o -> o
                in
                let env =
                  Concrete_eval.create ~om
                    ~bindings:(List.map (fun (t, v) -> (t, v)) input.bindings)
                in
                let mismatch k = diff ~compiler ~arch ~path k in
                match (path.exit_, observed) with
                | EC.Success, Difference.O_return w -> (
                    (* the answer is the single value left on the operand
                       stack by the interpreter *)
                    match List.rev path.output.stack with
                    | result :: _ -> (
                        match Concrete_eval.eval_oop env result with
                        | expected ->
                            if Concrete_eval.matches env expected w then begin
                              match
                                check_outputs ~path ~env ~cpu
                                  ~stack_expected:[] ~check_stack:false
                              with
                              | None -> Pass
                              | Some what ->
                                  mismatch (Difference.Value_mismatch { what })
                            end
                            else
                              mismatch
                                (Difference.Value_mismatch { what = "result" })
                        | exception Concrete_eval.Unevaluable m ->
                            mismatch
                              (Difference.Value_mismatch
                                 { what = "unevaluable result: " ^ m }))
                    | [] ->
                        mismatch
                          (Difference.Value_mismatch
                             { what = "no result on interpreter stack" }))
                | EC.Failure, Difference.O_failure ->
                    (* both failed their operand checks: the compiled code
                       fell through to the breakpoint (Listing 4) *)
                    Pass
                | _ ->
                    mismatch
                      (Difference.Exit_mismatch
                         { expected = path.exit_; observed }))))

(* One path on one ISA; [front] carries the path's IR from the ISAs
   before (see {!run_path_arches}). *)
let run_path_on ~front ~defects ~compiler ~arch (path : Concolic.Path.t) :
    outcome =
  match (path.subject, compiler) with
  | Concolic.Path.Bytecode op, (Jit.Cogits.Simple_stack_cogit | Jit.Cogits.Stack_to_register_cogit | Jit.Cogits.Register_allocating_cogit) ->
      run_bytecode_path ~front ~defects ~compiler ~arch path (`One op)
  | Concolic.Path.Bytecode_seq ops, (Jit.Cogits.Simple_stack_cogit | Jit.Cogits.Stack_to_register_cogit | Jit.Cogits.Register_allocating_cogit) ->
      run_bytecode_path ~front ~defects ~compiler ~arch path (`Seq ops)
  | Concolic.Path.Native id, Jit.Cogits.Native_method_compiler ->
      run_native_path ~front ~defects ~arch path id
  | _ -> invalid_arg "Runner.run_path: compiler/subject mismatch"

let run_path ~defects ~compiler ~arch path =
  run_path_on ~front:(Jit.Cogits.ir_slot ()) ~defects ~compiler ~arch path

(* --- static pre-execution verification (the runner's pass 0) --- *)

type agreement =
  | Both_clean
  | Both_flagged
  | Static_only
  | Dynamic_only

(* One path's translation-validation result (see the pass-5 section
   below): candidates from {!Verify.Translation_validator} are confirmed
   by concrete replay before they count as refutations. *)
type validation =
  | V_proved
  | V_refuted of {
      witness : Verify.Translation_validator.witness;
      difference : Difference.t;
    }
  | V_spurious of Verify.Translation_validator.witness
  | V_unknown of string
  | V_skipped of string

let validation_to_string = function
  | V_proved -> "proved"
  | V_refuted { difference; _ } ->
      "refuted: " ^ Difference.to_string difference
  | V_spurious w ->
      "spurious witness: " ^ w.Verify.Translation_validator.reason
  | V_unknown r -> "unknown: " ^ r
  | V_skipped r -> "skipped: " ^ r

type verified = {
  outcome : outcome;
  static_findings : Verify.Finding.t list;
  agreement : agreement;
  validation : validation option;
      (* present when the caller opted into pass 5 *)
}

(* Static verdicts, memoised as findings only: per (subject, compiler,
   arch, defects, fault) for the per-ISA verdicts and per (subject,
   compiler, arch set, defects, fault) for the cross-ISA differ, across
   the many paths and units that consult them — concurrently, since
   units of one subject may run on several domains.  The fault tag
   keeps mutant verdicts out of the pristine entries (and distinct
   mutants out of each other's). *)
let static_cache : (string, Verify.Finding.t list) Exec.Memo.t =
  Exec.Memo.create ()

let cross_isa_cache : (string, Verify.Finding.t list) Exec.Memo.t =
  Exec.Memo.create ()

let static_key ~defects ~mine subject arch_label =
  Printf.sprintf "%s|%s|%s|%d%s"
    (Concolic.Path.subject_name subject)
    mine arch_label (Hashtbl.hash defects) (Jit.Fault.cache_tag ())

(* Every entry a unit needs comes from one {!Verify.analyse_unit} over
   all of [arches], run on the first missing entry and dropped when the
   call returns. *)
let static_verdicts ~defects ~compiler ~arches
    (subject : Concolic.Path.subject) :
    (Jit.Codegen.arch * Verify.Finding.t list) list * Verify.Finding.t list =
  let mine = Jit.Cogits.short_name compiler in
  let analysis = ref None in
  let analysed () =
    match !analysis with
    | Some a -> a
    | None ->
        let differ =
          match subject with
          | Concolic.Path.Native id -> Verify.differ_native ~defects id
          | Concolic.Path.Bytecode op -> Verify.differ_bytecode ~defects op
          | Concolic.Path.Bytecode_seq _ -> []
        in
        let a = (Verify.analyse_unit ~defects ~compiler ~arches subject, differ) in
        analysis := Some a;
        a
  in
  let per_arch =
    List.map
      (fun arch ->
        let key = static_key ~defects ~mine subject (Jit.Codegen.arch_name arch) in
        ( arch,
          Exec.Memo.find_or_add static_cache key @@ fun _ ->
          let (a : Verify.analysis), differ = analysed () in
          (* the cross-compiler differ attributes findings per
             front-end; keep only the ones about this test's compiler *)
          List.filter
            (fun (f : Verify.Finding.t) -> f.compiler = mine || f.compiler = "-")
            (a.unit_findings
            @ Option.value (List.assoc_opt arch a.per_arch) ~default:[]
            @ differ) ))
      arches
  in
  let cross =
    if List.length arches < 2 then []
    else
      let key =
        static_key ~defects ~mine subject
          (String.concat "+" (List.map Jit.Codegen.arch_name arches))
      in
      Exec.Memo.find_or_add cross_isa_cache key @@ fun _ ->
      (fst (analysed ())).Verify.cross_isa
  in
  (per_arch, cross)

let static_findings ~defects ~compiler ~arch subject : Verify.Finding.t list =
  match static_verdicts ~defects ~compiler ~arches:[ arch ] subject with
  | [ (_, fs) ], _ -> fs
  | _ -> assert false

let cross_isa_findings ~defects ~compiler ~arches subject :
    Verify.Finding.t list =
  snd (static_verdicts ~defects ~compiler ~arches subject)

(* Cross-check a static verdict against the dynamic outcome.  A match is
   by exact root cause, or failing that by defect family (the static
   pass sometimes names the cause more precisely than a given dynamic
   path exposes, and vice versa). *)
let agreement_of outcome findings =
  match outcome with
  | Diff (d : Difference.t) ->
      let matches (f : Verify.Finding.t) =
        String.equal f.cause d.cause
        ||
        match Classify.family_of_static f.family with
        | Some fam -> Difference.equal_family fam d.family
        | None -> false
      in
      if List.exists matches findings then Both_flagged else Dynamic_only
  | Pass | Expected_failure | Curated_out _ ->
      let significant =
        List.filter
          (fun (f : Verify.Finding.t) ->
            Classify.family_of_static f.family <> None)
          findings
      in
      if significant = [] then Both_clean else Static_only

(* --- solver-backed translation validation (the runner's pass 5) ---

   The validator's [Refuted] verdicts are *candidates*: their witness
   models satisfy both path conditions plus the mismatch predicate, but
   only a concrete replay through [run_path] — materialising the witness
   and running the compiled code on the simulator — turns a candidate
   into a confirmed refutation.  Non-reproducing witnesses are kept as
   spurious warnings (the false-positive channel of any static layer),
   never as refutations. *)

let validate_path ?ir_slot ?outcome ?budget ~defects ~compiler ~arch
    (path : Concolic.Path.t) : validation =
  match path.exit_ with
  | EC.Invalid_frame -> V_skipped "invalid-frame path"
  | _ -> (
      let skip_native =
        match path.subject with
        | Concolic.Path.Native id ->
            path.input_stack_depth <> Interpreter.Primitive_table.arity id + 1
        | _ -> false
      in
      if skip_native then V_skipped "native calling-convention mismatch"
      else
        match
          Verify.Translation_validator.validate_path ?ir_slot
            ?query_budget:budget ~defects ~compiler ~arch path
        with
        | Verify.Translation_validator.Proved -> V_proved
        | Verify.Translation_validator.Unknown r -> V_unknown r
        | Verify.Translation_validator.Refuted w -> (
            (* replay the witness model concretely: substitute it for
               the path's own model and re-run the full dynamic
               pipeline.  A witness that is the path's own model (the
               not-compiled case) replays to the outcome the caller
               already has. *)
            let replay =
              match outcome with
              | Some o when w.Verify.Translation_validator.model == path.model
                ->
                  o
              | _ ->
                  run_path ~defects ~compiler ~arch
                    { path with Concolic.Path.model = w.Verify.Translation_validator.model }
            in
            match replay with
            | Diff difference -> V_refuted { witness = w; difference }
            | Pass | Expected_failure -> V_spurious w
            | Curated_out r ->
                V_unknown ("witness not materialisable: " ^ r)))

(* One path on every ISA of [static] (the unit's per-ISA static
   verdicts): the path's IR, and the validator's sentinel-literal IR,
   are compiled once and lowered per ISA.  Each entry carries the
   validator queries its ISA posed on this domain.  [validations], the
   path's per-ISA validations from an earlier run, stand in for the
   validator and the witness replay, which pose no query. *)
let run_path_arches ?(validate = false) ?budget ?validations ~defects
    ~compiler ~static (path : Concolic.Path.t) :
    (Jit.Codegen.arch * verified * int) list =
  let front = Jit.Cogits.ir_slot () and sentinel = Jit.Cogits.ir_slot () in
  List.map
    (fun (arch, static_findings) ->
      let outcome = run_path_on ~front ~defects ~compiler ~arch path in
      let validation, spent =
        match validations with
        | Some vs -> (Some (List.assoc arch vs), 0)
        | None when not validate -> (None, 0)
        | None ->
            let v, spent =
              Verify.Translation_validator.with_query_count (fun () ->
                  validate_path ~ir_slot:sentinel ~outcome ?budget ~defects
                    ~compiler ~arch path)
            in
            (Some v, spent)
      in
      ( arch,
        {
          outcome;
          static_findings;
          agreement = agreement_of outcome static_findings;
          validation;
        },
        spent ))
    static

let run_path_verified ?validate ?budget ~defects ~compiler ~arch
    (path : Concolic.Path.t) : verified =
  let static =
    [ (arch, static_findings ~defects ~compiler ~arch path.Concolic.Path.subject) ]
  in
  match run_path_arches ?validate ?budget ~defects ~compiler ~static path with
  | [ (_, v, _) ] -> v
  | _ -> assert false
