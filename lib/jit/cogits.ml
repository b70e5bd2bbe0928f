(* The four compiler front-ends of the evaluation (§4.1, Table 2), behind
   one interface the differential tester drives. *)

type compiler =
  | Native_method_compiler
  | Simple_stack_cogit
  | Stack_to_register_cogit
  | Register_allocating_cogit
[@@deriving show { with_path = false }, eq, ord]

let name = function
  | Native_method_compiler -> "Native Methods (primitives)"
  | Simple_stack_cogit -> "Simple Stack BC Compiler"
  | Stack_to_register_cogit -> "Stack-to-Register BC Compiler"
  | Register_allocating_cogit -> "Linear-Scan Allocator BC Compiler"

let short_name = function
  | Native_method_compiler -> "native"
  | Simple_stack_cogit -> "simple"
  | Stack_to_register_cogit -> "s2r"
  | Register_allocating_cogit -> "regalloc"

let all = [
  Native_method_compiler;
  Simple_stack_cogit;
  Stack_to_register_cogit;
  Register_allocating_cogit;
]

let bytecode_compilers =
  [ Simple_stack_cogit; Stack_to_register_cogit; Register_allocating_cogit ]

exception Not_compiled of string
(** The compiler has no implementation for this instruction (the paper's
    "missing functionality" differences surface as this exception at
    test-execution time). *)

(* When a unit uses more virtual registers than the machine has temps,
   run it through the allocator — the spill-on-demand behaviour of a real
   code generator.  Units within budget keep the direct 1:1 mapping. *)
let fit_registers (ir : Ir.ir list) : Ir.ir list =
  let max_v =
    List.fold_left
      (fun acc i ->
        let d, u = Ir.def_use i in
        List.fold_left max acc (List.filter (fun v -> v < 100) (d @ u)))
      (-1) ir
  in
  if max_v >= Ir.max_direct_vreg then
    try Linear_scan.rewrite ir
    with Ir.Unsupported_instruction msg -> raise (Not_compiled msg)
  else ir

let bytecode_policy = function
  | Simple_stack_cogit -> Bytecode_compiler.simple_policy
  | Stack_to_register_cogit | Register_allocating_cogit ->
      Bytecode_compiler.stack_to_register_policy
  | Native_method_compiler ->
      invalid_arg "Cogits: native method compiler has no byte-code policy"

(* The front-end's IR before any register allocation — what the static
   verifier's single-assignment and cross-compiler differencing passes
   inspect (allocation legitimately reuses registers).

   Fault-injection hooks (the mutation engine, lib/mutate): when a fault
   targets this compiler, the template selection and the front-end IR are
   rewritten here, so every consumer — allocation, lowering, the static
   verifier, the cross-compiler differ — sees the mutated artifact. *)
let frontend_ir compiler ~defects ~literals ~stack_setup instr : Ir.ir list =
  let short = short_name compiler in
  let instr = Fault.apply_opcode ~compiler:short instr in
  try
    Fault.apply_ir ~compiler:short Fault.Frontend
      (Bytecode_compiler.compile ~defects ~policy:(bytecode_policy compiler)
         ~literals ~stack_setup instr)
  with Ir.Unsupported_instruction msg -> raise (Not_compiled msg)

let frontend_native_ir ~defects prim_id : Ir.ir list =
  match Native_templates.compile ~defects prim_id with
  | ir -> Fault.apply_ir ~compiler:"native" Fault.Frontend ir
  | exception Native_templates.Missing_template id ->
      raise
        (Not_compiled
           (Printf.sprintf "no template for native method %d (%s)" id
              (Interpreter.Primitive_table.name id)))
  | exception Ir.Unsupported_instruction msg -> raise (Not_compiled msg)

(* Register allocation for a byte-code front-end's IR, then the
   final-IR fault hook. *)
let allocate compiler (ir : Ir.ir list) : Ir.ir list =
  let final =
    match compiler with
    | Register_allocating_cogit -> (
        try Linear_scan.rewrite ir
        with Ir.Unsupported_instruction msg -> raise (Not_compiled msg))
    | _ -> fit_registers ir
  in
  Fault.apply_ir ~compiler:(short_name compiler) Fault.Final final

(* Compile a byte-code instruction to IR under a compilation-unit schema
   (setup pushes + instruction + markers, Listing 3). *)
let compile_bytecode_stages compiler ~defects ~literals ~stack_setup instr =
  let ir = frontend_ir compiler ~defects ~literals ~stack_setup instr in
  (ir, allocate compiler ir)

let compile_bytecode compiler ~defects ~literals ~stack_setup instr :
    Ir.ir list =
  snd (compile_bytecode_stages compiler ~defects ~literals ~stack_setup instr)

(* Compile a byte-code sequence (future-work extension): one unit whose
   simulation stack spans instruction boundaries. *)
let compile_sequence ?lookahead compiler ~defects ~literals ~stack_setup
    instrs : Ir.ir list =
  let policy =
    match compiler with
    | Simple_stack_cogit -> Bytecode_compiler.simple_policy
    | Stack_to_register_cogit | Register_allocating_cogit ->
        Bytecode_compiler.stack_to_register_policy
    | Native_method_compiler ->
        invalid_arg "compile_sequence: native method compiler"
  in
  let short = short_name compiler in
  let instrs = Fault.apply_opcodes ~compiler:short instrs in
  let ir =
    try
      Fault.apply_ir ~compiler:short Fault.Frontend
        (Bytecode_compiler.compile_sequence ?lookahead ~defects ~policy
           ~literals ~stack_setup instrs)
    with Ir.Unsupported_instruction msg -> raise (Not_compiled msg)
  in
  allocate compiler ir

(* Lowering with the machine-code mutation hook.  [Codegen.lower] has no
   compiler parameter; the hook needs one to target a single front-end,
   so every lowering — the pipeline's and the static verifier's — goes
   through here. *)
let lower_for compiler ~arch (ir : Ir.ir list) : Machine.Machine_code.program =
  Fault.apply_machine ~compiler:(short_name compiler) (Codegen.lower ~arch ir)

let compile_sequence_to_machine ?lookahead compiler ~defects ~literals
    ~stack_setup ~arch instrs =
  lower_for compiler ~arch
    (compile_sequence ?lookahead compiler ~defects ~literals ~stack_setup
       instrs)

(* Compile a native method to IR (Listing 4 schema: template + breakpoint
   on the fail path).  Templates always go through the allocator: the
   hand-written templates use virtual registers freely. *)
let compile_native ~defects prim_id : Ir.ir list =
  let ir = frontend_native_ir ~defects prim_id in
  let final =
    try Linear_scan.rewrite ir
    with Ir.Unsupported_instruction msg -> raise (Not_compiled msg)
  in
  Fault.apply_ir ~compiler:"native" Fault.Final final

(* Full pipeline: instruction → machine code for an architecture. *)
let compile_bytecode_to_machine compiler ~defects ~literals ~stack_setup
    ~arch instr =
  lower_for compiler ~arch
    (compile_bytecode compiler ~defects ~literals ~stack_setup instr)

let compile_native_to_machine ~defects ~arch prim_id =
  lower_for Native_method_compiler ~arch (compile_native ~defects prim_id)

(* One compile's IR, or its [Not_compiled], kept for the ISAs after the
   first: callers that lower one unit for several ISAs compile once. *)
type ir_slot = (Ir.ir list, string) result option ref

let ir_slot () : ir_slot = ref None

let compile_once (slot : ir_slot) compile =
  let r =
    match !slot with
    | Some r -> r
    | None ->
        let r =
          match compile () with
          | ir -> Ok ir
          | exception Not_compiled msg -> Error msg
        in
        slot := Some r;
        r
  in
  match r with Ok ir -> ir | Error msg -> raise (Not_compiled msg)
