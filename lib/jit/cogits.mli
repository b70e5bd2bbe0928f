(** The four compiler front-ends of the evaluation (§4.1, Table 2),
    behind one interface the differential tester drives. *)

type compiler =
  | Native_method_compiler  (** hand-written IR templates (§4.2) *)
  | Simple_stack_cogit  (** push/pop 1:1, no type prediction *)
  | Stack_to_register_cogit  (** parse-time simulation stack (production) *)
  | Register_allocating_cogit  (** + linear-scan allocation (experimental) *)

val name : compiler -> string
(** The compiler's row label in Table 2. *)

val short_name : compiler -> string
val all : compiler list
val bytecode_compilers : compiler list
val equal_compiler : compiler -> compiler -> bool
val compare_compiler : compiler -> compiler -> int
val pp_compiler : Format.formatter -> compiler -> unit
val show_compiler : compiler -> string

exception Not_compiled of string
(** The compiler has no implementation for this unit — the paper's
    "missing functionality" differences surface as this at test time. *)

val fit_registers : Ir.ir list -> Ir.ir list
(** Spill-on-demand: units using more virtual registers than the machine
    has temps are routed through the linear-scan allocator. *)

val frontend_ir :
  compiler ->
  defects:Interpreter.Defects.t ->
  literals:int array ->
  stack_setup:int list ->
  Bytecodes.Opcode.t ->
  Ir.ir list
(** The front-end's IR for one byte-code unit, before any register
    allocation — the form the static verifier's single-assignment check
    and the cross-compiler differ inspect.
    @raise Not_compiled when unsupported. *)

val frontend_native_ir : defects:Interpreter.Defects.t -> int -> Ir.ir list
(** A native-method template's IR before register allocation.
    @raise Not_compiled for the seeded missing templates. *)

val compile_bytecode :
  compiler ->
  defects:Interpreter.Defects.t ->
  literals:int array ->
  stack_setup:int list ->
  Bytecodes.Opcode.t ->
  Ir.ir list
(** Compile one byte-code instruction as a unit (setup pushes +
    instruction + stop markers, Listing 3).
    @raise Not_compiled when unsupported. *)

val compile_bytecode_stages :
  compiler ->
  defects:Interpreter.Defects.t ->
  literals:int array ->
  stack_setup:int list ->
  Bytecodes.Opcode.t ->
  Ir.ir list * Ir.ir list
(** [(frontend_ir …, compile_bytecode …)] from one front-end run.
    @raise Not_compiled when unsupported. *)

val compile_sequence :
  ?lookahead:bool ->
  compiler ->
  defects:Interpreter.Defects.t ->
  literals:int array ->
  stack_setup:int list ->
  Bytecodes.Opcode.t list ->
  Ir.ir list
(** Compile a byte-code sequence as one unit (future-work extension).
    [lookahead] fuses compare + conditional-jump pairs (stack-to-register
    policies only). *)

val compile_native : defects:Interpreter.Defects.t -> int -> Ir.ir list
(** Compile a native method from its template (Listing 4 schema).
    @raise Not_compiled for the 60 seeded missing templates. *)

val lower_for :
  compiler -> arch:Codegen.arch -> Ir.ir list -> Machine.Machine_code.program
(** [Codegen.lower] plus the machine-code fault-injection hook for
    [compiler] (see {!Fault}); all lowering — the test pipeline's and
    the static verifier's — must go through here so machine-layer
    mutants are visible to every oracle. *)

val compile_bytecode_to_machine :
  compiler ->
  defects:Interpreter.Defects.t ->
  literals:int array ->
  stack_setup:int list ->
  arch:Codegen.arch ->
  Bytecodes.Opcode.t ->
  Machine.Machine_code.program

val compile_sequence_to_machine :
  ?lookahead:bool ->
  compiler ->
  defects:Interpreter.Defects.t ->
  literals:int array ->
  stack_setup:int list ->
  arch:Codegen.arch ->
  Bytecodes.Opcode.t list ->
  Machine.Machine_code.program

val compile_native_to_machine :
  defects:Interpreter.Defects.t ->
  arch:Codegen.arch ->
  int ->
  Machine.Machine_code.program

type ir_slot
(** Holds one compile's IR, or its {!Not_compiled}, for the ISAs after
    the first.  Create one per unit of work (a path, a unit) on the
    domain that runs it; a slot is never shared across domains. *)

val ir_slot : unit -> ir_slot

val compile_once : ir_slot -> (unit -> Ir.ir list) -> Ir.ir list
(** [compile_once slot compile] runs [compile] on the slot's first use
    and replays its IR (or re-raises its {!Not_compiled}) on every later
    one.  The caller passes the same [compile] to one slot each time. *)
