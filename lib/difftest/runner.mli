(** The differential test runner (§2.4, §4.2): curate each explored path
    (re-solving its condition, mirroring the paper's curated-paths
    column), rebuild the concrete input deterministically, compile with
    the compiler under test, run the machine code on the CPU simulator,
    and validate exit condition and observable outputs against the
    recorded output constraints. *)

type outcome =
  | Pass
  | Expected_failure
      (** invalid-frame paths and unsafe byte-code faults (§3.4) *)
  | Curated_out of string
      (** the solver cannot re-create this path's input (§4.3 limits) *)
  | Diff of Difference.t

val is_diff : outcome -> bool

val run_path :
  defects:Interpreter.Defects.t ->
  compiler:Jit.Cogits.compiler ->
  arch:Jit.Codegen.arch ->
  Concolic.Path.t ->
  outcome
(** Differential-test one explored path against one compiler on one ISA.
    @raise Invalid_argument on a compiler/subject kind mismatch. *)

(** {1 Static pre-execution verification}

    Every test also gets a zero-execution verdict from the static
    verifier suite ({!Verify}), cross-checked against the dynamic
    outcome. *)

type agreement =
  | Both_clean  (** no static finding, no dynamic difference *)
  | Both_flagged
      (** a static finding matches the dynamic difference (by root cause
          or by defect family) *)
  | Static_only
      (** the verifier flags the unit but this path passed dynamically *)
  | Dynamic_only  (** a dynamic difference the verifier did not predict *)

(** {1 Solver-backed translation validation (pass 5)}

    Per-path equivalence verdicts from
    {!Verify.Translation_validator}, with every [Refuted] candidate
    confirmed by a concrete replay of its witness model through
    {!run_path} before it counts. *)

type validation =
  | V_proved  (** every machine path aligns with the interpreter summary *)
  | V_refuted of {
      witness : Verify.Translation_validator.witness;
      difference : Difference.t;
          (** the difference the replayed witness reproduced *)
    }
  | V_spurious of Verify.Translation_validator.witness
      (** the witness did not reproduce dynamically: a warning, not a
          refutation *)
  | V_unknown of string
  | V_skipped of string
      (** invalid-frame paths, native calling-convention mismatches *)

val validation_to_string : validation -> string

val validate_path :
  ?ir_slot:Jit.Cogits.ir_slot ->
  ?outcome:outcome ->
  ?budget:int ref ->
  defects:Interpreter.Defects.t ->
  compiler:Jit.Cogits.compiler ->
  arch:Jit.Codegen.arch ->
  Concolic.Path.t ->
  validation
(** Validate one path and replay any refutation witness.  [budget]
    caps solver queries (shared across calls via the ref).  [outcome],
    this path's own {!run_path} outcome on [arch], stands in for the
    replay of a witness that is the path's own model; [ir_slot] is
    passed to {!Verify.Translation_validator.validate_path}. *)

type verified = {
  outcome : outcome;
  static_findings : Verify.Finding.t list;
      (** the unit's static verdict (memoized per subject/compiler/arch) *)
  agreement : agreement;
  validation : validation option;
      (** present when [run_path_verified ~validate:true] was asked *)
}

val static_verdicts :
  defects:Interpreter.Defects.t ->
  compiler:Jit.Cogits.compiler ->
  arches:Jit.Codegen.arch list ->
  Concolic.Path.subject ->
  (Jit.Codegen.arch * Verify.Finding.t list) list * Verify.Finding.t list
(** One unit's static verdicts: {!static_findings} for every ISA of
    [arches] (in that order) and {!cross_isa_findings} over [arches],
    all from one {!Verify.analyse_unit}.  Memoized as findings, per
    entry. *)

val static_findings :
  defects:Interpreter.Defects.t ->
  compiler:Jit.Cogits.compiler ->
  arch:Jit.Codegen.arch ->
  Concolic.Path.subject ->
  Verify.Finding.t list
(** The static verdict for one compilation unit, restricted to findings
    about [compiler] (cross-compiler differ findings are attributed per
    front-end).  Memoized per (subject, compiler, arch, defect
    configuration, fault). *)

val cross_isa_findings :
  defects:Interpreter.Defects.t ->
  compiler:Jit.Cogits.compiler ->
  arches:Jit.Codegen.arch list ->
  Concolic.Path.subject ->
  Verify.Finding.t list
(** Static cross-ISA frame differencing for one compilation unit: the
    abstract frame summaries of the unit's lowering for each ISA in
    [arches] are compared pairwise ([Verify.Frame_diff.differ_arches]).
    Findings carry a pair label such as ["x86+rv32"] in their [arch]
    field.  Empty when fewer than two ISAs are given.  Memoized per
    (subject, compiler, arch set, defect configuration). *)

val run_path_verified :
  ?validate:bool ->
  ?budget:int ref ->
  defects:Interpreter.Defects.t ->
  compiler:Jit.Cogits.compiler ->
  arch:Jit.Codegen.arch ->
  Concolic.Path.t ->
  verified
(** [run_path] plus the static verdict and the static-vs-dynamic
    agreement for this path.  [validate] (default [false]) additionally
    runs solver-backed translation validation; [budget] caps its solver
    queries.  The one-ISA case of {!run_path_arches}. *)

val run_path_arches :
  ?validate:bool ->
  ?budget:int ref ->
  ?validations:(Jit.Codegen.arch * validation) list ->
  defects:Interpreter.Defects.t ->
  compiler:Jit.Cogits.compiler ->
  static:(Jit.Codegen.arch * Verify.Finding.t list) list ->
  Concolic.Path.t ->
  (Jit.Codegen.arch * verified * int) list
(** {!run_path_verified} on every ISA of [static], the unit's per-ISA
    static verdicts (the first half of {!static_verdicts}), in that
    order.  The path's IR and the validator's sentinel-literal IR are
    each compiled once and lowered per ISA.  The [int] is the number
    of validator solver queries that ISA's validation posed.

    [validations], this path's validation on every ISA of [static] as
    an earlier run computed it (witnesses already replayed), replaces
    [validate]: the path still compiles and runs on every ISA, but no
    validator runs, no witness is replayed and every ISA reports 0
    queries, as a per-path verdict read from the store does.
    @raise Not_found if an ISA of [static] has no validation. *)
