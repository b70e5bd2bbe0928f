(** Campaign orchestration: the paper's evaluation pipeline (§5).

    A campaign explores every instruction of each compiler's test
    universe with the concolic engine, runs the differential tests on
    each curated path across the requested ISAs, and aggregates the
    per-instruction and per-compiler statistics behind Table 2, Table 3
    and Figures 5-7. *)

type agreement_counts = {
  both_clean : int;
  both_flagged : int;
  static_only : int;
  dynamic_only : int;
}
(** Static-vs-dynamic agreement tallies; one count per path x arch
    verdict (see {!Difftest.Runner.agreement}). *)

type validation_counts = {
  proved : int;
  refuted : int;
  missing : int;
      (** the subset of [refuted] whose witness is an absent template
          ("not compiled"): real divergences, but expected ones — the
          pristine gate checks [refuted - missing] *)
  spurious : int;
  unknown : int;
  skipped : int;
  queries : int;  (** solver queries spent by the validator *)
}
(** Translation-validation tallies; one count per path x arch verdict
    (see {!Difftest.Runner.validation}). *)

val no_validations : validation_counts
val sum_validations : validation_counts -> validation_counts -> validation_counts

type instruction_result = {
  subject : Concolic.Path.subject;
  paths : int;  (** interpreter paths discovered *)
  curated : int;  (** paths the tester could re-create and execute *)
  differences : int;  (** paths differing between engines *)
  unsupported : bool;
  explore_time : float;  (** seconds of concolic exploration (Fig. 6) *)
  test_time : float;  (** seconds running the generated tests (Fig. 7) *)
  diffs : Difftest.Difference.t list;
      (** witnesses deduplicated by root cause
          ({!Difftest.Classify.dedupe_witnesses}); [differences] keeps
          the per-path count *)
  static_findings : Verify.Finding.t list;
      (** the unit's static verdict, deduplicated across paths *)
  agreements : agreement_counts;
  validations : (Jit.Codegen.arch * validation_counts) list;
      (** per-ISA translation-validation tallies; [[]] unless the
          campaign ran with [~validate:true] *)
}

type compiler_result = {
  compiler : Jit.Cogits.compiler;
  instructions : instruction_result list;
}

type t = {
  defects : Interpreter.Defects.t;
  arches : Jit.Codegen.arch list;
  results : compiler_result list;
}

val native_subjects : unit -> Concolic.Path.subject list
(** The 112 native methods (§5.1 experiment 1). *)

val bytecode_subjects : unit -> Concolic.Path.subject list
(** The byte-code set minus the instructions the tester does not support
    (§4.3). *)

val subjects_for : Jit.Cogits.compiler -> Concolic.Path.subject list

(** {1 Test-universe selection}

    [Corpus_extracted] swaps the byte-code compilers' universe for [n]
    template-extracted, verifier-filtered, fingerprint-deduplicated
    subjects ({!Templates.Corpus}); the native compiler always keeps
    the 112 native methods. *)

type corpus_spec = Corpus_curated | Corpus_extracted of { n : int; seed : int }

val corpus_label : corpus_spec -> string
(** ["curated"] or ["extracted:<n>:seed:<s>"] — used in journal
    configuration fingerprints and reports. *)

val curated_universe : unit -> Concolic.Path.subject list
(** [bytecode_subjects () @ native_subjects ()] — the extraction base. *)

val extracted_corpus : ?jobs:int -> seed:int -> n:int -> unit -> Templates.Corpus.t
(** Build (or return the memoized) extracted corpus for [(seed, n)],
    using the curated universe as the template source.  Incremental and
    resumable against an active {!Exec.Store}. *)

val corpus_subjects_for :
  ?jobs:int -> corpus:corpus_spec -> Jit.Cogits.compiler -> Concolic.Path.subject list
(** The compiler's test universe under the given corpus. *)

(** {1 The unit-verdict store tier}

    One {!Exec.Store} entry per validated unit ([validate] on, no
    [budget], a store active).  It holds everything the unit derives
    from its exploration except the dynamic outcomes, so a warm unit
    still compiles and simulates every path on every ISA but skips
    static analysis, the validator and witness replay. *)

type unit_entry = {
  ue_paths : int;  (** the exploration's path count *)
  ue_static : (Jit.Codegen.arch * Verify.Finding.t list) list;
      (** per-ISA static findings ({!Difftest.Runner.static_verdicts}) *)
  ue_cross : Verify.Finding.t list;  (** the cross-ISA findings *)
  ue_validations : (Jit.Codegen.arch * Difftest.Runner.validation) list list;
      (** per path (exploration order), per ISA: the validation after
          witness replay *)
}

val unit_store_ns : string
(** ["unit-verdict:1"]. *)

val unit_store_key :
  max_iterations:int ->
  defects:Interpreter.Defects.t ->
  arches:Jit.Codegen.arch list ->
  compiler:Jit.Cogits.compiler ->
  Concolic.Path.subject ->
  string
(** {!Concolic.Explorer.store_key} of the unit's exploration, plus the
    compiler, the ISA list and {!Jit.Fault.cache_tag}. *)

val test_instruction :
  ?max_iterations:int ->
  ?validate:bool ->
  ?budget:int ref ->
  defects:Interpreter.Defects.t ->
  arches:Jit.Codegen.arch list ->
  compiler:Jit.Cogits.compiler ->
  Concolic.Path.subject ->
  instruction_result
(** Explore one instruction and differential-test all its paths.  A path
    counts as one difference if it differs on any architecture.
    [validate] (default [false]) additionally runs solver-backed
    translation validation (pass 5) on every path x arch; [budget] caps
    its solver queries, shared across calls via the ref.  An unbudgeted
    validated unit reads its {!unit_entry} from the active store, and
    records one on a miss; an entry whose path count differs from the
    exploration's is a miss.  A unit served by its entry reports 0
    validator queries. *)

val units_for :
  Jit.Cogits.compiler list ->
  (Jit.Cogits.compiler * Concolic.Path.subject) list
(** Every compiler paired with each subject of its test universe, in
    stable (compiler, subject) order. *)

(** {1 Supervised runs}

    The one campaign engine: every (compiler × subject) unit runs
    {!test_instruction} under {!Exec.Supervise} — isolated (a crash is
    a recorded verdict, not a dead run), budgeted (the {!Exec.Budget}
    fuel watchdog turns hangs into [Timed_out]), retried with
    deterministic backoff, quarantined behind a per-compiler circuit
    breaker, optionally journalled for checkpoint/resume, and
    optionally chaos-injected.  {!kill_matrix} runs its mutants through
    the same engine. *)

type unit_report = {
  ur_key : string;
      (** stable unit key: ["compiler|subject"], or
          ["op|compiler|subject|arch"] for mutation units *)
  ur_verdict : string;  (** {!Exec.Supervise.verdict_name} *)
  ur_detail : string;
  ur_attempts : int;
}

type supervised = {
  sup_campaign : t;  (** assembled from the [Ok] units only *)
  sup_units : unit_report list;  (** every unit, stable input order *)
  sup_by_compiler : (Jit.Cogits.compiler * Exec.Supervise.counts) list;
  sup_totals : Exec.Supervise.counts;
  sup_chaos : (int * string * string) list;
      (** injected faults: unit index, unit key, kind name *)
  sup_interrupted : bool;
      (** SIGINT/SIGTERM cut the run short; the aggregates cover the
          units that finished, the rest are [Quarantined "interrupted"] *)
  sup_process : Exec.Procpool.stats option;
      (** pool statistics, [Some] iff the run used [~workers] *)
}

val sup_incidents : supervised -> unit_report list
(** The non-[ok] unit reports, stable order. *)

val unit_key : Jit.Cogits.compiler * Concolic.Path.subject -> string
(** ["compiler|subject"] — the journal and report key of one unit. *)

val run_supervised :
  ?jobs:int ->
  ?workers:int ->
  ?worker_deadline_s:float ->
  ?max_iterations:int ->
  ?validate:bool ->
  ?budget:int ref ->
  ?policy:Exec.Supervise.policy ->
  ?chaos:int * int ->
  ?journal:string ->
  ?journal_sync:bool ->
  ?resume:string ->
  ?defects:Interpreter.Defects.t ->
  ?arches:Jit.Codegen.arch list ->
  ?compilers:Jit.Cogits.compiler list ->
  ?corpus:corpus_spec ->
  ?units:(Jit.Cogits.compiler * Concolic.Path.subject) list ->
  unit ->
  supervised
(** Run the evaluation (defaults: paper defects, all three ISAs, all
    four compilers, no translation validation, 96 iterations).  Units
    are dealt to up to [jobs] domains (default
    {!Exec.Pool.default_jobs}; [1] = sequential in the caller), each
    unit entirely on one domain (exact per-unit query counts); results
    merge by stable unit position, so everything derived from them is
    byte-identical at any [jobs].  [sup_campaign] groups the [Ok] units
    by compiler, in [compilers] order.  [validate] adds solver-backed
    translation validation on every path x arch; [budget] caps its
    solver queries through a ref shared racily across domains — a few
    extra queries may slip through before exhaustion, degrading some
    verdicts to Unknown, so budgeted parallel runs are capped but not
    exactly reproducible; unbudgeted runs are.  [corpus] (default
    {!Corpus_curated}) selects the test universe; extracted runs tag
    the journal configuration, so curated and extracted journals never
    mix.

    [workers] runs the units in that many disposable worker processes
    ({!Exec.Procpool}) instead of in-process domains: a unit crash or
    hang can then at worst kill its own process ([Worker_died] verdicts
    after the shared retry budget), a silent worker is preemptively
    SIGKILLed after [worker_deadline_s] (default 30s) of no frames, and
    results merge by stable unit index so the aggregates stay
    byte-identical at any worker count — and equal to the in-process
    run's.  In workers mode [chaos] draws from
    {!Exec.Chaos.process_kinds} (worker kills, SIGSTOP hangs, pipe
    garbage, spurious exits) and [budget] becomes a per-worker cap
    (each worker gets its own ref of the initial value).
    [journal_sync] fsyncs each journal append so a power-cut-style kill
    resumes byte-identically; the default only [flush]es — an
    OS-buffered tail can be lost to a hard kill, torn lines are still
    detected and skipped on load.

    [units] overrides the default universe ([units_for compilers]) —
    the [vmtest validate] subcommand uses it for single-instruction
    runs; compilers absent from [units] simply produce empty rows.
    [chaos:(seed, faults)] injects that many seeded harness faults via
    {!Exec.Chaos.plan}.  [journal] appends completed unit verdicts to an
    append-only JSONL file ([Ok] payloads are marshalled
    {!instruction_result}s, checksummed); [resume] preloads such a
    journal and skips its finished units (an entry that fails its
    checksum or does not decode is recomputed instead) — the aggregate
    result is byte-identical to a fresh run's, though the journal file
    itself is written in completion order.  [journal] and [resume] may name
    the same file to continue a killed run in place.  Verdict counts
    and unit reports are byte-identical at any [jobs]; wall-clock
    deadlines ([policy.deadline_s]) are the one knob that can break
    that, which is why the default policy only sets fuel. *)

val run :
  ?jobs:int ->
  ?max_iterations:int ->
  ?validate:bool ->
  ?budget:int ref ->
  ?defects:Interpreter.Defects.t ->
  ?arches:Jit.Codegen.arch list ->
  ?compilers:Jit.Cogits.compiler list ->
  unit ->
  t
(** [(run_supervised ...).sup_campaign] for a run that must come back
    whole: raises [Failure] naming the first non-[ok] unit's key,
    verdict and detail. *)

(** {1 Aggregations} *)

val tested_instructions : compiler_result -> int
val total_paths : compiler_result -> int
val total_curated : compiler_result -> int
val total_differences : compiler_result -> int
val all_diffs : t -> Difftest.Difference.t list

val causes : t -> (Difftest.Difference.family * string * int) list
(** Root causes with the number of retained witnesses (after
    per-compiler x ISA dedupe), counted once per cause (paper §5.3),
    sorted. *)

val causes_by_family : t -> (Difftest.Difference.family * int) list
(** Table 3: cause counts per defect family. *)

(** {1 Static-verifier aggregations} *)

val agreement_totals : t -> agreement_counts
(** Campaign-wide static-vs-dynamic agreement counts. *)

val all_static_findings : t -> Verify.Finding.t list

val static_causes : t -> (Verify.Finding.family * string * int) list
(** Static root causes with finding counts, counted once per cause,
    sorted — the zero-execution analogue of {!causes}. *)

val static_pass_counts : t -> (string * int) list
(** Finding counts per static pass ({!Verify.Finding.pass_name}), sorted
    by pass name — how much of the static oracle surface each pass
    (bytecode / ir / machine / abstract / differ) contributes. *)

val arch_pair_labels : Jit.Codegen.arch list -> string list
(** Unordered ISA pair labels ("a+b") in the stable order induced by the
    input list: for [x86; arm32; rv32] that is
    [["x86+arm32"; "x86+rv32"; "arm32+rv32"]]. *)

val cross_isa_divergences : t -> (string * (string * int) list) list
(** Per-(front-end x ISA-pair) static cross-ISA divergence counts: one
    row per compiler, one column per pair label from
    {!arch_pair_labels}, counting findings whose cause starts with
    ["cross-isa"].  Rows include explicit zero cells so the table shape
    is stable across campaigns. *)

(** {1 Translation-validation aggregations} *)

val validation_by_arch :
  compiler_result -> (Jit.Codegen.arch * validation_counts) list
(** Per-ISA validation tallies for one compiler, summed over its
    instructions — the rows of the [vmtest validate] matrix. *)

val validation_totals_compiler : compiler_result -> validation_counts
val validation_totals : t -> validation_counts
(** Campaign-wide validation tallies. *)

(** {1 Mutation kill matrix}

    Oracle-strength evaluation: every scheduled unit is one
    (operator x compiler x subject x ISA) mutant, run through the full
    oracle stack pristine and mutated; the first layer whose verdict
    moves records the kill. *)

type kill =
  | Killed_static  (** the static verifier suite noticed first *)
  | Killed_validate  (** solver-backed translation validation did *)
  | Killed_difftest  (** only the differential run did *)
  | Survived  (** no oracle layer noticed the planted fault *)

val kill_name : kill -> string

type oracle_snapshot = {
  o_static : string list;
  o_validation : (int * int * int * int * int * int) list;
  o_differences : int;
  o_diff_causes : (string * string) list;
}
(** One unit's oracle verdicts reduced to comparable form — no query
    counts or times, which vary with cache warmth rather than with the
    compiled code. *)

val snapshot_of : instruction_result -> oracle_snapshot

val decide : baseline:oracle_snapshot -> mutant:oracle_snapshot -> kill
(** Kill attribution in oracle order: static, then validate, then
    difftest; equal snapshots survive. *)

val reset_kill_cache : unit -> unit
(** Drop the memoized pristine baselines (test hygiene). *)

type mutant_outcome = {
  mo_op : Mutate.operator;
  mo_compiler : Jit.Cogits.compiler;
  mo_subject : Concolic.Path.subject;
  mo_arch : Jit.Codegen.arch;
  mo_fired : bool;  (** did the planted rewrite actually apply? *)
  mo_kill : kill;
}

type kill_matrix = {
  km_defects : Interpreter.Defects.t;
  km_pristine : bool;
  km_outcomes : mutant_outcome list;
      (** units that completed [Ok]; crashed/timed-out/quarantined
          units are counted in [km_robustness] and listed in
          [km_incidents] instead *)
  km_robustness : Exec.Supervise.counts;
  km_incidents : unit_report list;
  km_interrupted : bool;  (** SIGINT/SIGTERM cut the run short *)
  km_process : Exec.Procpool.stats option;
      (** pool statistics, [Some] iff the run used [~workers] *)
}

val kill_of_name : string -> kill
(** Inverse of {!kill_name}; raises [Failure] on unknown names. *)

val kill_matrix :
  ?jobs:int ->
  ?workers:int ->
  ?worker_deadline_s:float ->
  ?max_iterations:int ->
  ?per_operator:int ->
  ?gen:int ->
  ?seed:int ->
  ?pristine:bool ->
  ?defects:Interpreter.Defects.t ->
  ?arches:Jit.Codegen.arch list ->
  ?operators:Mutate.operator list ->
  ?corpus:corpus_spec ->
  ?policy:Exec.Supervise.policy ->
  ?journal:string ->
  ?journal_sync:bool ->
  ?resume:string ->
  unit ->
  kill_matrix
(** Run the kill-matrix campaign.  Per (operator, compiler), the first
    [per_operator] (default 2) subjects whose fault fires and whose
    exploration is supported are scheduled, drawn from the curated
    universe, handcrafted register-pressure sequences, and [gen]
    (default 6) qcheck-generated methods from [seed]; each selected
    subject runs on every ISA in [arches].  With the default curated
    [corpus], a cell that comes up short falls back to a small
    template-extracted corpus (built lazily from the same [seed]);
    with [Corpus_extracted] the byte-code compilers draw exclusively
    from the extracted corpus (natives keep their universe) and the
    journal configuration is tagged with the corpus label.  Defaults to the pristine
    interpreter configuration so every kill is attributable to the
    planted fault.  [pristine] replaces every operator with the inert
    {!Mutate.pristine} mutant; all units must come back {!Survived}
    (the zero-false-kill gate, see {!false_kills}).  Units run through
    the same engine as {!run_supervised}, under [policy] (grouped per
    compiler for the circuit breaker); [journal]/[resume] checkpoint
    and skip units by their ["op|compiler|subject|arch"] key, storing
    the decided (fired, kill) pair (a damaged entry is recomputed).
    [workers] runs the mutants in worker processes, as
    {!run_supervised} does.  The outcome list is identical at any
    [jobs] or [workers]. *)

type kill_row = {
  kr_label : string;
  kr_layer : string;
  kr_units : int;
  kr_static : int;
  kr_validate : int;
  kr_difftest : int;
  kr_survived : int;
}

val kill_rate : kill_row -> float
(** Killed units over scheduled units; [0.] for an empty row. *)

val kills_by_operator : kill_matrix -> kill_row list
(** One row per operator in {!Mutate.all} order (unscheduled operators
    omitted). *)

val kills_by_layer : kill_matrix -> kill_row list
val kill_totals : kill_matrix -> kill_row
val surviving_mutants : kill_matrix -> mutant_outcome list

val false_kills : kill_matrix -> mutant_outcome list
(** Non-survived outcomes of a [~pristine:true] run — false positives
    of the oracle stack itself.  Always [[]] for a real mutation run. *)

(** {1 Worker-process entry point} *)

val worker_main : unit -> unit
(** The body of the hidden [worker] argv mode every binary intercepts
    before its real CLI.  Speaks the {!Exec.Unit_wire} protocol on
    stdin/stdout via {!Exec.Procpool.worker_main}: receives the
    marshalled run configuration in the Hello frame (task kind,
    defects, arches, policy, per-worker budget, chaos recipe, shared
    {!Exec.Store} root), then executes dealt campaign or mutation units
    with exactly the in-process retry/backoff/attempt accounting.
    Never returns. *)
