(* vmtest — interpreter-guided differential JIT compiler unit testing.

   Subcommands:
     explore  <instr>        concolically explore one instruction
     difftest <instr>        differential-test one instruction
     campaign                run the full evaluation (Tables 2-3, Figs 5-7)
     verify   [<instr>]      static verifier suite, zero execution
     verify --abstract       machine-layer abstract-interpretation sweep
     validate [<instr>]      solver-backed translation validation (pass 5)
     list                    list testable instructions and native methods *)

open Cmdliner

(* --- instruction name parsing --- *)

let bytecode_by_name name =
  List.find_opt
    (fun op -> Bytecodes.Opcode.mnemonic op = name)
    (Bytecodes.Encoding.all_defined_opcodes ())

let native_by_name name =
  List.find_opt
    (fun (i : Interpreter.Primitive_table.info) -> i.name = name)
    Interpreter.Primitive_table.all

let subject_of_string s : (Concolic.Path.subject, string) result =
  (* sequences: "seq:mnemonic,mnemonic,..." *)
  if String.length s > 4 && String.sub s 0 4 = "seq:" then begin
    let names =
      String.split_on_char ',' (String.sub s 4 (String.length s - 4))
    in
    let ops = List.map (fun n -> (n, bytecode_by_name (String.trim n))) names in
    match List.find_opt (fun (_, op) -> op = None) ops with
    | Some (bad, _) -> Error (Printf.sprintf "unknown byte-code %S in sequence" bad)
    | None ->
        Ok (Concolic.Path.Bytecode_seq (List.map (fun (_, op) -> Option.get op) ops))
  end
  else
    match bytecode_by_name s with
    | Some op -> Ok (Concolic.Path.Bytecode op)
    | None -> (
        match native_by_name s with
        | Some i -> Ok (Concolic.Path.Native i.id)
        | None -> (
            match int_of_string_opt s with
            | Some id when Interpreter.Primitive_table.find id <> None ->
                Ok (Concolic.Path.Native id)
            | _ ->
                Error
                  (Printf.sprintf
                     "unknown instruction %S (try `vmtest list`)" s)))

let subject_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (subject_of_string s) in
  let print ppf s = Fmt.string ppf (Concolic.Path.subject_name s) in
  Arg.conv (parse, print)

let compiler_conv =
  Arg.enum
    [
      ("native", Jit.Cogits.Native_method_compiler);
      ("simple", Jit.Cogits.Simple_stack_cogit);
      ("s2r", Jit.Cogits.Stack_to_register_cogit);
      ("regalloc", Jit.Cogits.Register_allocating_cogit);
    ]

let arch_conv =
  Arg.enum
    [
      ("x86", Jit.Codegen.X86);
      ("arm32", Jit.Codegen.Arm32);
      ("rv32", Jit.Codegen.Rv32);
    ]

let defects_conv =
  Arg.enum
    [ ("paper", Interpreter.Defects.paper); ("pristine", Interpreter.Defects.pristine) ]

let defects_arg =
  Arg.(
    value
    & opt defects_conv Interpreter.Defects.paper
    & info [ "defects" ] ~docv:"CONFIG"
        ~doc:"Seeded-defect configuration: $(b,paper) or $(b,pristine).")

(* --corpus curated | extracted[:N]: which test universe the byte-code
   compilers draw from.  The corpus seed comes from the subcommand's
   --seed flag, resolved in [corpus_of]. *)
type corpus_opt = Corpus_curated_opt | Corpus_extracted_opt of int option

let corpus_conv =
  let parse s =
    match s with
    | "curated" -> Ok Corpus_curated_opt
    | "extracted" -> Ok (Corpus_extracted_opt None)
    | _ -> (
        match String.index_opt s ':' with
        | Some cut
          when String.sub s 0 cut = "extracted" -> (
            let rest = String.sub s (cut + 1) (String.length s - cut - 1) in
            match int_of_string_opt rest with
            | Some n when n > 0 -> Ok (Corpus_extracted_opt (Some n))
            | _ -> Error (`Msg (Printf.sprintf "bad corpus size %S" rest)))
        | _ ->
            Error
              (`Msg
                (Printf.sprintf
                   "unknown corpus %S (expected curated or extracted[:N])" s)))
  in
  let print ppf = function
    | Corpus_curated_opt -> Fmt.string ppf "curated"
    | Corpus_extracted_opt None -> Fmt.string ppf "extracted"
    | Corpus_extracted_opt (Some n) -> Fmt.pf ppf "extracted:%d" n
  in
  Arg.conv (parse, print)

let default_corpus_n = 2000

let corpus_arg =
  Arg.(
    value
    & opt corpus_conv Corpus_curated_opt
    & info [ "corpus" ] ~docv:"CORPUS"
        ~doc:
          "Test universe for the byte-code compilers: $(b,curated) (the \
           192-opcode universe, default) or $(b,extracted[:N]) ($(i,N) \
           template-extracted, verifier-filtered, deduplicated subjects; \
           default N = 2000, seeded by $(b,--seed)).  The native-method \
           compiler always keeps its 112 native methods.")

let corpus_of ~seed = function
  | Corpus_curated_opt -> Ijdt_core.Campaign.Corpus_curated
  | Corpus_extracted_opt n ->
      Ijdt_core.Campaign.Corpus_extracted
        { n = Option.value ~default:default_corpus_n n; seed }

let subject_arg =
  Arg.(
    required
    & pos 0 (some subject_conv) None
    & info [] ~docv:"INSTR"
        ~doc:
          "Instruction under test: a byte-code mnemonic (e.g. \
           $(b,special[+]), $(b,dup)), a native method name/id (e.g. \
           $(b,primAdd), $(b,40)), or a sequence \
           $(b,seq:pushOne,pushTwo,special[+]).")

(* --- explore --- *)

let explore_cmd =
  let run defects subject =
    let r = Concolic.Explorer.explore ~defects subject in
    if r.unsupported then
      print_endline "instruction not supported by the concolic tester (§4.3)"
    else begin
      Printf.printf "%d paths (%d executions, %d unsat, %d beyond solver)\n\n"
        (List.length r.paths) r.iterations r.unsat_negations
        r.skipped_negations;
      List.iter
        (fun p -> Format.printf "%a@.@." Concolic.Path.pp p)
        r.paths
    end
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"Concolically explore one VM instruction")
    Term.(const run $ defects_arg $ subject_arg)

(* --- difftest --- *)

let difftest_cmd =
  let compiler_arg =
    Arg.(
      value
      & opt (some compiler_conv) None
      & info [ "c"; "compiler" ] ~docv:"COMPILER"
          ~doc:"Compiler under test (native, simple, s2r, regalloc).")
  in
  let arch_arg =
    Arg.(
      value
      & opt_all arch_conv Jit.Codegen.all_arches
      & info [ "a"; "arch" ] ~docv:"ARCH" ~doc:"Target ISA (repeatable).")
  in
  let run defects compiler arches subject =
    let compiler =
      match (compiler, subject) with
      | Some c, _ -> c
      | None, Concolic.Path.Native _ -> Jit.Cogits.Native_method_compiler
      | None, (Concolic.Path.Bytecode _ | Concolic.Path.Bytecode_seq _) ->
          Jit.Cogits.Stack_to_register_cogit
    in
    let r =
      Ijdt_core.Campaign.test_instruction ~defects ~arches ~compiler subject
    in
    Printf.printf "%s × %s: paths=%d curated=%d differences=%d\n"
      (Concolic.Path.subject_name subject)
      (Jit.Cogits.name compiler) r.paths r.curated r.differences;
    List.iter
      (fun d -> Printf.printf "  %s\n" (Difftest.Difference.to_string d))
      r.diffs;
    let a = r.agreements in
    Printf.printf
      "static verdict: %d finding(s); agreement both-clean=%d \
       both-flagged=%d static-only=%d dynamic-only=%d\n"
      (List.length r.static_findings)
      a.both_clean a.both_flagged a.static_only a.dynamic_only;
    List.iter
      (fun f -> Printf.printf "  %s\n" (Verify.Finding.to_string f))
      r.static_findings
  in
  Cmd.v
    (Cmd.info "difftest"
       ~doc:"Differential-test one instruction against a JIT compiler")
    Term.(const run $ defects_arg $ compiler_arg $ arch_arg $ subject_arg)

(* --- shared: worker count and JSON plumbing --- *)

let jobs_arg =
  Arg.(
    value
    & opt int (Exec.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Number of worker domains (default: the machine's recommended \
           domain count).  Count-based output and JSON reports are \
           byte-identical at any $(docv).")

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let defects_label d =
  if d = Interpreter.Defects.paper then "paper"
  else if d = Interpreter.Defects.pristine then "pristine"
  else "custom"

(* --- shared: supervision policy flags and JSON fragments ---

   campaign, validate and mutate all run their units under
   [Exec.Supervise]; these flags shape the policy and the
   checkpoint/resume journal. *)

let fuel_arg =
  Arg.(
    value
    & opt int
        (Option.value Exec.Supervise.default_policy.fuel ~default:0)
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Watchdog step budget per unit attempt (0 = unlimited).  Fuel \
           counts deterministic work steps, so fuel timeouts are \
           byte-identical at any $(b,-j).  The default is far above any \
           real unit; only hung or chaos-injected units exhaust it.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock (monotonic) safety-net deadline per unit attempt.  \
           Unlike $(b,--fuel) this is nondeterministic; leave it unset \
           unless the run must survive pathological environments.")

let retries_arg =
  Arg.(
    value
    & opt int Exec.Supervise.default_policy.retries
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Extra attempts for a crashed or timed-out unit, with \
           seed-derived (deterministic) backoff.")

let breaker_arg =
  Arg.(
    value
    & opt int Exec.Supervise.default_policy.breaker_k
    & info [ "breaker" ] ~docv:"K"
        ~doc:
          "Per-compiler circuit breaker: after $(docv) consecutive unit \
           crashes, the compiler's remaining units are quarantined \
           (0 disables).")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Append each completed unit verdict to $(docv) (JSONL, \
           crash-safe: flushed per line).  Resume later with \
           $(b,--resume); the same file may be given to both to \
           continue a killed run in place.")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Skip units already recorded in journal $(docv) (written by a \
           previous $(b,--journal) run under the same configuration).  \
           Aggregate results are byte-identical to a fresh run's (the \
           validate report's $(b,caches) object is process telemetry \
           and reflects only the work actually re-executed).")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~env:(Cmd.Env.info "VMTEST_STORE")
        ~doc:
          "Persist the memo layers — concolic path summaries, solver \
           verdicts, translation-validation verdicts — in an on-disk \
           content-addressed cache rooted at $(docv) (created on first \
           write), shared across runs and processes.  Corrupted or torn \
           entries are treated as misses; mutant entries are keyed apart \
           from pristine ones.")

let workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Run units in $(docv) disposable worker processes instead of \
           in-process domains (may be combined with $(b,-j); each worker \
           is single-domain).  A unit crash or hang can then at worst \
           kill its own process: the supervisor re-deals the unit, and \
           records a $(i,worker_died) verdict once retries are spent.  \
           Results merge by stable unit index, so aggregate output and \
           JSON are byte-identical at any worker count.")

let worker_deadline_arg =
  Arg.(
    value
    & opt float 30.0
    & info [ "worker-deadline" ] ~docv:"SECONDS"
        ~doc:
          "With $(b,--workers): SIGKILL a worker that has been silent \
           for $(docv) seconds while holding a unit (catches SIGSTOP \
           freezes and native spins the cooperative fuel watchdog \
           cannot see).")

let journal_sync_arg =
  Arg.(
    value & flag
    & info [ "journal-sync" ]
        ~doc:
          "fsync the journal after every appended verdict.  The default \
           only flushes: a torn tail line after a hard kill is detected \
           and skipped on $(b,--resume), but an OS-buffered complete \
           line can be lost — with this flag a power-cut-style kill \
           resumes byte-identically at the cost of one fsync per unit.")

(* Activate the process-global store for this run ([None] falls back to
   the VMTEST_STORE environment variable, which cmdliner also reads). *)
let with_store store = Exec.Store.activate_opt store

let policy_of ~fuel ~deadline ~retries ~breaker ~seed =
  {
    Exec.Supervise.retries = max 0 retries;
    fuel = (if fuel <= 0 then None else Some fuel);
    deadline_s = deadline;
    breaker_k = max 0 breaker;
    seed;
  }

(* Units a run lost, for whatever reason. *)
let lost (c : Exec.Supervise.counts) =
  c.c_timed_out + c.c_crashed + c.c_worker_died + c.c_quarantined

let json_robustness (c : Exec.Supervise.counts) =
  Printf.sprintf
    "{\"ok\":%d,\"timed_out\":%d,\"crashed\":%d,\"worker_died\":%d,\
     \"quarantined\":%d,\"retries\":%d}"
    c.c_ok c.c_timed_out c.c_crashed c.c_worker_died c.c_quarantined
    c.c_retries

(* Process-pool telemetry for --json: only the counters that are
   functions of the unit list and the fault plan (deaths, preempted
   kills, re-deals, garbage frames) — never pool size or respawn
   counts, which would break byte-identity across --workers N. *)
let json_process (p : Exec.Procpool.stats option) =
  match p with
  | None -> "null"
  | Some p ->
      Printf.sprintf
        "{\"deaths\":%d,\"preempted\":%d,\"redeals\":%d,\"garbage\":%d}"
        p.Exec.Procpool.p_deaths p.p_preempted p.p_redeals p.p_garbage

(* The "store" object every --json report carries: persistent-cache
   telemetry.  Counters are deterministic at any [-j] for a given
   starting store state (each memo key consults the store exactly once),
   but differ between cold and warm runs — comparisons of aggregate
   results across runs must ignore this object. *)
let json_store () =
  let s = Exec.Store.counters () in
  Printf.sprintf
    "{\"enabled\":%b,\"hits\":%d,\"misses\":%d,\"loads\":%d,\"writes\":%d}"
    (Exec.Store.enabled ()) s.hits s.misses s.loads s.writes

let json_unit_report (u : Ijdt_core.Campaign.unit_report) =
  Printf.sprintf
    "{\"unit\":\"%s\",\"verdict\":\"%s\",\"detail\":\"%s\",\"attempts\":%d}"
    (json_escape u.ur_key) (json_escape u.ur_verdict) (json_escape u.ur_detail)
    u.ur_attempts

(* The "supervision" and "chaos" objects shared by the campaign and
   validation reports: counts and stable names only, so the JSON stays
   byte-identical at any [-j]. *)
let json_supervision (s : Ijdt_core.Campaign.supervised) =
  Printf.sprintf
    "\"supervision\":{\"totals\":%s,\"per_compiler\":[%s],\
     \"incidents\":[%s],\"interrupted\":%b,\"process\":%s},\
     \"chaos\":{\"enabled\":%b,\"targets\":[%s]}"
    (json_robustness s.sup_totals)
    (String.concat ","
       (List.map
          (fun (compiler, counts) ->
            Printf.sprintf "{\"compiler\":\"%s\",\"counts\":%s}"
              (json_escape (Jit.Cogits.short_name compiler))
              (json_robustness counts))
          s.sup_by_compiler))
    (String.concat ","
       (List.map json_unit_report (Ijdt_core.Campaign.sup_incidents s)))
    s.sup_interrupted
    (json_process s.sup_process)
    (s.sup_chaos <> [])
    (String.concat ","
       (List.map
          (fun (i, key, kind) ->
            Printf.sprintf "{\"index\":%d,\"unit\":\"%s\",\"kind\":\"%s\"}" i
              (json_escape key) kind)
          s.sup_chaos))

(* --- campaign --- *)

(* The campaign JSON report is deliberately time-free: every field is a
   count or a name, so the file is byte-identical whatever [-j] (the
   wall-clock figures 6-7 stay on stdout only). *)
let write_campaign_json file (s : Ijdt_core.Campaign.supervised) =
  let c = s.Ijdt_core.Campaign.sup_campaign in
  let oc = open_out file in
  let compiler_json (cr : Ijdt_core.Campaign.compiler_result) =
    let instr_json (r : Ijdt_core.Campaign.instruction_result) =
      Printf.sprintf
        "{\"subject\":\"%s\",\"paths\":%d,\"curated\":%d,\
         \"differences\":%d,\"unsupported\":%b}"
        (json_escape (Concolic.Path.subject_name r.subject))
        r.paths r.curated r.differences r.unsupported
    in
    Printf.sprintf
      "{\"compiler\":\"%s\",\"tested\":%d,\"paths\":%d,\"curated\":%d,\
       \"differences\":%d,\"instructions\":[%s]}"
      (json_escape (Jit.Cogits.short_name cr.compiler))
      (Ijdt_core.Campaign.tested_instructions cr)
      (Ijdt_core.Campaign.total_paths cr)
      (Ijdt_core.Campaign.total_curated cr)
      (Ijdt_core.Campaign.total_differences cr)
      (String.concat "," (List.map instr_json cr.instructions))
  in
  let cause_json (family, cause, n) =
    Printf.sprintf "{\"family\":\"%s\",\"cause\":\"%s\",\"witnesses\":%d}"
      (json_escape (Difftest.Difference.family_name family))
      (json_escape cause) n
  in
  let family_json (family, n) =
    Printf.sprintf "{\"family\":\"%s\",\"causes\":%d}"
      (json_escape (Difftest.Difference.family_name family))
      n
  in
  let static_cause_json (family, cause, n) =
    Printf.sprintf "{\"family\":\"%s\",\"cause\":\"%s\",\"findings\":%d}"
      (json_escape (Verify.Finding.family_name family))
      (json_escape cause) n
  in
  let a = Ijdt_core.Campaign.agreement_totals c in
  Printf.fprintf oc
    "{\"defects\":\"%s\",\"arches\":[%s],\"compilers\":[%s],\
     \"causes\":[%s],\"causes_by_family\":[%s],\
     \"agreement\":{\"both_clean\":%d,\"both_flagged\":%d,\
     \"static_only\":%d,\"dynamic_only\":%d},\"static_causes\":[%s],%s,\
     \"store\":%s}\n"
    (defects_label c.defects)
    (String.concat ","
       (List.map
          (fun a -> Printf.sprintf "\"%s\"" (Jit.Codegen.arch_name a))
          c.arches))
    (String.concat "," (List.map compiler_json c.results))
    (String.concat "," (List.map cause_json (Ijdt_core.Campaign.causes c)))
    (String.concat ","
       (List.map family_json (Ijdt_core.Campaign.causes_by_family c)))
    a.both_clean a.both_flagged a.static_only a.dynamic_only
    (String.concat ","
       (List.map static_cause_json (Ijdt_core.Campaign.static_causes c)))
    (json_supervision s) (json_store ());
  close_out oc

let campaign_cmd =
  let iters_arg =
    Arg.(
      value & opt int 96
      & info [ "max-iterations" ] ~docv:"N"
          ~doc:"Concolic execution budget per instruction.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write a machine-readable JSON report to $(docv).  The \
             report contains only counts and names (no wall-clock \
             fields), so it is byte-identical at any $(b,-j).")
  in
  let chaos_arg =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Inject seeded harness faults (a raising solver, a \
             never-terminating exploration, an allocation bomb) at \
             $(b,--chaos-faults) seed-derived unit indices.  The run \
             must finish with every fault contained as that unit's \
             verdict and zero collateral damage — the supervisor's own \
             test.")
  in
  let chaos_faults_arg =
    Arg.(
      value & opt int 3
      & info [ "chaos-faults" ] ~docv:"N"
          ~doc:"Faults injected by $(b,--chaos) (kinds round-robin).")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S"
          ~doc:"Seed for the chaos schedule and the retry backoff.")
  in
  let run defects max_iterations jobs workers worker_deadline json chaos
      chaos_faults seed corpus fuel deadline retries breaker journal
      journal_sync resume store =
    with_store store;
    Exec.Interrupt.install ();
    let policy = policy_of ~fuel ~deadline ~retries ~breaker ~seed in
    let s =
      Ijdt_core.Campaign.run_supervised ~jobs ?workers
        ~worker_deadline_s:worker_deadline ~max_iterations ~defects ~policy
        ~corpus:(corpus_of ~seed corpus)
        ?chaos:(if chaos then Some (seed, chaos_faults) else None)
        ?journal ~journal_sync ?resume ()
    in
    let c = s.Ijdt_core.Campaign.sup_campaign in
    Ijdt_core.Tables.all Format.std_formatter c;
    let a = Ijdt_core.Campaign.agreement_totals c in
    Printf.printf
      "\nStatic-vs-dynamic agreement (per path × arch verdict):\n\
      \  both clean    %6d\n\
      \  both flagged  %6d\n\
      \  static only   %6d\n\
      \  dynamic only  %6d\n"
      a.both_clean a.both_flagged a.static_only a.dynamic_only;
    let sc = Ijdt_core.Campaign.static_causes c in
    Printf.printf "Static root causes: %d\n" (List.length sc);
    List.iter
      (fun (family, cause, n) ->
        Printf.printf "  %-28s %s (%d)\n"
          (Verify.Finding.family_name family)
          cause n)
      sc;
    print_newline ();
    Ijdt_core.Tables.supervision_table Format.std_formatter s;
    (match json with Some file -> write_campaign_json file s | None -> ());
    (* an interrupted run reported its partial aggregates; exit like a
       SIGINT-killed process so callers see the interruption *)
    if s.sup_interrupted then exit 130;
    (* a supervised campaign exits non-zero only when units were lost
       for reasons other than an injected chaos fault *)
    if lost s.sup_totals > List.length s.sup_chaos then exit 1
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run the full evaluation: 4 compilers × 3 ISAs (Tables 2-3)")
    Term.(
      const run $ defects_arg $ iters_arg $ jobs_arg $ workers_arg
      $ worker_deadline_arg $ json_arg $ chaos_arg $ chaos_faults_arg
      $ seed_arg $ corpus_arg $ fuel_arg $ deadline_arg $ retries_arg
      $ breaker_arg $ journal_arg $ journal_sync_arg $ resume_arg $ store_arg)

(* --- verify --- *)

let verify_cmd =
  let pristine_arg =
    Arg.(
      value & flag
      & info [ "pristine" ]
          ~doc:
            "Verify the pristine (defect-free) configuration and exit \
             non-zero on any finding.  Shorthand for $(b,--defects \
             pristine) plus a clean-bill check; this is the CI gate.")
  in
  let include_missing_arg =
    Arg.(
      value
      & opt bool true
      & info [ "include-missing" ] ~docv:"BOOL"
          ~doc:
            "Include missing-functionality findings (absent templates / \
             byte-code support), which are expected on the seeded \
             configuration.")
  in
  let subject_opt_arg =
    Arg.(
      value
      & pos 0 (some subject_conv) None
      & info [] ~docv:"INSTR"
          ~doc:
            "Verify a single instruction instead of sweeping the whole \
             test universe.")
  in
  let abstract_arg =
    Arg.(
      value & flag
      & info [ "abstract" ]
          ~doc:
            "Run only the machine-layer abstract-interpretation sweep \
             (backend-generic fixpoint, lint, symbolic cross-check, \
             cross-ISA differ) instead of the full verifier suite.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "With $(b,--abstract), write the counter summary and \
             per-cause finding counts to $(docv) as JSON.  The report \
             contains only counts and names, so it is deterministic \
             across runs.")
  in
  let abstract_json file (r : Verify.abstract_report) =
    let oc = open_out file in
    let causes = Verify.abstract_causes r in
    Printf.fprintf oc
      "{\"defects\":%S,\"units\":%d,\"programs\":%d,\"paths\":%d,\
       \"truncated\":%d,\"crosschecked\":%d,\"findings\":%d,\
       \"per_isa\":[%s],\"causes\":[%s],\"store\":%s}\n"
      (if r.ab_defects = Interpreter.Defects.pristine then "pristine"
       else "seeded")
      r.ab_units r.ab_programs r.ab_paths r.ab_truncated r.ab_crosschecked
      (List.length r.ab_findings)
      (String.concat ","
         (List.map
            (fun (name, (t : Verify.arch_tally)) ->
              Printf.sprintf
                "{\"arch\":%S,\"programs\":%d,\"paths\":%d,\
                 \"truncated\":%d,\"findings\":%d}"
                name t.at_programs t.at_paths t.at_truncated t.at_findings)
            r.ab_by_arch))
      (String.concat ","
         (List.map
            (fun (family, cause, n) ->
              Printf.sprintf "{\"family\":%S,\"cause\":%S,\"count\":%d}"
                (Verify.Finding.family_name family)
                cause n)
            causes))
      (json_store ());
    close_out oc
  in
  let run defects pristine include_missing abstract json subject store =
    with_store store;
    let defects = if pristine then Interpreter.Defects.pristine else defects in
    (* absent functionality (unimplemented templates) exists in both
       configurations and is reported by the dynamic tester on pristine
       too; the pristine gate checks for *false* positives, i.e. any
       finding in a wrongness family *)
    let include_missing = include_missing && not pristine in
    if abstract then begin
      let r = Verify.abstract_all ~defects () in
      Format.printf "%a" Ijdt_core.Tables.abstract_table r;
      Option.iter (fun file -> abstract_json file r) json;
      if pristine && r.ab_findings <> [] then begin
        List.iter
          (fun f -> Printf.printf "  %s\n" (Verify.Finding.to_string f))
          r.ab_findings;
        exit 1
      end
    end
    else
    match subject with
    | Some subject ->
        let findings =
          List.concat_map
            (fun arch ->
              match subject with
              | Concolic.Path.Native _ ->
                  Difftest.Runner.static_findings ~defects
                    ~compiler:Jit.Cogits.Native_method_compiler ~arch subject
              | Concolic.Path.Bytecode _ | Concolic.Path.Bytecode_seq _ ->
                  List.concat_map
                    (fun compiler ->
                      Difftest.Runner.static_findings ~defects ~compiler ~arch
                        subject)
                    Jit.Cogits.bytecode_compilers)
            Jit.Codegen.all_arches
          |> List.sort_uniq compare
        in
        let findings =
          if include_missing then findings
          else
            List.filter
              (fun (f : Verify.Finding.t) ->
                f.family <> Verify.Finding.Missing_functionality)
              findings
        in
        Printf.printf "%s: %d static finding(s)\n"
          (Concolic.Path.subject_name subject)
          (List.length findings);
        List.iter
          (fun f -> Printf.printf "  %s\n" (Verify.Finding.to_string f))
          findings;
        if pristine && findings <> [] then exit 1
    | None ->
        let r = Verify.verify_all ~defects ~include_missing () in
        Format.printf "%a" Verify.pp_report r;
        if pristine && r.findings <> [] then begin
          List.iter
            (fun f ->
              Printf.printf "  %s\n" (Verify.Finding.to_string f))
            r.findings;
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Run the static verifier suite (byte-code, IR, machine-code, \
          cross-compiler differencing) without executing any test")
    Term.(
      const run $ defects_arg $ pristine_arg $ include_missing_arg
      $ abstract_arg $ json_arg $ subject_opt_arg $ store_arg)

(* --- validate: solver-backed translation validation (pass 5) --- *)

let json_counts (v : Ijdt_core.Campaign.validation_counts) =
  Printf.sprintf
    "{\"proved\":%d,\"refuted\":%d,\"missing\":%d,\"spurious\":%d,\
     \"unknown\":%d,\"skipped\":%d,\"queries\":%d}"
    v.proved v.refuted v.missing v.spurious v.unknown v.skipped v.queries

let write_validation_json file ~pristine ~confirmed
    (s : Ijdt_core.Campaign.supervised) =
  let c = s.Ijdt_core.Campaign.sup_campaign in
  let oc = open_out file in
  let compiler_json (cr : Ijdt_core.Campaign.compiler_result) =
    let rows =
      List.map
        (fun (arch, counts) ->
          Printf.sprintf "{\"arch\":\"%s\",\"counts\":%s}"
            (Jit.Codegen.arch_name arch)
            (json_counts counts))
        (Ijdt_core.Campaign.validation_by_arch cr)
    in
    Printf.sprintf
      "{\"compiler\":\"%s\",\"per_arch\":[%s],\"totals\":%s}"
      (json_escape (Jit.Cogits.short_name cr.compiler))
      (String.concat "," rows)
      (json_counts (Ijdt_core.Campaign.validation_totals_compiler cr))
  in
  let t = Ijdt_core.Campaign.validation_totals c in
  let validated = t.proved + t.refuted + t.spurious + t.unknown in
  let cache_json (s : Exec.Memo.stats) =
    Printf.sprintf "{\"hits\":%d,\"misses\":%d}" s.hits s.misses
  in
  Printf.fprintf oc
    "{\"arches\":[%s],\"compilers\":[%s],\"totals\":%s,\
     \"unknown_rate\":%.4f,\"caches\":{\"solver\":%s,\
     \"path_summaries\":%s},\"store\":%s,\"gate\":{\"pristine\":%b,\
     \"confirmed_refutations\":%d,\"passed\":%b},%s}\n"
    (String.concat ","
       (List.map
          (fun a -> Printf.sprintf "\"%s\"" (Jit.Codegen.arch_name a))
          c.arches))
    (String.concat "," (List.map compiler_json c.results))
    (json_counts t)
    (if validated = 0 then 0.0
     else float_of_int t.unknown /. float_of_int validated)
    (cache_json (Solver.Solve.cache_stats ()))
    (cache_json (Concolic.Explorer.cache_stats ()))
    (json_store ()) pristine confirmed
    ((not pristine) || confirmed = 0)
    (json_supervision s);
  close_out oc

let validate_cmd =
  let compilers_arg =
    Arg.(
      value
      & opt_all compiler_conv []
      & info [ "c"; "compiler" ] ~docv:"COMPILER"
          ~doc:
            "Compiler under validation (repeatable).  Default: all four; \
             with $(b,--pristine) the Simple compiler is excluded, since \
             its structural lack of type prediction makes \
             interpreter-favour optimisation differences genuine (and \
             expected) refutations.")
  in
  let arch_arg =
    Arg.(
      value
      & opt_all arch_conv Jit.Codegen.all_arches
      & info [ "a"; "arch" ] ~docv:"ARCH" ~doc:"Target ISA (repeatable).")
  in
  let pristine_arg =
    Arg.(
      value & flag
      & info [ "pristine" ]
          ~doc:
            "Validate the pristine (defect-free) configuration and exit \
             non-zero on any confirmed refutation that is not an absent \
             template; this is the CI gate.")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Solver-query budget shared across the whole run; exhausted \
             queries degrade to Unknown verdicts.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write a machine-readable JSON report to $(docv).")
  in
  let iters_arg =
    Arg.(
      value & opt int 96
      & info [ "max-iterations" ] ~docv:"N"
          ~doc:"Concolic execution budget per instruction.")
  in
  let subject_opt_arg =
    Arg.(
      value
      & pos 0 (some subject_conv) None
      & info [] ~docv:"INSTR"
          ~doc:
            "Validate a single instruction instead of sweeping the whole \
             test universe.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S"
          ~doc:"Extracted-corpus seed (with $(b,--corpus extracted)).")
  in
  let run defects pristine compilers arches budget json max_iterations jobs
      workers worker_deadline subject seed corpus fuel deadline retries
      breaker journal journal_sync resume store =
    with_store store;
    Exec.Interrupt.install ();
    let corpus = corpus_of ~seed corpus in
    let policy = policy_of ~fuel ~deadline ~retries ~breaker ~seed:0 in
    let defects = if pristine then Interpreter.Defects.pristine else defects in
    let budget = Option.map ref budget in
    let compilers =
      match compilers with
      | [] ->
          if pristine then
            [
              Jit.Cogits.Native_method_compiler;
              Jit.Cogits.Stack_to_register_cogit;
              Jit.Cogits.Register_allocating_cogit;
            ]
          else Jit.Cogits.all
      | cs -> cs
    in
    (* a single instruction only meets the compilers of its kind *)
    let compilers =
      match subject with
      | Some (Concolic.Path.Native _) ->
          List.filter (( = ) Jit.Cogits.Native_method_compiler) compilers
      | Some _ ->
          List.filter (( <> ) Jit.Cogits.Native_method_compiler) compilers
      | None -> compilers
    in
    if compilers = [] then begin
      prerr_endline
        "validate: no compiler of the instruction's kind selected";
      exit 2
    end;
    let units =
      Option.map
        (fun s -> List.map (fun compiler -> (compiler, s)) compilers)
        subject
    in
    let s =
      Ijdt_core.Campaign.run_supervised ~jobs ?workers
        ~worker_deadline_s:worker_deadline ~max_iterations ~validate:true
        ?budget ~policy ?journal ~journal_sync ?resume ~defects ~arches
        ~compilers ~corpus ?units ()
    in
    let c = s.Ijdt_core.Campaign.sup_campaign in
    Ijdt_core.Tables.validation_table Format.std_formatter c;
    (* show each retained refutation witness, the replayable evidence *)
    List.iter
      (fun (cr : Ijdt_core.Campaign.compiler_result) ->
        List.iter
          (fun (r : Ijdt_core.Campaign.instruction_result) ->
            List.iter
              (fun d ->
                Printf.printf "  witness: %s\n"
                  (Difftest.Difference.to_string d))
              r.diffs)
          cr.instructions)
      c.results;
    let t = Ijdt_core.Campaign.validation_totals c in
    let confirmed = t.refuted - t.missing in
    let tot = s.sup_totals in
    if lost tot + tot.c_retries > 0 then begin
      print_newline ();
      Ijdt_core.Tables.supervision_table Format.std_formatter s
    end;
    (match json with
    | Some file -> write_validation_json file ~pristine ~confirmed s
    | None -> ());
    if s.sup_interrupted then exit 130;
    if pristine && confirmed > 0 then begin
      Printf.printf
        "PRISTINE GATE FAILED: %d confirmed refutation(s) on the \
         defect-free configuration\n"
        confirmed;
      exit 1
    end;
    if lost tot > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Solver-backed translation validation: symbolically execute the \
          compiled code of each instruction, prove every machine path \
          equivalent to the interpreter's path summaries, and replay any \
          counterexample through the differential tester")
    Term.(
      const run $ defects_arg $ pristine_arg $ compilers_arg $ arch_arg
      $ budget_arg $ json_arg $ iters_arg $ jobs_arg $ workers_arg
      $ worker_deadline_arg $ subject_opt_arg $ seed_arg $ corpus_arg
      $ fuel_arg $ deadline_arg $ retries_arg $ breaker_arg $ journal_arg
      $ journal_sync_arg $ resume_arg $ store_arg)

(* --- mutate: the mutation kill matrix --- *)

(* Like the campaign report, the kill-matrix JSON is time-free — counts
   and names only — so the file is byte-identical at any [-j]. *)
let write_mutation_json file (m : Ijdt_core.Campaign.kill_matrix) =
  let oc = open_out file in
  let row_json (r : Ijdt_core.Campaign.kill_row) =
    Printf.sprintf
      "{\"label\":\"%s\",\"layer\":\"%s\",\"units\":%d,\"static\":%d,\
       \"validate\":%d,\"difftest\":%d,\"survived\":%d,\"kill_rate\":%.4f}"
      (json_escape r.kr_label) (json_escape r.kr_layer) r.kr_units r.kr_static
      r.kr_validate r.kr_difftest r.kr_survived
      (Ijdt_core.Campaign.kill_rate r)
  in
  let outcome_json (o : Ijdt_core.Campaign.mutant_outcome) =
    Printf.sprintf
      "{\"operator\":\"%s\",\"compiler\":\"%s\",\"subject\":\"%s\",\
       \"arch\":\"%s\",\"fired\":%b,\"kill\":\"%s\"}"
      (json_escape o.mo_op.Jit.Fault.id)
      (json_escape (Jit.Cogits.short_name o.mo_compiler))
      (json_escape (Concolic.Path.subject_name o.mo_subject))
      (Jit.Codegen.arch_name o.mo_arch)
      o.mo_fired
      (Ijdt_core.Campaign.kill_name o.mo_kill)
  in
  let t = Ijdt_core.Campaign.kill_totals m in
  Printf.fprintf oc
    "{\"defects\":\"%s\",\"pristine\":%b,\"totals\":%s,\
     \"by_operator\":[%s],\"by_layer\":[%s],\"outcomes\":[%s],\
     \"gate\":{\"false_kills\":%d,\"passed\":%b},\
     \"supervision\":{\"totals\":%s,\"incidents\":[%s],\"interrupted\":%b,\
     \"process\":%s},\"store\":%s}\n"
    (defects_label m.km_defects) m.km_pristine (row_json t)
    (String.concat ","
       (List.map row_json (Ijdt_core.Campaign.kills_by_operator m)))
    (String.concat ","
       (List.map row_json (Ijdt_core.Campaign.kills_by_layer m)))
    (String.concat "," (List.map outcome_json m.km_outcomes))
    (List.length (Ijdt_core.Campaign.false_kills m))
    ((not m.km_pristine)
    || Ijdt_core.Campaign.false_kills m = [])
    (json_robustness m.km_robustness)
    (String.concat "," (List.map json_unit_report m.km_incidents))
    m.km_interrupted
    (json_process m.km_process)
    (json_store ());
  close_out oc

let mutate_cmd =
  (* unlike the other subcommands, mutation defaults to the pristine
     interpreter configuration: on a defect-free baseline every kill is
     attributable to the planted fault alone *)
  let mutate_defects_arg =
    Arg.(
      value
      & opt defects_conv Interpreter.Defects.pristine
      & info [ "defects" ] ~docv:"CONFIG"
          ~doc:
            "Seeded-defect configuration: $(b,paper) or $(b,pristine) \
             (default $(b,pristine), so every kill is attributable to \
             the planted fault alone).")
  in
  let operators_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "o"; "operators" ] ~docv:"OP"
          ~doc:
            "Mutation operator to schedule (repeatable; default: all \
             twelve).  See the operator ids in the kill table.")
  in
  let arch_arg =
    Arg.(
      value
      & opt_all arch_conv Jit.Codegen.all_arches
      & info [ "a"; "arch" ] ~docv:"ARCH" ~doc:"Target ISA (repeatable).")
  in
  let pristine_arg =
    Arg.(
      value & flag
      & info [ "pristine" ]
          ~doc:
            "Run every scheduled unit under the inert identity mutant \
             instead of its operator and exit non-zero on any kill: the \
             oracle stack must report zero false kills on unmutated \
             compilers.  This is the CI gate.")
  in
  let per_operator_arg =
    Arg.(
      value & opt int 2
      & info [ "per-operator" ] ~docv:"K"
          ~doc:
            "Subjects scheduled per (operator, compiler) pair, first-fit \
             in stable order.")
  in
  let gen_arg =
    Arg.(
      value & opt int 6
      & info [ "gen" ] ~docv:"N"
          ~doc:
            "Random well-formed methods generated (qcheck, filtered \
             through the byte-code verifier) and appended to the \
             candidate pool.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S" ~doc:"Method-generator seed.")
  in
  let iters_arg =
    Arg.(
      value & opt int 96
      & info [ "max-iterations" ] ~docv:"N"
          ~doc:"Concolic execution budget per instruction.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write a machine-readable JSON report to $(docv).  Counts \
             and names only, byte-identical at any $(b,-j).")
  in
  let run defects pristine operators arches per_operator gen seed corpus
      max_iterations jobs workers worker_deadline json fuel deadline retries
      breaker journal journal_sync resume store =
    with_store store;
    Exec.Interrupt.install ();
    let policy = policy_of ~fuel ~deadline ~retries ~breaker ~seed in
    let operators =
      match operators with
      | [] -> Mutate.all
      | ids ->
          List.map
            (fun id ->
              match Mutate.find id with
              | Some op -> op
              | None ->
                  prerr_endline
                    (Printf.sprintf
                       "mutate: unknown operator %S (known: %s)" id
                       (String.concat ", " (Mutate.ids ())));
                  exit 2)
            ids
    in
    let m =
      Ijdt_core.Campaign.kill_matrix ~jobs ?workers
        ~worker_deadline_s:worker_deadline ~max_iterations ~per_operator ~gen
        ~seed ~pristine ~defects ~arches ~operators
        ~corpus:(corpus_of ~seed corpus) ~policy ?journal ~journal_sync
        ?resume ()
    in
    Ijdt_core.Tables.kill_table Format.std_formatter m;
    (match json with Some file -> write_mutation_json file m | None -> ());
    if m.km_interrupted then exit 130;
    if pristine then begin
      let false_kills = Ijdt_core.Campaign.false_kills m in
      if false_kills <> [] then begin
        Printf.printf
          "PRISTINE GATE FAILED: %d false kill(s) on unmutated compilers\n"
          (List.length false_kills);
        List.iter
          (fun (o : Ijdt_core.Campaign.mutant_outcome) ->
            Printf.printf "  %s on %s/%s/%s killed by %s\n"
              o.mo_op.Jit.Fault.id
              (Jit.Cogits.short_name o.mo_compiler)
              (Concolic.Path.subject_name o.mo_subject)
              (Jit.Codegen.arch_name o.mo_arch)
              (Ijdt_core.Campaign.kill_name o.mo_kill))
          false_kills;
        exit 1
      end
    end;
    if lost m.Ijdt_core.Campaign.km_robustness > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "mutate"
       ~doc:
         "Mutation-based oracle-strength evaluation: plant one compiler \
          fault per unit (12 operators across template selection, IR and \
          machine-code lowering), run each mutant through the static \
          verifier, translation validation and the differential tester, \
          and record which layer killed it first")
    Term.(
      const run $ mutate_defects_arg $ pristine_arg $ operators_arg
      $ arch_arg $ per_operator_arg $ gen_arg $ seed_arg $ corpus_arg
      $ iters_arg $ jobs_arg $ workers_arg $ worker_deadline_arg $ json_arg
      $ fuel_arg $ deadline_arg $ retries_arg $ breaker_arg $ journal_arg
      $ journal_sync_arg $ resume_arg $ store_arg)

(* --- corpus: build and report the template-extracted corpus --- *)

let corpus_cmd =
  let n_arg =
    Arg.(
      value & opt int default_corpus_n
      & info [ "n"; "size" ] ~docv:"N"
          ~doc:
            "Target corpus size: verified, fingerprint-deduplicated \
             subjects to accept.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S" ~doc:"Corpus generator seed.")
  in
  let kills_arg =
    Arg.(
      value & flag
      & info [ "kills" ]
          ~doc:
            "Also run a per-operator kill comparison (one mini \
             kill-matrix on the curated pool, one drawing exclusively \
             from this corpus) and fail if any operator killed on \
             curated survives extracted-only.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the corpus report (build stats, dedup ratio, \
             extracted-vs-curated coverage, gate verdicts) to $(docv).  \
             All fields except the $(b,store) object are byte-identical \
             at any $(b,-j).")
  in
  let json_coverage (cov : Templates.Corpus.coverage) =
    Printf.sprintf
      "{\"subjects\":%d,\"paths\":%d,\"distinct_paths\":%d,\
       \"fingerprints\":%d,\"exits\":[%s]}"
      cov.Templates.Corpus.cov_subjects cov.Templates.Corpus.cov_paths
      cov.Templates.Corpus.cov_distinct_paths
      cov.Templates.Corpus.cov_fingerprints
      (String.concat ","
         (List.map
            (fun (x, n) ->
              Printf.sprintf "{\"exit\":\"%s\",\"paths\":%d}" (json_escape x)
                n)
            cov.Templates.Corpus.cov_exits))
  in
  let run n seed kills jobs json store =
    with_store store;
    let c = Ijdt_core.Campaign.extracted_corpus ~jobs ~seed ~n () in
    let stats = c.Templates.Corpus.c_stats in
    let extracted = Templates.Corpus.coverage c in
    let curated =
      Templates.Corpus.coverage_of_subjects ~jobs
        (Ijdt_core.Campaign.curated_universe ())
    in
    let kill_rows =
      if not kills then []
      else begin
        let killed m =
          List.filter_map
            (fun (r : Ijdt_core.Campaign.kill_row) ->
              if r.kr_static + r.kr_validate + r.kr_difftest > 0 then
                Some r.kr_label
              else None)
            (Ijdt_core.Campaign.kills_by_operator m)
        in
        let on_curated =
          killed
            (Ijdt_core.Campaign.kill_matrix ~jobs ~per_operator:1 ~seed ())
        in
        (* the extracted side schedules three subjects per cell: first-fit
           on a generated pool can land a mutant on a subject where the
           fault is unobservable (an equivalent mutant), which a curated
           single-opcode unit — fully symbolic operands — never is *)
        let on_extracted =
          killed
            (Ijdt_core.Campaign.kill_matrix ~jobs ~per_operator:3 ~seed
               ~corpus:(Ijdt_core.Campaign.Corpus_extracted { n; seed })
               ())
        in
        List.map
          (fun (op : Mutate.operator) ->
            let id = op.Jit.Fault.id in
            (id, List.mem id on_curated, List.mem id on_extracted))
          Mutate.all
      end
    in
    Ijdt_core.Tables.corpus_table Format.std_formatter ~curated ~extracted
      ~kills:kill_rows;
    Printf.printf
      "build: %d accepted of %d composed (%d rejected, %d unexplorable, \
       %d duplicates) in %d chunks; dedup ratio %.4f\n"
      stats.Templates.Corpus.s_accepted stats.Templates.Corpus.s_generated
      stats.Templates.Corpus.s_rejected stats.Templates.Corpus.s_unexplorable
      stats.Templates.Corpus.s_duplicates stats.Templates.Corpus.s_chunks
      (Templates.Corpus.dedup_ratio c);
    let lost =
      List.filter (fun (_, cur, ext) -> cur && not ext) kill_rows
    in
    let gate_failures =
      List.filter_map Fun.id
        [
          (if stats.Templates.Corpus.s_accepted >= n then None
           else
             Some
               (Printf.sprintf "only %d of %d subjects accepted"
                  stats.Templates.Corpus.s_accepted n));
          (if stats.Templates.Corpus.s_post_filter_rejections = 0 then None
           else
             Some
               (Printf.sprintf "%d post-filter verifier rejections"
                  stats.Templates.Corpus.s_post_filter_rejections));
          (if
             extracted.Templates.Corpus.cov_fingerprints
             > curated.Templates.Corpus.cov_fingerprints
           then None
           else
             Some
               (Printf.sprintf
                  "extracted fingerprints %d do not exceed curated %d"
                  extracted.Templates.Corpus.cov_fingerprints
                  curated.Templates.Corpus.cov_fingerprints));
          (if lost = [] then None
           else
             Some
               (Printf.sprintf "operators lost on extracted-only: %s"
                  (String.concat ", "
                     (List.map (fun (id, _, _) -> id) lost))));
        ]
    in
    (match json with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        Printf.fprintf oc
          "{\"n\":%d,\"seed\":%d,\"stats\":{\"generated\":%d,\
           \"rejected\":%d,\"unexplorable\":%d,\"duplicates\":%d,\
           \"accepted\":%d,\"post_filter_rejections\":%d,\"chunks\":%d},\
           \"dedup_ratio\":%.4f,\"coverage\":{\"curated\":%s,\
           \"extracted\":%s},\"kills\":[%s],\"gate\":{\"accepted\":%b,\
           \"post_filter_clean\":%b,\"fingerprints_exceed_curated\":%b,\
           \"no_lost_operators\":%b,\"passed\":%b},\"store\":%s}\n"
          n seed stats.Templates.Corpus.s_generated
          stats.Templates.Corpus.s_rejected
          stats.Templates.Corpus.s_unexplorable
          stats.Templates.Corpus.s_duplicates
          stats.Templates.Corpus.s_accepted
          stats.Templates.Corpus.s_post_filter_rejections
          stats.Templates.Corpus.s_chunks
          (Templates.Corpus.dedup_ratio c)
          (json_coverage curated) (json_coverage extracted)
          (String.concat ","
             (List.map
                (fun (id, cur, ext) ->
                  Printf.sprintf
                    "{\"operator\":\"%s\",\"curated\":%b,\"extracted\":%b}"
                    (json_escape id) cur ext)
                kill_rows))
          (stats.Templates.Corpus.s_accepted >= n)
          (stats.Templates.Corpus.s_post_filter_rejections = 0)
          (extracted.Templates.Corpus.cov_fingerprints
          > curated.Templates.Corpus.cov_fingerprints)
          (lost = [])
          (gate_failures = [])
          (json_store ());
        close_out oc;
        Printf.printf "wrote %s\n" file);
    if gate_failures <> [] then begin
      List.iter (Printf.eprintf "corpus: gate failed: %s\n") gate_failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:
         "Build the template-extracted subject corpus (templates lifted \
          from the curated universe, hole-filled, verifier-filtered, \
          deduplicated by path-summary fingerprint) and report its \
          coverage against the curated corpus")
    Term.(
      const run $ n_arg $ seed_arg $ kills_arg $ jobs_arg $ json_arg
      $ store_arg)

(* --- list --- *)

let list_cmd =
  let run () =
    print_endline "Byte-code instructions:";
    List.iter
      (fun op -> Printf.printf "  %s\n" (Bytecodes.Opcode.mnemonic op))
      (Bytecodes.Encoding.all_defined_opcodes ());
    print_endline "Native methods:";
    List.iter
      (fun (i : Interpreter.Primitive_table.info) ->
        Printf.printf "  %3d %s/%d\n" i.id i.name i.arity)
      Interpreter.Primitive_table.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List testable instructions and native methods")
    Term.(const run $ const ())

let () =
  (* hidden worker mode: Exec.Procpool re-execs this binary as
     `vmtest worker` with the wire protocol on stdin/stdout; it must be
     intercepted before cmdliner ever parses argv *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "worker" then begin
    Ijdt_core.Campaign.worker_main ();
    exit 0
  end;
  let doc = "interpreter-guided differential JIT compiler unit testing" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "vmtest" ~version:"1.0.0" ~doc)
          [
            explore_cmd;
            difftest_cmd;
            campaign_cmd;
            verify_cmd;
            validate_cmd;
            mutate_cmd;
            corpus_cmd;
            list_cmd;
          ]))
