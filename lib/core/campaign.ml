(* Campaign orchestration: the paper's evaluation pipeline (§5).

   A campaign explores every instruction of a compiler's test universe
   with the concolic engine, then runs the differential tests on each
   curated path, on one or both ISAs, and aggregates per-instruction and
   per-compiler statistics — the data behind Table 2, Table 3 and
   Figures 5-7. *)

(* Static-vs-dynamic agreement tallies, one count per path x arch
   verdict (see Difftest.Runner.agreement). *)
type agreement_counts = {
  both_clean : int;
  both_flagged : int;
  static_only : int;
  dynamic_only : int;
}

let no_agreements =
  { both_clean = 0; both_flagged = 0; static_only = 0; dynamic_only = 0 }

let add_agreement counts = function
  | Difftest.Runner.Both_clean -> { counts with both_clean = counts.both_clean + 1 }
  | Difftest.Runner.Both_flagged ->
      { counts with both_flagged = counts.both_flagged + 1 }
  | Difftest.Runner.Static_only ->
      { counts with static_only = counts.static_only + 1 }
  | Difftest.Runner.Dynamic_only ->
      { counts with dynamic_only = counts.dynamic_only + 1 }

let sum_agreements a b =
  {
    both_clean = a.both_clean + b.both_clean;
    both_flagged = a.both_flagged + b.both_flagged;
    static_only = a.static_only + b.static_only;
    dynamic_only = a.dynamic_only + b.dynamic_only;
  }

(* Translation-validation tallies, one count per path x arch verdict
   (see Difftest.Runner.validation), plus the solver queries spent. *)
type validation_counts = {
  proved : int;
  refuted : int;
  missing : int;
      (* the subset of [refuted] whose witness is an absent template
         ("not compiled"): real divergences, but expected ones *)
  spurious : int;
  unknown : int;
  skipped : int;
  queries : int;
}

let no_validations =
  {
    proved = 0;
    refuted = 0;
    missing = 0;
    spurious = 0;
    unknown = 0;
    skipped = 0;
    queries = 0;
  }

let add_validation counts = function
  | Difftest.Runner.V_proved -> { counts with proved = counts.proved + 1 }
  | Difftest.Runner.V_refuted { witness; _ } ->
      let counts = { counts with refuted = counts.refuted + 1 } in
      if witness.Verify.Translation_validator.missing then
        { counts with missing = counts.missing + 1 }
      else counts
  | Difftest.Runner.V_spurious _ ->
      { counts with spurious = counts.spurious + 1 }
  | Difftest.Runner.V_unknown _ -> { counts with unknown = counts.unknown + 1 }
  | Difftest.Runner.V_skipped _ -> { counts with skipped = counts.skipped + 1 }

let sum_validations a b =
  {
    proved = a.proved + b.proved;
    refuted = a.refuted + b.refuted;
    missing = a.missing + b.missing;
    spurious = a.spurious + b.spurious;
    unknown = a.unknown + b.unknown;
    skipped = a.skipped + b.skipped;
    queries = a.queries + b.queries;
  }

type instruction_result = {
  subject : Concolic.Path.subject;
  paths : int; (* interpreter paths discovered *)
  curated : int; (* paths the tester could re-create and execute *)
  differences : int; (* paths that differ between engines *)
  unsupported : bool;
  explore_time : float; (* seconds of concolic exploration *)
  test_time : float; (* seconds running the generated tests *)
  diffs : Difftest.Difference.t list;
      (* witnesses deduplicated by root cause (Classify.dedupe_witnesses) *)
  static_findings : Verify.Finding.t list;
      (* the unit's static verdict, deduplicated across paths *)
  agreements : agreement_counts;
  validations : (Jit.Codegen.arch * validation_counts) list;
      (* per-ISA translation-validation tallies; [] unless ~validate *)
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

(* The test universes (§5.1): the native-method compiler is tested on the
   112 native methods; the three byte-code compilers on the byte-code
   set, minus the instructions the tester does not support (§4.3). *)
let native_subjects () =
  List.map (fun id -> Concolic.Path.Native id) Interpreter.Primitive_table.ids

let bytecode_subjects () =
  Bytecodes.Encoding.all_defined_opcodes ()
  |> List.filter (fun op -> op <> Bytecodes.Opcode.Push_this_context)
  |> List.map (fun op -> Concolic.Path.Bytecode op)

let subjects_for = function
  | Jit.Cogits.Native_method_compiler -> native_subjects ()
  | _ -> bytecode_subjects ()

(* --- the template-extracted corpus (ROADMAP item 3) ---

   [Corpus_extracted] swaps the byte-code compilers' test universe for
   [n] subjects generated by hole-filling templates extracted from the
   curated corpus (lib/templates).  The native compiler always keeps
   the 112 native methods: generated byte-code sequences have no native
   template to compile. *)

type corpus_spec = Corpus_curated | Corpus_extracted of { n : int; seed : int }

let corpus_label = function
  | Corpus_curated -> "curated"
  | Corpus_extracted { n; seed } -> Printf.sprintf "extracted:%d:seed:%d" n seed

let curated_universe () = bytecode_subjects () @ native_subjects ()

(* Builds are minutes at 10^5 subjects, so completed corpora are memoized
   per (seed, n); construction happens on the orchestrating domain before
   any unit fan-out. *)
let corpus_memo : (string, Templates.Corpus.t) Hashtbl.t = Hashtbl.create 4

let extracted_corpus ?jobs ~seed ~n () =
  let key = Printf.sprintf "%d|%d" seed n in
  match Hashtbl.find_opt corpus_memo key with
  | Some c -> c
  | None ->
      let c =
        Templates.Corpus.build ?jobs ~curated:(curated_universe ()) ~seed
          ~target:n ()
      in
      Hashtbl.replace corpus_memo key c;
      c

let corpus_subjects_for ?jobs ~corpus compiler =
  match (corpus, compiler) with
  | Corpus_curated, _ | _, Jit.Cogits.Native_method_compiler ->
      subjects_for compiler
  | Corpus_extracted { n; seed }, _ ->
      Templates.Corpus.subjects (extracted_corpus ?jobs ~seed ~n ())

(* Monotonic, not [Unix.gettimeofday]: phase walls and watchdog
   deadlines must survive NTP steps. *)
let time f =
  let t0 = Exec.Clock.now () in
  let r = f () in
  (r, Exec.Clock.elapsed t0)

(* The unit-verdict store tier: one entry per validated unit holding
   everything the unit derives from its exploration except the dynamic
   outcomes — the per-ISA and cross-ISA static findings, and every
   path's per-ISA validation after witness replay.  A warm unit still
   compiles and simulates every path on every ISA (the differential
   oracle always runs) but skips static analysis, the validator and the
   replays.  The key is the exploration's store key (subject, defects
   digest, iteration bound, lookahead) plus the compiler, the ISA list
   and the fault tag, so a mutant never reads a pristine entry.
   Budgeted units neither read nor write it: a budget degrades
   validations to Unknown depending on what earlier units spent, which
   is process state, not a function of the key. *)
type unit_entry = {
  ue_paths : int;
  ue_static : (Jit.Codegen.arch * Verify.Finding.t list) list;
  ue_cross : Verify.Finding.t list;
  ue_validations : (Jit.Codegen.arch * Difftest.Runner.validation) list list;
}

let unit_store_ns = "unit-verdict:1"

let unit_store_key ~max_iterations ~defects ~arches ~compiler subject =
  Printf.sprintf "%s|compiler:%s|arches:%s%s"
    (Concolic.Explorer.store_key subject defects max_iterations false)
    (Jit.Cogits.short_name compiler)
    (String.concat "+" (List.map Jit.Codegen.arch_name arches))
    (Jit.Fault.cache_tag ())

(* Explore one instruction and run its differential tests against one
   compiler on the given architectures.  A path counts as ONE difference
   if it differs on any architecture (the paper's per-path counting).
   With [validate], pass 5 (solver-backed translation validation) runs
   on every path x arch and its verdicts are tallied per ISA. *)
let test_instruction ?(max_iterations = 96) ?(validate = false) ?budget
    ~defects ~arches ~compiler subject : instruction_result =
  let exploration, explore_time =
    time (fun () -> Concolic.Explorer.explore ~max_iterations ~defects subject)
  in
  if exploration.unsupported then
    {
      subject;
      paths = 0;
      curated = 0;
      differences = 0;
      unsupported = true;
      explore_time;
      test_time = 0.0;
      diffs = [];
      static_findings = [];
      agreements = no_agreements;
      validations = [];
    }
  else begin
    let (static, cross_isa, results), test_time =
      time (fun () ->
          let entry_key =
            if validate && Option.is_none budget && Exec.Store.enabled () then
              Some
                (unit_store_key ~max_iterations ~defects ~arches ~compiler
                   subject)
            else None
          in
          let n_paths = List.length exploration.paths in
          let cached =
            Option.bind entry_key (fun key ->
                match
                  (Exec.Store.lookup ~ns:unit_store_ns ~key : unit_entry option)
                with
                | Some e when e.ue_paths = n_paths -> Some e
                | _ -> None)
          in
          match cached with
          | Some e ->
              ( e.ue_static,
                e.ue_cross,
                List.map2
                  (fun path validations ->
                    ( path,
                      Difftest.Runner.run_path_arches ~validations ~defects
                        ~compiler ~static:e.ue_static path ))
                  exploration.paths e.ue_validations )
          | None ->
              (* the unit's static analysis runs once for all its ISAs,
                 and each path compiles once and runs on every ISA *)
              let static, cross_isa =
                Difftest.Runner.static_verdicts ~defects ~compiler ~arches
                  subject
              in
              let results =
                List.map
                  (fun path ->
                    ( path,
                      Difftest.Runner.run_path_arches ~validate ?budget
                        ~defects ~compiler ~static path ))
                  exploration.paths
              in
              Option.iter
                (fun key ->
                  Exec.Store.record ~ns:unit_store_ns ~key
                    {
                      ue_paths = n_paths;
                      ue_static = static;
                      ue_cross = cross_isa;
                      ue_validations =
                        List.map
                          (fun (_, verdicts) ->
                            List.map
                              (fun (arch, (v : Difftest.Runner.verified), _) ->
                                (arch, Option.get v.validation))
                              verdicts)
                          results;
                    })
                entry_key;
              (static, cross_isa, results))
    in
    let outcomes_of verdicts =
      List.map (fun (_, (v : Difftest.Runner.verified), _) -> v.outcome) verdicts
    in
    let curated =
      List.length
        (List.filter
           (fun (_, verdicts) ->
             List.for_all
               (function Difftest.Runner.Curated_out _ -> false | _ -> true)
               (outcomes_of verdicts))
           results)
    in
    (* per-path differences (the paper's Table 2 counting) ... *)
    let path_diffs =
      List.filter_map
        (fun (_, verdicts) ->
          List.find_map
            (function Difftest.Runner.Diff d -> Some d | _ -> None)
            (outcomes_of verdicts))
        results
    in
    (* ... but the reported witness list is deduplicated by root cause
       (§5.3: "a defect only once") *)
    let diffs = Difftest.Classify.dedupe_witnesses path_diffs in
    let agreements =
      List.fold_left
        (fun acc (_, verdicts) ->
          List.fold_left
            (fun acc (_, (v : Difftest.Runner.verified), _) ->
              add_agreement acc v.agreement)
            acc verdicts)
        no_agreements results
    in
    let validations =
      if not validate then []
      else
        List.map
          (fun arch ->
            let counts =
              List.fold_left
                (fun acc (_, verdicts) ->
                  List.fold_left
                    (fun acc (a, (v : Difftest.Runner.verified), spent) ->
                      if a <> arch then acc
                      else
                        let acc = { acc with queries = acc.queries + spent } in
                        match v.validation with
                        | None -> acc
                        | Some vv -> add_validation acc vv)
                    acc verdicts)
                no_validations results
            in
            (arch, counts))
          arches
    in
    (* the per-ISA verdicts plus the cross-ISA differ's pair-labelled
       findings, deduplicated *)
    let static_findings =
      List.concat_map snd static @ cross_isa |> List.sort_uniq compare
    in
    {
      subject;
      paths = List.length exploration.paths;
      curated;
      differences = List.length path_diffs;
      unsupported = false;
      explore_time;
      test_time;
      diffs;
      static_findings;
      agreements;
      validations;
    }
  end

let units_for compilers =
  List.concat_map
    (fun compiler ->
      List.map (fun subject -> (compiler, subject)) (subjects_for compiler))
    compilers

(* --- the supervised unit engine ---

   Campaigns, validation sweeps and kill matrices all run their units
   through [supervise_units]: every unit goes through [Exec.Supervise],
   so a crash or an exhausted watchdog budget costs exactly that unit (a
   recorded verdict) instead of the run, and a journal makes the run
   resumable.  Units are dealt to domains (or worker processes) but
   outcomes merge by the unit's position in the stable units array, so
   every table or JSON report derived from them is identical at any
   [jobs] or [workers].  Each unit runs entirely on one domain, which is
   what makes the per-unit query counts ([with_query_count]) exact.

   Note on [budget]: in-process, the shared ref is decremented from
   several domains without synchronisation.  Lost decrements only let a
   few extra queries through before exhaustion, degrading some verdicts
   to [Unknown] — never changing a Proved/Refuted answer — so budgeted
   runs trade exact reproducibility for the cap, exactly as a budgeted
   sequential run already trades it across orderings.  Unbudgeted runs
   are fully deterministic. *)

type unit_report = {
  ur_key : string; (* "compiler|subject" (mutate: "op|compiler|subject|arch") *)
  ur_verdict : string; (* Exec.Supervise.verdict_name *)
  ur_detail : string;
  ur_attempts : int;
}

type supervised = {
  sup_campaign : t;
  sup_units : unit_report list; (* every unit, stable input order *)
  sup_by_compiler : (Jit.Cogits.compiler * Exec.Supervise.counts) list;
  sup_totals : Exec.Supervise.counts;
  sup_chaos : (int * string * string) list;
      (* injected faults: unit index, unit key, kind name *)
  sup_interrupted : bool; (* SIGINT/SIGTERM cut the run short *)
  sup_process : Exec.Procpool.stats option; (* Some iff run with ~workers *)
}

let incidents reports = List.filter (fun u -> u.ur_verdict <> "ok") reports
let sup_incidents s = incidents s.sup_units

let unit_key (compiler, subject) =
  Jit.Cogits.short_name compiler ^ "|" ^ Concolic.Path.subject_name subject

(* Configuration fingerprint for journals: resuming under different
   defects/arches/iterations would merge incomparable results, so the
   loader rejects a journal whose fingerprint differs. *)
let journal_config ~mode ~defects ~arches ~max_iterations ~validate =
  Printf.sprintf "%s|defects:%d|arches:%s|iters:%d|validate:%b" mode
    (Hashtbl.hash defects)
    (String.concat "," (List.map Jit.Codegen.arch_name arches))
    max_iterations validate

let report_of_outcome key (o : _ Exec.Supervise.outcome) =
  {
    ur_key = key;
    ur_verdict = Exec.Supervise.verdict_name o.verdict;
    ur_detail = Exec.Supervise.verdict_detail o.verdict;
    ur_attempts = o.attempts;
  }

(* --- multi-process execution (Exec.Procpool) ---

   With [workers], the flat unit list is sharded across disposable
   worker processes — the running binary re-entered in a hidden
   `worker' argv mode — instead of domains.  The three stages the
   in-process path fuses are explicit here: unit production
   ([units_for] / [select_units] builds the same stable array), the
   {!Exec.Unit_wire} frames that cross the pipes, and per-unit result
   records merged back by stable index, so aggregate output is
   byte-identical at any worker count. *)

type worker_task = Wt_campaign | Wt_mutate of { pristine : bool }

(* Everything a worker needs to reproduce the coordinator's per-unit
   behaviour, shipped once in the Hello frame.  Plain data only:
   [budget] travels as its integer value (each worker gets its own
   ref — the cap becomes per-worker, the documented difference from
   the racy shared ref of in-process runs), and the chaos plan as its
   seed and target list. *)
type worker_config = {
  wc_task : worker_task;
  wc_defects : Interpreter.Defects.t;
  wc_arches : Jit.Codegen.arch list;
  wc_max_iterations : int;
  wc_validate : bool;
  wc_budget : int option;
  wc_policy : Exec.Supervise.policy;
  wc_chaos : Exec.Chaos.plan option;
  wc_store : string option; (* shared read-write Exec.Store root *)
}

let chaos_of = function None -> fun _ -> None | Some p -> Exec.Chaos.kind_of p

let outcome_of_pool decode (p : Exec.Procpool.outcome) :
    _ Exec.Supervise.outcome =
  match p with
  | Exec.Procpool.P_result (Exec.Unit_wire.W_ok payload, a) ->
      { Exec.Supervise.verdict = Exec.Supervise.Ok (decode payload); attempts = a }
  | Exec.Procpool.P_result (Exec.Unit_wire.W_timed_out reason, a) ->
      { Exec.Supervise.verdict = Exec.Supervise.Timed_out reason; attempts = a }
  | Exec.Procpool.P_result (Exec.Unit_wire.W_crashed { exn; backtrace }, a) ->
      { Exec.Supervise.verdict = Exec.Supervise.Unit_crashed { exn; backtrace };
        attempts = a }
  | Exec.Procpool.P_died { status; attempts } ->
      { Exec.Supervise.verdict = Exec.Supervise.Worker_died status; attempts }
  | Exec.Procpool.P_not_run ->
      { Exec.Supervise.verdict = Exec.Supervise.Quarantined "interrupted"; attempts = 0 }

(* Shard the units without a precomputed (resumed) outcome across the
   pool, journal each result as it lands, merge by stable index, then
   apply exactly the in-process deterministic circuit breaker. *)
let pool_run ~workers ~(policy : Exec.Supervise.policy) ~worker_deadline_s
    ~hello ~key_of ~wire_of ~decode ~precomputed ~record ~group units =
  let n = Array.length units in
  let outcomes =
    Array.init n (fun i ->
        match precomputed with None -> None | Some p -> p i)
  in
  let todo =
    Array.of_list
      (List.filter (fun i -> Option.is_none outcomes.(i)) (List.init n Fun.id))
  in
  let wire =
    Array.map
      (fun i ->
        {
          Exec.Unit_wire.w_index = i;
          w_attempt = 0;
          w_key = key_of units.(i);
          w_payload = wire_of units.(i);
        })
      todo
  in
  let on_final pos p =
    let i = todo.(pos) in
    let o = outcome_of_pool (decode units.(i)) p in
    outcomes.(i) <- Some o;
    match (p, record) with
    | Exec.Procpool.P_not_run, _ | _, None -> () (* not-run: never journaled *)
    | _, Some r -> r i o
  in
  let pool_outs, stats =
    Exec.Procpool.run ~workers ~deadline_s:worker_deadline_s
      ~retries:policy.Exec.Supervise.retries
      ~breaker_k:policy.Exec.Supervise.breaker_k ~hello ~on_final wire
  in
  (* P_not_run units never reach [on_final]; fill them here *)
  Array.iteri
    (fun pos p ->
      let i = todo.(pos) in
      if Option.is_none outcomes.(i) then
        outcomes.(i) <- Some (outcome_of_pool (decode units.(i)) p))
    pool_outs;
  let outcomes =
    Array.map (function Some o -> o | None -> assert false) outcomes
  in
  Exec.Supervise.breaker_postpass ~breaker_k:policy.Exec.Supervise.breaker_k
    ~group units outcomes;
  (outcomes, stats)

(* The one skeleton behind [run_supervised] and [kill_matrix]: resume
   from a journal, journal each outcome as it lands, and run [body] over
   [units] in-process or in worker processes.  [encode]/[decode] are the
   [Ok] payload codec, shared by the journal and the wire; [wire_of] is
   the unit's wire payload, which the worker for [task] decodes.  Ok
   results are only encoded for a journal or a pipe — an in-process run
   without a journal never serialises them.  Returns the outcomes in
   input order, the pool statistics ([Some] iff [workers]) and the
   chaos plan; the outcomes come back as unit reports too. *)
let supervise_units ?jobs ?workers ~worker_deadline_s ~policy ?chaos ?journal
    ~journal_sync ?resume ~mode ~task ~defects ~arches ~max_iterations
    ~validate ?budget ~key_of ~wire_of ~encode ~decode ~group body units =
  let n = Array.length units in
  let config = journal_config ~mode ~defects ~arches ~max_iterations ~validate in
  (* process-isolated runs draw faults from the process-level kinds
     (worker kills, hangs, pipe garbage); in-process runs keep the
     original in-process kinds *)
  let plan =
    Option.map
      (fun (seed, faults) ->
        let kinds = Option.map (fun _ -> Exec.Chaos.process_kinds) workers in
        Exec.Chaos.plan ?kinds ~seed ~faults ~units:n ())
      chaos
  in
  (* [load] already dropped entries whose payload fails its checksum; an
     entry that verifies but does not decode is recomputed as well *)
  let precomputed =
    Option.map
      (fun file ->
        let tbl = Exec.Journal.load ~config file in
        fun i ->
          Option.bind (Hashtbl.find_opt tbl (key_of units.(i))) (fun e ->
              try
                Some (Exec.Journal.outcome_of_entry ~decode:(decode units.(i)) e)
              with _ -> None))
      resume
  in
  let sink = Option.map (Exec.Journal.open_append ~config) journal in
  let record =
    Option.map
      (fun oc i o ->
        Exec.Journal.append ~sync:journal_sync oc
          (Exec.Journal.entry_of_outcome ~key:(key_of units.(i)) ~encode o))
      sink
  in
  let outcomes, process =
    Fun.protect
      ~finally:(fun () -> Option.iter close_out_noerr sink)
      (fun () ->
        match workers with
        | None ->
            ( Exec.Supervise.run ?jobs ~policy ~chaos:(chaos_of plan) ?precomputed
                ?record ~group body units,
              None )
        | Some w ->
            let hello =
              Marshal.to_string
                {
                  wc_task = task;
                  wc_defects = defects;
                  wc_arches = arches;
                  wc_max_iterations = max_iterations;
                  wc_validate = validate;
                  wc_budget = Option.map (fun r -> !r) budget;
                  wc_policy = policy;
                  wc_chaos = plan;
                  wc_store = Option.map Exec.Store.dir (Exec.Store.active ());
                }
                []
            in
            let outcomes, stats =
              pool_run ~workers:w ~policy ~worker_deadline_s ~hello ~key_of
                ~wire_of ~decode ~precomputed ~record ~group units
            in
            (outcomes, Some stats))
  in
  let reports =
    List.init n (fun i -> report_of_outcome (key_of units.(i)) outcomes.(i))
  in
  (outcomes, reports, process, plan)

(* The results of the units that came back [Ok], in input order. *)
let ok_results outcomes =
  List.filter_map
    (fun (o : _ Exec.Supervise.outcome) ->
      match o.verdict with Exec.Supervise.Ok r -> Some r | _ -> None)
    outcomes

(* A campaign unit's [Ok] payload, in the journal and on the wire. *)
let encode_result (r : instruction_result) = Marshal.to_string r []

let run_supervised ?jobs ?workers ?(worker_deadline_s = 30.0)
    ?(max_iterations = 96) ?(validate = false) ?budget
    ?(policy = Exec.Supervise.default_policy) ?chaos ?journal
    ?(journal_sync = false) ?resume
    ?(defects = Interpreter.Defects.paper) ?(arches = Jit.Codegen.all_arches)
    ?(compilers = Jit.Cogits.all) ?(corpus = Corpus_curated)
    ?units:units_override () : supervised =
  let units =
    Array.of_list
      (match units_override with
      | Some u -> u
      | None ->
          List.concat_map
            (fun compiler ->
              List.map
                (fun s -> (compiler, s))
                (corpus_subjects_for ?jobs ~corpus compiler))
            compilers)
  in
  (* the curated mode string stays exactly "campaign" so pre-corpus
     journals keep resuming; extracted runs are incomparable and get
     their own tag *)
  let mode =
    match corpus with
    | Corpus_curated -> "campaign"
    | c -> "campaign|corpus:" ^ corpus_label c
  in
  let outcomes, reports, process, plan =
    supervise_units ?jobs ?workers ~worker_deadline_s ~policy ?chaos ?journal
      ~journal_sync ?resume ~mode ~task:Wt_campaign ~defects ~arches
      ~max_iterations ~validate ?budget ~key_of:unit_key
      ~wire_of:(fun u ->
        Marshal.to_string (u : Jit.Cogits.compiler * Concolic.Path.subject) [])
      ~encode:encode_result
      ~decode:(fun _ payload -> (Marshal.from_string payload 0 : instruction_result))
      ~group:(fun (c, _) -> Jit.Cogits.short_name c)
      (fun (compiler, subject) ->
        test_instruction ~max_iterations ~validate ?budget ~defects ~arches
          ~compiler subject)
      units
  in
  let outcomes_of compiler =
    List.filteri (fun i _ -> fst units.(i) = compiler) (Array.to_list outcomes)
  in
  {
    sup_campaign =
      {
        defects;
        arches;
        results =
          List.map
            (fun compiler ->
              { compiler; instructions = ok_results (outcomes_of compiler) })
            compilers;
      };
    sup_units = reports;
    sup_by_compiler =
      List.map
        (fun compiler ->
          (compiler, Exec.Supervise.tally (Array.of_list (outcomes_of compiler))))
        compilers;
    sup_totals = Exec.Supervise.tally outcomes;
    sup_chaos =
      (match plan with
      | None -> []
      | Some p ->
          List.map
            (fun (i, k) -> (i, unit_key units.(i), Exec.Chaos.kind_name k))
            p.Exec.Chaos.targets);
    sup_interrupted = Exec.Interrupt.requested ();
    sup_process = process;
  }

(* The plain campaign: a supervised run whose every unit must come back
   [Ok] — a unit lost to a crash or a watchdog fails the whole call. *)
let run ?jobs ?max_iterations ?validate ?budget ?defects ?arches ?compilers () : t =
  let s =
    run_supervised ?jobs ?max_iterations ?validate ?budget ?defects ?arches
      ?compilers ()
  in
  match sup_incidents s with
  | [] -> s.sup_campaign
  | u :: _ ->
      failwith
        (Printf.sprintf "campaign unit %s: %s %s" u.ur_key u.ur_verdict u.ur_detail)

(* --- aggregations --- *)

let tested_instructions cr =
  List.length (List.filter (fun r -> not r.unsupported) cr.instructions)

let total_paths cr =
  List.fold_left (fun acc r -> acc + r.paths) 0 cr.instructions

let total_curated cr =
  List.fold_left (fun acc r -> acc + r.curated) 0 cr.instructions

let total_differences cr =
  List.fold_left (fun acc r -> acc + r.differences) 0 cr.instructions

let all_diffs t =
  List.concat_map (fun cr -> List.concat_map (fun r -> r.diffs) cr.instructions) t.results

(* Stable ordering for cause tallies: the hash tables accumulate in
   whatever order iteration finds the buckets, so every tally list is
   sorted by its (family, cause) key before it escapes — run-to-run and
   [-j]-independent output depends on it. *)
let by_cause_key (f1, c1, _) (f2, c2, _) = compare (f1, c1) (f2, c2)

(* Root causes, counted once per cause (paper §5.3). *)
let causes t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (d : Difftest.Difference.t) ->
      let key = (d.family, d.cause) in
      Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0))
    (all_diffs t);
  Hashtbl.fold (fun (family, cause) n acc -> (family, cause, n) :: acc) tbl []
  |> List.sort by_cause_key

let causes_by_family t =
  List.map
    (fun family ->
      let n =
        List.length (List.filter (fun (f, _, _) -> f = family) (causes t))
      in
      (family, n))
    Difftest.Difference.all_families

(* --- static-verifier aggregations --- *)

let agreement_totals t =
  List.fold_left
    (fun acc cr ->
      List.fold_left
        (fun acc r -> sum_agreements acc r.agreements)
        acc cr.instructions)
    no_agreements t.results

let all_static_findings t =
  List.concat_map
    (fun cr -> List.concat_map (fun r -> r.static_findings) cr.instructions)
    t.results

(* --- cross-ISA divergence aggregation ---

   The static cross-ISA differ labels each finding with its ISA pair
   ("x86+rv32") in the arch field; tally them per (front-end x pair),
   with an explicit zero row for every pair of the campaign's arch set
   so the table shape is stable. *)

let arch_pair_labels (arches : Jit.Codegen.arch list) : string list =
  let names = List.map Jit.Codegen.arch_name arches in
  let rec go = function
    | [] -> []
    | a :: rest -> List.map (fun b -> a ^ "+" ^ b) rest @ go rest
  in
  go names

let cross_isa_divergences t : (string * (string * int) list) list =
  let pairs = arch_pair_labels t.arches in
  List.map
    (fun cr ->
      let short = Jit.Cogits.short_name cr.compiler in
      let count pair =
        List.fold_left
          (fun acc r ->
            acc
            + List.length
                (List.filter
                   (fun (f : Verify.Finding.t) ->
                     f.arch = pair
                     && String.length f.cause >= 9
                     && String.sub f.cause 0 9 = "cross-isa")
                   r.static_findings))
          0 cr.instructions
      in
      (short, List.map (fun p -> (p, count p)) pairs))
    t.results

(* --- translation-validation aggregations --- *)

(* Per-ISA validation tallies for one compiler, summed over its
   instructions (the `vmtest validate' matrix rows). *)
let validation_by_arch cr =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun r ->
      List.iter
        (fun (arch, counts) ->
          match Hashtbl.find_opt tbl arch with
          | None -> Hashtbl.replace tbl arch counts
          | Some prev -> Hashtbl.replace tbl arch (sum_validations prev counts))
        r.validations)
    cr.instructions;
  (* rows in the canonical ISA order, not first-seen order *)
  List.filter_map
    (fun arch ->
      Option.map (fun c -> (arch, c)) (Hashtbl.find_opt tbl arch))
    Jit.Codegen.all_arches

let validation_totals_compiler cr =
  List.fold_left
    (fun acc (_, counts) -> sum_validations acc counts)
    no_validations (validation_by_arch cr)

let validation_totals t =
  List.fold_left
    (fun acc cr -> sum_validations acc (validation_totals_compiler cr))
    no_validations t.results

(* --- mutation kill matrix (oracle-strength evaluation) ---

   Every scheduled unit is one (operator x compiler x subject x ISA)
   mutant.  The unit runs twice through the full oracle stack — once
   pristine (memoized across mutants sharing the unit), once with the
   fault armed — and the first oracle layer whose verdict moves records
   the kill: static verify, then translation validate, then the
   differential run.  A mutant no layer notices survives. *)

type kill = Killed_static | Killed_validate | Killed_difftest | Survived

let kill_name = function
  | Killed_static -> "static"
  | Killed_validate -> "validate"
  | Killed_difftest -> "difftest"
  | Survived -> "survived"

(* What each oracle layer concluded about one unit, reduced to
   comparable form.  Query counts and times are deliberately absent:
   they vary with cache warmth, not with the compiled code. *)
type oracle_snapshot = {
  o_static : string list; (* rendered findings, sorted *)
  o_validation : (int * int * int * int * int * int) list;
      (* per requested ISA: proved/refuted/missing/spurious/unknown/skipped *)
  o_differences : int; (* per-path difference count *)
  o_diff_causes : (string * string) list; (* (family, cause), sorted *)
}

let snapshot_of (r : instruction_result) : oracle_snapshot =
  {
    o_static =
      List.sort_uniq compare (List.map Verify.Finding.to_string r.static_findings);
    o_validation =
      List.map
        (fun (_, c) ->
          (c.proved, c.refuted, c.missing, c.spurious, c.unknown, c.skipped))
        r.validations;
    o_differences = r.differences;
    o_diff_causes =
      List.sort_uniq compare
        (List.map
           (fun (d : Difftest.Difference.t) ->
             (Difftest.Difference.family_name d.family, d.cause))
           r.diffs);
  }

(* Kill attribution in oracle order: the cheapest layer that notices the
   fault gets the credit, mirroring how a CI pipeline would encounter
   them. *)
let decide ~(baseline : oracle_snapshot) ~(mutant : oracle_snapshot) : kill =
  if baseline.o_static <> mutant.o_static then Killed_static
  else if baseline.o_validation <> mutant.o_validation then Killed_validate
  else if
    baseline.o_differences <> mutant.o_differences
    || baseline.o_diff_causes <> mutant.o_diff_causes
  then Killed_difftest
  else Survived

(* The pristine snapshot per (subject, compiler, ISA, defects) unit,
   computed fault-free and shared across every mutant of that unit; the
   memo's in-flight dedup keeps it to one computation under [-j]. *)
let baseline_memo : (string, oracle_snapshot) Exec.Memo.t =
  Exec.Memo.create ()

let reset_kill_cache () = Exec.Memo.clear baseline_memo

let baseline_snapshot ~max_iterations ~defects ~compiler ~arch subject =
  let key =
    Printf.sprintf "%s|%s|%s|%d|%d"
      (Concolic.Path.subject_name subject)
      (Jit.Cogits.short_name compiler)
      (Jit.Codegen.arch_name arch)
      (Hashtbl.hash defects) max_iterations
  in
  Exec.Memo.find_or_add baseline_memo key (fun _ ->
      snapshot_of
        (test_instruction ~max_iterations ~validate:true ~defects
           ~arches:[ arch ] ~compiler subject))

type mutant_outcome = {
  mo_op : Mutate.operator;
  mo_compiler : Jit.Cogits.compiler;
  mo_subject : Concolic.Path.subject;
  mo_arch : Jit.Codegen.arch;
  mo_fired : bool; (* did the planted rewrite actually apply? *)
  mo_kill : kill;
}

type kill_matrix = {
  km_defects : Interpreter.Defects.t;
  km_pristine : bool;
  km_outcomes : mutant_outcome list; (* units that completed [Ok] *)
  km_robustness : Exec.Supervise.counts;
  km_incidents : unit_report list; (* non-ok units, stable order *)
  km_interrupted : bool;
  km_process : Exec.Procpool.stats option; (* Some iff run with ~workers *)
}

let kill_of_name = function
  | "static" -> Killed_static
  | "validate" -> Killed_validate
  | "difftest" -> Killed_difftest
  | "survived" -> Survived
  | s -> failwith ("unknown kill name " ^ s)

(* The journal payload of a completed mutant — also the wire payload a
   worker process reports, so both decoders share one format. *)
let mutate_result_payload mo =
  Printf.sprintf "%b|%s" mo.mo_fired (kill_name mo.mo_kill)

(* [Mutate.operator] holds closures, so the payload carries only the
   decided (fired, kill) pair; the rest of the record is rebuilt from
   the unit tuple. *)
let mutant_of_payload (op, compiler, subject, arch) payload =
  match String.index_opt payload '|' with
  | Some cut ->
      {
        mo_op = op;
        mo_compiler = compiler;
        mo_subject = subject;
        mo_arch = arch;
        mo_fired = bool_of_string (String.sub payload 0 cut);
        mo_kill =
          kill_of_name
            (String.sub payload (cut + 1) (String.length payload - cut - 1));
      }
  | None -> failwith "malformed mutate payload"

(* Handcrafted register-pressure sequences: deep enough operand stacks
   to force spills out of the allocating front-ends, which no curated
   single-opcode unit and few short generated sequences do.  They keep
   the spill operators ([ir-dead-spill]) schedulable. *)
let stress_subjects () : Concolic.Path.subject list =
  let open Bytecodes.Opcode in
  let rec pushes n = if n = 0 then [] else Push_one :: pushes (n - 1) in
  let rec adds n =
    if n = 0 then [] else Arith_special Sel_add :: adds (n - 1)
  in
  [
    Concolic.Path.Bytecode_seq (pushes 8 @ adds 7);
    Concolic.Path.Bytecode_seq
      (pushes 6 @ [ Dup; Swap ] @ adds 6 @ [ Pop; Push_two ]);
  ]

(* The candidate pool an operator draws its units from: the compiler's
   curated universe, then the stress sequences, then the generated
   methods — a stable order, so selection is deterministic. *)
let candidate_subjects ~gen_subjects compiler =
  match compiler with
  | Jit.Cogits.Native_method_compiler -> native_subjects ()
  | _ -> bytecode_subjects () @ stress_subjects () @ gen_subjects

(* Pick the first [per_operator] subjects per (operator, compiler) whose
   fault fires under compilation AND whose exploration the concolic
   engine supports — a mutant on an unexplorable unit could only ever be
   killed statically, which would understate the dynamic layers — AND
   which are [clean]: free of pre-existing fault-free divergence.
   {!Difftest.Classify.classify} brands every difference
   [Injected_fault] while a fault targeting the compiler is merely
   armed, so a subject with a genuine interpreter/JIT difference would
   flip cause families under an inert mutant and register a difftest
   kill the mutant never earned.  When the primary pool runs short,
   [fallback_for] (the lazily built template-extracted corpus) is
   consulted for the remainder — the fallback is never forced while
   every cell fills from the primary pool, so existing curated runs are
   unchanged. *)
let select_units ~defects ~max_iterations ~per_operator ~operators ~arches
    ~pool_for ~fallback_for ~clean () =
  List.concat_map
    (fun (op : Mutate.operator) ->
      List.concat_map
        (fun compiler ->
          let supported subject =
            let e = Concolic.Explorer.explore ~max_iterations ~defects subject in
            (not e.Concolic.Explorer.unsupported) && e.Concolic.Explorer.paths <> []
          in
          (* [acc] is the reversed picks so far; carried into the
             fallback round both as result prefix and as dedup set *)
          let rec take acc n = function
            | [] -> (acc, n)
            | s :: rest ->
                if n = 0 then (acc, 0)
                else if
                  (not (List.mem s acc))
                  && Mutate.applicable ~defects ~compiler op s
                  && supported s
                  && clean compiler s
                then take (s :: acc) (n - 1) rest
                else take acc n rest
          in
          let picked, missing = take [] per_operator (pool_for compiler) in
          let picked, _ =
            if missing = 0 then (picked, 0)
            else take picked missing (fallback_for compiler)
          in
          List.rev picked
          |> List.concat_map (fun s ->
                 List.map (fun arch -> (op, compiler, s, arch)) arches))
        Jit.Cogits.all)
    operators

(* One mutant unit, full oracle stack: the per-unit body shared by the
   in-process supervised path and the worker processes. *)
let run_mutant ~max_iterations ~defects ~pristine (op, compiler, subject, arch)
    : mutant_outcome =
  let baseline =
    baseline_snapshot ~max_iterations ~defects ~compiler ~arch subject
  in
  let run_op = if pristine then Mutate.pristine else op in
  let snap, fired =
    Jit.Fault.with_fault
      ~target:(Jit.Cogits.short_name compiler)
      run_op
      (fun () ->
        let s =
          snapshot_of
            (test_instruction ~max_iterations ~validate:true ~defects
               ~arches:[ arch ] ~compiler subject)
        in
        (* a fully warm oracle stack may serve every layer without
           compiling, under-reporting [fired]; the probe compile is
           never cached, so firing stays a property of the unit, not of
           cache temperature *)
        Mutate.probe ~defects ~compiler ~arch subject;
        s)
  in
  {
    mo_op = op;
    mo_compiler = compiler;
    mo_subject = subject;
    mo_arch = arch;
    mo_fired = fired;
    mo_kill = decide ~baseline ~mutant:snap;
  }

(* The kill-matrix campaign.  [pristine] swaps every scheduled operator
   for the identity mutant {!Mutate.pristine}: the same units run under
   an armed-but-inert fault (fresh fault-tagged caches, full oracle
   stack) and must all come back [Survived] — the zero-false-kill
   gate. *)
let kill_matrix ?jobs ?workers ?(worker_deadline_s = 30.0)
    ?(max_iterations = 96) ?(per_operator = 2) ?(gen = 6)
    ?(seed = 42) ?(pristine = false)
    ?(defects = Interpreter.Defects.pristine)
    ?(arches = Jit.Codegen.all_arches) ?(operators = Mutate.all)
    ?(corpus = Corpus_curated) ?(policy = Exec.Supervise.default_policy)
    ?journal ?(journal_sync = false) ?resume () : kill_matrix =
  let gen_subjects = Mutate.Gen_method.subjects ~seed gen in
  let pool_for compiler =
    match (corpus, compiler) with
    | Corpus_curated, _ -> candidate_subjects ~gen_subjects compiler
    | Corpus_extracted _, Jit.Cogits.Native_method_compiler ->
        native_subjects ()
    | Corpus_extracted { n; seed = cseed }, _ ->
        (* completion-first order: first-fit lands on subjects whose
           compared final state can expose the planted fault *)
        Templates.Corpus.mutation_subjects
          (extracted_corpus ?jobs ~seed:cseed ~n ())
  in
  (* curated-mode fallback: a small extracted corpus from the same seed,
     built only if some (operator, compiler) cell comes up short *)
  let fallback = lazy (Templates.Corpus.subjects (extracted_corpus ?jobs ~seed ~n:48 ())) in
  let fallback_for compiler =
    match (corpus, compiler) with
    | Corpus_extracted _, _ | _, Jit.Cogits.Native_method_compiler -> []
    | Corpus_curated, _ -> Lazy.force fallback
  in
  (* baseline-clean: zero fault-free differences on every scheduled ISA.
     The memoised baselines are the very ones each selected unit's run
     reuses, so the check is free for accepted candidates. *)
  let clean compiler s =
    List.for_all
      (fun arch ->
        (baseline_snapshot ~max_iterations ~defects ~compiler ~arch s)
          .o_differences = 0)
      arches
  in
  let units =
    Array.of_list
      (select_units ~defects ~max_iterations ~per_operator ~operators ~arches
         ~pool_for ~fallback_for ~clean ())
  in
  let mutant_key (op, compiler, subject, arch) =
    Printf.sprintf "%s|%s|%s" op.Jit.Fault.id
      (unit_key (compiler, subject))
      (Jit.Codegen.arch_name arch)
  in
  let mode =
    Printf.sprintf "mutate|pristine:%b|per:%d|gen:%d|seed:%d%s" pristine
      per_operator gen seed
      (match corpus with
      | Corpus_curated -> "" (* pre-corpus journals keep resuming *)
      | c -> "|corpus:" ^ corpus_label c)
  in
  let outcomes, reports, process, _ =
    supervise_units ?jobs ?workers ~worker_deadline_s ~policy ?journal
      ~journal_sync ?resume ~mode ~task:(Wt_mutate { pristine }) ~defects
      ~arches ~max_iterations ~validate:true ~key_of:mutant_key
      ~wire_of:(fun (op, compiler, subject, arch) ->
        (* the wire unit ships the operator id; the worker resolves it
           via [Mutate.find] against its own operator table *)
        Marshal.to_string
          ( (op.Jit.Fault.id, compiler, subject, arch)
            : string * Jit.Cogits.compiler * Concolic.Path.subject * Jit.Codegen.arch )
          [])
      ~encode:mutate_result_payload ~decode:mutant_of_payload
      ~group:(fun (_, compiler, _, _) -> Jit.Cogits.short_name compiler)
      (run_mutant ~max_iterations ~defects ~pristine)
      units
  in
  {
    km_defects = defects;
    km_pristine = pristine;
    km_outcomes = ok_results (Array.to_list outcomes);
    km_robustness = Exec.Supervise.tally outcomes;
    km_incidents = incidents reports;
    km_interrupted = Exec.Interrupt.requested ();
    km_process = process;
  }

(* --- kill-matrix aggregations --- *)

type kill_row = {
  kr_label : string; (* operator id, layer name, or "total" *)
  kr_layer : string;
  kr_units : int;
  kr_static : int;
  kr_validate : int;
  kr_difftest : int;
  kr_survived : int;
}

let kill_rate (r : kill_row) : float =
  if r.kr_units = 0 then 0.0
  else
    float_of_int (r.kr_static + r.kr_validate + r.kr_difftest)
    /. float_of_int r.kr_units

let row_of ~label ~layer outcomes =
  let count k = List.length (List.filter (fun o -> o.mo_kill = k) outcomes) in
  {
    kr_label = label;
    kr_layer = layer;
    kr_units = List.length outcomes;
    kr_static = count Killed_static;
    kr_validate = count Killed_validate;
    kr_difftest = count Killed_difftest;
    kr_survived = count Survived;
  }

(* One row per operator, in {!Mutate.all} order, operators with no
   scheduled unit omitted. *)
let kills_by_operator (m : kill_matrix) : kill_row list =
  List.filter_map
    (fun (op : Mutate.operator) ->
      match List.filter (fun o -> o.mo_op.Jit.Fault.id = op.id) m.km_outcomes with
      | [] -> None
      | outcomes ->
          Some
            (row_of ~label:op.id
               ~layer:(Jit.Fault.layer_name op.layer)
               outcomes))
    Mutate.all

let kills_by_layer (m : kill_matrix) : kill_row list =
  List.filter_map
    (fun layer ->
      match
        List.filter
          (fun o -> o.mo_op.Jit.Fault.layer = layer)
          m.km_outcomes
      with
      | [] -> None
      | outcomes ->
          let name = Jit.Fault.layer_name layer in
          Some (row_of ~label:name ~layer:name outcomes))
    [ Jit.Fault.L_template; Jit.Fault.L_ir; Jit.Fault.L_machine ]

let kill_totals (m : kill_matrix) : kill_row =
  row_of ~label:"total" ~layer:"-" m.km_outcomes

let surviving_mutants (m : kill_matrix) : mutant_outcome list =
  List.filter (fun o -> o.mo_kill = Survived) m.km_outcomes

let false_kills (m : kill_matrix) : mutant_outcome list =
  if not m.km_pristine then []
  else List.filter (fun o -> o.mo_kill <> Survived) m.km_outcomes

(* Static root causes, counted once per cause — the static analogue of
   [causes]. *)
let static_causes t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (f : Verify.Finding.t) ->
      let key = (f.family, f.cause) in
      Hashtbl.replace tbl key
        (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0))
    (all_static_findings t);
  Hashtbl.fold (fun (family, cause) n acc -> (family, cause, n) :: acc) tbl []
  |> List.sort by_cause_key

(* Findings per static pass — how much of the static oracle surface each
   pass (bytecode / ir / machine / abstract / differ) contributes. *)
let static_pass_counts t : (string * int) list =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (f : Verify.Finding.t) ->
      let key = Verify.Finding.pass_name f.pass in
      Hashtbl.replace tbl key
        (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0))
    (all_static_findings t);
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [] |> List.sort compare

(* --- worker-process entry point ---

   The binaries intercept a hidden `worker' argv mode before their real
   CLI and land here.  The handler runs [Supervise.run]'s own retry
   loop ([run_attempts]), continuing the attempt count from the
   coordinator's deal count so death re-deals and in-worker retries
   share one budget — so a campaign's verdicts and attempt counts match
   in-process runs byte for byte. *)

let worker_main () : unit =
  Exec.Procpool.worker_main (fun hello ->
      let wc = (Marshal.from_string hello 0 : worker_config) in
      Exec.Store.activate_opt wc.wc_store;
      let budget = Option.map ref wc.wc_budget in
      let unit_body : string -> string =
        match wc.wc_task with
        | Wt_campaign ->
            fun payload ->
              let compiler, subject =
                (Marshal.from_string payload 0
                  : Jit.Cogits.compiler * Concolic.Path.subject)
              in
              encode_result
                (test_instruction ~max_iterations:wc.wc_max_iterations
                   ~validate:wc.wc_validate ?budget ~defects:wc.wc_defects
                   ~arches:wc.wc_arches ~compiler subject)
        | Wt_mutate { pristine } ->
            fun payload ->
              let op_id, compiler, subject, arch =
                (Marshal.from_string payload 0
                  : string
                    * Jit.Cogits.compiler
                    * Concolic.Path.subject
                    * Jit.Codegen.arch)
              in
              let op =
                match Mutate.find op_id with
                | Some op -> op
                | None -> failwith ("unknown mutation operator " ^ op_id)
              in
              mutate_result_payload
                (run_mutant ~max_iterations:wc.wc_max_iterations
                   ~defects:wc.wc_defects ~pristine
                   (op, compiler, subject, arch))
      in
      fun (u : Exec.Unit_wire.t) ->
        let idx = u.Exec.Unit_wire.w_index in
        let o =
          Exec.Supervise.run_attempts ~policy:wc.wc_policy ~idx
            ~first:(max 1 u.Exec.Unit_wire.w_attempt)
            ~chaos:(chaos_of wc.wc_chaos idx)
            (fun () -> unit_body u.Exec.Unit_wire.w_payload)
        in
        match o.verdict with
        | Exec.Supervise.Ok payload -> (Exec.Unit_wire.W_ok payload, o.attempts)
        | Exec.Supervise.Timed_out reason ->
            (Exec.Unit_wire.W_timed_out reason, o.attempts)
        | Exec.Supervise.Unit_crashed { exn; backtrace } ->
            (Exec.Unit_wire.W_crashed { exn; backtrace }, o.attempts)
        | Exec.Supervise.Worker_died _ | Exec.Supervise.Quarantined _ ->
            assert false (* [run_attempts] never decides these *))
