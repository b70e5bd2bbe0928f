(* Benchmark and reproduction harness.

   One Bechamel micro-benchmark per paper table/figure, plus the full
   campaign that regenerates each table's rows and each figure's series:

     dune exec bench/main.exe            # everything (default)
     dune exec bench/main.exe -- table1  # Table 1 (add byte-code paths)
     dune exec bench/main.exe -- table2  # Table 2 (per-compiler results)
     dune exec bench/main.exe -- table3  # Table 3 (defect families)
     dune exec bench/main.exe -- fig5    # paths per instruction
     dune exec bench/main.exe -- fig6    # concolic exploration time
     dune exec bench/main.exe -- fig7    # test execution time
     dune exec bench/main.exe -- micro   # Bechamel micro-benchmarks
     dune exec bench/main.exe -- sequences        # future-work extension
     dune exec bench/main.exe -- ablate-semantic  # §3.3 ablation
     dune exec bench/main.exe -- perf [--json LABEL] [-j N] [--quick]
                                         # perf trajectory -> BENCH_<LABEL>.json
     dune exec bench/main.exe -- mutate [-j N] [--quick]
                                         # timed mutation kill matrix
     dune exec bench/main.exe -- verify [--json LABEL] [--quick]
                                         # abstract pass per-unit timing *)

open Bechamel
open Toolkit

let defects = Interpreter.Defects.paper
let add_bc = Concolic.Path.Bytecode (Bytecodes.Opcode.Arith_special Bytecodes.Opcode.Sel_add)

(* Memoised campaign: the tables and figures all read from one run. *)
let campaign = lazy (Ijdt_core.Campaign.run ~defects ())

(* --- Bechamel micro-benchmarks: one Test.make per table/figure --- *)

let bench_table1_concolic_exploration =
  (* Table 1 is produced by one concolic exploration of the add byte-code *)
  Test.make ~name:"table1/concolic-explore-add"
    (Staged.stage (fun () -> ignore (Concolic.Explorer.explore ~defects add_bc)))

let bench_table2_difftest_one_instruction =
  (* Table 2's unit of work: explore + differential-test one instruction *)
  Test.make ~name:"table2/difftest-add-s2r"
    (Staged.stage (fun () ->
         ignore
           (Ijdt_core.Campaign.test_instruction ~defects
              ~arches:[ Jit.Codegen.X86 ]
              ~compiler:Jit.Cogits.Stack_to_register_cogit add_bc)))

let bench_table3_classification =
  (* Table 3's unit of work: classify one difference *)
  Test.make ~name:"table3/classify-difference"
    (Staged.stage (fun () ->
         ignore
           (Difftest.Classify.classify
              ~compiler:Jit.Cogits.Native_method_compiler
              ~subject:(Concolic.Path.Native 41)
              ~exit_:Interpreter.Exit_condition.Failure
              ~observed:Difftest.Difference.O_segfault)))

let bench_fig5_native_exploration =
  (* Figure 5 contrasts path counts: native-method exploration dominates *)
  Test.make ~name:"fig5/concolic-explore-primAdd"
    (Staged.stage (fun () ->
         ignore (Concolic.Explorer.explore ~defects (Concolic.Path.Native 1))))

let bench_fig6_solver =
  (* Figure 6's cost is dominated by the constraint solver *)
  let gen = Symbolic.Sym_expr.Gen.create () in
  let a = Symbolic.Sym_expr.Var (Symbolic.Sym_expr.Gen.fresh gen ~name:"a" ~sort:Symbolic.Sym_expr.Oop) in
  let b = Symbolic.Sym_expr.Var (Symbolic.Sym_expr.Gen.fresh gen ~name:"b" ~sort:Symbolic.Sym_expr.Oop) in
  let conds =
    [
      Symbolic.Sym_expr.Is_small_int a;
      Symbolic.Sym_expr.Is_small_int b;
      Symbolic.Sym_expr.Not
        (Symbolic.Sym_expr.Is_in_small_int_range
           (Symbolic.Sym_expr.Add
              (Symbolic.Sym_expr.Integer_value_of a, Symbolic.Sym_expr.Integer_value_of b)));
    ]
  in
  Test.make ~name:"fig6/solve-overflow-conjunction"
    (Staged.stage (fun () -> ignore (Solver.Solve.solve conds)))

let bench_fig7_compile_and_run =
  (* Figure 7's unit of work: compile + execute one test *)
  let literals = Array.init 16 (fun i -> Jit.Ir.tagged_int (101 + i)) in
  Test.make ~name:"fig7/compile-run-add-x86"
    (Staged.stage (fun () ->
         let p =
           Jit.Cogits.compile_bytecode_to_machine
             Jit.Cogits.Stack_to_register_cogit ~defects ~literals
             ~stack_setup:[ Jit.Ir.tagged_int 3; Jit.Ir.tagged_int 4 ]
             ~arch:Jit.Codegen.X86
             (Bytecodes.Opcode.Arith_special Bytecodes.Opcode.Sel_add)
         in
         let om = Vm_objects.Object_memory.create () in
         let cpu = Machine.Cpu.create ~accessor_gaps:false om in
         ignore (Machine.Cpu.run cpu p)))

let bench_interpreter_baseline =
  (* baseline: one concrete interpretation of the same instruction *)
  Test.make ~name:"baseline/interpret-add"
    (Staged.stage (fun () ->
         let om = Vm_objects.Object_memory.create () in
         let meth =
           Bytecodes.Method_builder.build
             (Vm_objects.Object_memory.heap om)
             [ Bytecodes.Opcode.Arith_special Bytecodes.Opcode.Sel_add ]
         in
         let frame =
           Interpreter.Frame.create
             ~receiver:(Vm_objects.Object_memory.nil om)
             ~meth ~temps:[||]
             ~stack:
               [ Vm_objects.Value.of_small_int 3; Vm_objects.Value.of_small_int 4 ]
         in
         let m = Interpreter.Concrete_machine.create ~om ~frame in
         ignore (Interpreter.Concrete_machine.Interpreter.step m)))

let run_micro () =
  let tests =
    [
      bench_table1_concolic_exploration;
      bench_table2_difftest_one_instruction;
      bench_table3_classification;
      bench_fig5_native_exploration;
      bench_fig6_solver;
      bench_fig7_compile_and_run;
      bench_interpreter_baseline;
    ]
  in
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 500) () in
  Printf.printf "Micro-benchmarks (monotonic clock):\n%!";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name raw ->
          let ols =
            Analyze.ols ~bootstrap:0 ~r_square:true
              ~predictors:[| Measure.run |]
          in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          match Analyze.OLS.estimates est with
          | Some [ t ] -> Printf.printf "  %-36s %12.1f ns/run\n%!" name t
          | _ -> Printf.printf "  %-36s (no estimate)\n%!" name)
        results)
    tests

(* --- ablation: semantic constraints vs raw tag-bit constraints (§3.3) --- *)

let run_ablate_semantic () =
  print_endline
    "Ablation (§3.3): semantic type constraints vs raw tag-bit constraints";
  print_endline
    "  Semantic encoding: isSmallInteger(v) — negation is range-correct.";
  let gen = Symbolic.Sym_expr.Gen.create () in
  let v =
    Symbolic.Sym_expr.Var
      (Symbolic.Sym_expr.Gen.fresh gen ~name:"v" ~sort:Symbolic.Sym_expr.Oop)
  in
  (match Solver.Solve.solve [ Symbolic.Sym_expr.Not (Symbolic.Sym_expr.Is_small_int v) ] with
  | Solver.Solve.Sat _ -> print_endline "  semantic negation: SAT (usable witness)"
  | _ -> print_endline "  semantic negation: FAILED");
  print_endline
    "  Raw encoding: (v land 1) = 1 — a bitwise constraint the solver rejects.";
  let raw =
    Symbolic.Sym_expr.Cmp
      ( Symbolic.Sym_expr.Ceq,
        Symbolic.Sym_expr.Bit_and (v, Symbolic.Sym_expr.Int_const 1),
        Symbolic.Sym_expr.Int_const 1 )
  in
  (match Solver.Solve.solve [ Symbolic.Sym_expr.Not raw ] with
  | Solver.Solve.Unknown reason ->
      Printf.printf "  raw negation: UNKNOWN (%s)\n" reason
  | Solver.Solve.Sat _ -> print_endline "  raw negation: SAT"
  | Solver.Solve.Unsat -> print_endline "  raw negation: UNSAT");
  print_endline
    "  -> the paper's semantic abstraction keeps every path explorable.";
  (* quantify: how many add paths survive under each encoding *)
  let r = Concolic.Explorer.explore ~defects add_bc in
  Printf.printf "  semantic exploration of add: %d paths, %d beyond solver\n"
    (List.length r.paths) r.skipped_negations

(* --- ablation: what does curation remove? (§5.2) --- *)

let run_ablate_curation () =
  print_endline
    "Ablation (§5.2): curation — paths the tester cannot re-create";
  let reasons : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let tally subject =
    let e = Concolic.Explorer.explore ~defects subject in
    List.iter
      (fun path ->
        match
          Solver.Solve.solve
            (Symbolic.Path_condition.conditions
               path.Concolic.Path.path_condition)
        with
        | Solver.Solve.Sat _ -> ()
        | Solver.Solve.Unsat ->
            Hashtbl.replace reasons "re-solve unsat"
              (1 + Option.value (Hashtbl.find_opt reasons "re-solve unsat") ~default:0)
        | Solver.Solve.Unknown r ->
            Hashtbl.replace reasons r
              (1 + Option.value (Hashtbl.find_opt reasons r) ~default:0))
      e.paths
  in
  List.iter tally (Ijdt_core.Campaign.bytecode_subjects ());
  List.iter tally (Ijdt_core.Campaign.native_subjects ());
  (* sort by reason: Hashtbl.iter order depends on internal hashing *)
  Hashtbl.fold (fun reason n acc -> (reason, n) :: acc) reasons []
  |> List.sort compare
  |> List.iter (fun (reason, n) ->
         Printf.printf "  %-58s %4d paths\n" reason n);
  print_endline
    "  (every curated path traces back to the solver limits of §4.3)"

(* --- ablation: byte-code look-aheads on vs off --- *)

let run_ablate_lookahead () =
  print_endline "Ablation (§4.3): byte-code look-aheads on compare+branch pairs";
  let cases =
    [
      [ Bytecodes.Opcode.Arith_special Bytecodes.Opcode.Sel_lt;
        Bytecodes.Opcode.Jump_false 1; Bytecodes.Opcode.Push_one ];
      [ Bytecodes.Opcode.Arith_special Bytecodes.Opcode.Sel_eq;
        Bytecodes.Opcode.Jump_true 1; Bytecodes.Opcode.Push_nil ];
      [ Bytecodes.Opcode.Arith_special Bytecodes.Opcode.Sel_ge;
        Bytecodes.Opcode.Jump_false 2; Bytecodes.Opcode.Push_one;
        Bytecodes.Opcode.Pop ];
    ]
  in
  let literals = Array.init 16 (fun i -> Jit.Ir.tagged_int (101 + i)) in
  List.iter
    (fun ops ->
      let subject = Concolic.Path.Bytecode_seq ops in
      let paths la =
        List.length (Concolic.Explorer.explore ~defects ~lookahead:la subject).paths
      in
      let code la =
        Array.length
          (Jit.Cogits.compile_sequence_to_machine ~lookahead:la
             Jit.Cogits.Stack_to_register_cogit ~defects ~literals
             ~stack_setup:[] ~arch:Jit.Codegen.X86 ops)
      in
      Printf.printf
        "  %-44s paths: %d -> %d   code size: %d -> %d instructions
"
        (Concolic.Path.subject_name subject)
        (paths false) (paths true) (code false) (code true))
    cases

(* --- extension: sequence-testing summary --- *)

let run_sequences () =
  print_endline
    "Sequence testing (future-work extension): curated corpus, paper defects";
  let total_paths = ref 0 and total_diffs = ref 0 in
  List.iter
    (fun subject ->
      let r =
        Ijdt_core.Campaign.test_instruction ~defects
          ~arches:Jit.Codegen.all_arches
          ~compiler:Jit.Cogits.Stack_to_register_cogit subject
      in
      total_paths := !total_paths + r.paths;
      total_diffs := !total_diffs + r.differences;
      Printf.printf "  %-64s paths=%2d diffs=%d\n"
        (Concolic.Path.subject_name subject)
        r.paths r.differences)
    Concolic.Sequences.corpus;
  Printf.printf "  total: %d paths, %d differences over %d sequences\n"
    !total_paths !total_diffs
    (List.length Concolic.Sequences.corpus);
  (* look-ahead mode: fused exploration/compilation agree *)
  let fused =
    Concolic.Explorer.explore ~defects ~lookahead:true
      (Concolic.Path.Bytecode_seq
         [
           Bytecodes.Opcode.Arith_special Bytecodes.Opcode.Sel_lt;
           Bytecodes.Opcode.Jump_false 1;
           Bytecodes.Opcode.Push_one;
         ])
  in
  Printf.printf
    "  look-ahead fusion: [<; jumpFalse; pushOne] explores %d fused paths\n"
    (List.length fused.paths)

(* --- perf: machine-readable performance trajectory --- *)

(* Three configurations over the same work list, each measured cold:

     no_sharing_sequential   caches dropped between compilers — the
                             pre-cache cost structure (every compiler
                             re-explores every subject and re-runs
                             every solver query);
     shared_sequential       one cache across the whole run, -j 1;
     shared_parallel         one cache across the whole run, -j N.

   Every phase cross-checks the solver-cache accounting — hits + misses
   must equal the independently counted solve() calls — and the process
   exits non-zero when it does not.  The CI smoke runs
   `perf --quick --json ci` and relies on that exit code. *)

type phase = {
  p_name : string;
  p_wall : float;
  p_paths : int;
  p_curated : int;
  p_solver_hits : int;
  p_solver_misses : int;
  p_solver_queries : int;
  p_path_hits : int;
  p_path_misses : int;
  p_searches : Solver.Solve.search_stats;
  p_store_enabled : bool;
  p_store : Exec.Store.stats;
  p_per_compiler : (string * float * float) list;
      (* compiler, explore seconds, test seconds *)
}

let run_perf ~jobs ~quick ~json_label () =
  let arches = Jit.Codegen.all_arches in
  let compilers = Jit.Cogits.all in
  let take k xs = List.filteri (fun i _ -> i < k) xs in
  let group_run ~jobs cs =
    let units =
      List.concat_map
        (fun c ->
          let ss = Ijdt_core.Campaign.subjects_for c in
          let ss = if quick then take 6 ss else ss in
          List.map (fun s -> (c, s)) ss)
        cs
    in
    let s =
      Ijdt_core.Campaign.run_supervised ~jobs ~defects ~arches ~compilers:cs
        ~units ()
    in
    if Ijdt_core.Campaign.sup_incidents s <> [] then
      failwith "perf: a campaign unit did not complete";
    s.sup_campaign.results
  in
  (* cumulative cache counters: the no-sharing baseline resets the
     caches between compilers, so it harvests into these before each
     reset and the phase wrapper picks up the remainder *)
  let sh = ref 0 and sm = ref 0 and sq = ref 0 in
  let ph = ref 0 and pm = ref 0 in
  let se = ref 0 and sr = ref 0 in
  let reset () =
    Solver.Solve.reset_cache ();
    Concolic.Explorer.reset_cache ()
  in
  let harvest () =
    let ss = Solver.Solve.cache_stats () in
    let ps = Concolic.Explorer.cache_stats () in
    sh := !sh + ss.Exec.Memo.hits;
    sm := !sm + ss.Exec.Memo.misses;
    sq := !sq + Solver.Solve.queries_posed ();
    ph := !ph + ps.Exec.Memo.hits;
    pm := !pm + ps.Exec.Memo.misses;
    let ws = Solver.Solve.search_stats () in
    se := !se + ws.Solver.Solve.exhausted;
    sr := !sr + ws.Solver.Solve.refuted
  in
  let phase name f =
    sh := 0; sm := 0; sq := 0; ph := 0; pm := 0; se := 0; sr := 0;
    reset ();
    Exec.Store.reset_counters ();
    let t0 = Exec.Clock.now () in
    let results = f () in
    let wall = Exec.Clock.elapsed t0 in
    harvest ();
    let store = Exec.Store.counters () in
    if !sh + !sm <> !sq then begin
      Printf.eprintf
        "perf: solver-cache accounting inconsistent in %s: \
         hits %d + misses %d <> queries %d\n"
        name !sh !sm !sq;
      exit 1
    end;
    let paths =
      List.fold_left
        (fun a cr -> a + Ijdt_core.Campaign.total_paths cr)
        0 results
    in
    let curated =
      List.fold_left
        (fun a cr -> a + Ijdt_core.Campaign.total_curated cr)
        0 results
    in
    let per_compiler =
      List.map
        (fun (cr : Ijdt_core.Campaign.compiler_result) ->
          let sum f =
            List.fold_left (fun a r -> a +. f r) 0.0 cr.instructions
          in
          ( Jit.Cogits.short_name cr.compiler,
            sum (fun r -> r.Ijdt_core.Campaign.explore_time),
            sum (fun r -> r.Ijdt_core.Campaign.test_time) ))
        results
    in
    Printf.printf
      "  %-24s %7.2fs  paths %5d  curated %5d  solver %6d queries \
       (%5.1f%% hit)  path-cache %d/%d hit/miss  searches %d/%d \
       exhausted/refuted%s\n%!"
      name wall paths curated !sq
      (if !sq = 0 then 0.0 else 100.0 *. float_of_int !sh /. float_of_int !sq)
      !ph !pm !se !sr
      (if Exec.Store.enabled () then
         Printf.sprintf "  store %d/%d hit/miss, %d written"
           store.Exec.Store.hits store.Exec.Store.misses
           store.Exec.Store.writes
       else "");
    {
      p_name = name;
      p_wall = wall;
      p_paths = paths;
      p_curated = curated;
      p_solver_hits = !sh;
      p_solver_misses = !sm;
      p_solver_queries = !sq;
      p_path_hits = !ph;
      p_path_misses = !pm;
      p_searches = { Solver.Solve.exhausted = !se; refuted = !sr };
      p_store_enabled = Exec.Store.enabled ();
      p_store = store;
      p_per_compiler = per_compiler;
    }
  in
  Printf.printf "Perf trajectory (%s universe, -j %d):\n%!"
    (if quick then "quick" else "full")
    jobs;
  let baseline =
    phase "no_sharing_sequential" (fun () ->
        List.map
          (fun c ->
            let r = List.hd (group_run ~jobs:1 [ c ]) in
            harvest ();
            reset ();
            r)
          compilers)
  in
  let shared =
    phase "shared_sequential" (fun () -> group_run ~jobs:1 compilers)
  in
  let par = phase "shared_parallel" (fun () -> group_run ~jobs compilers) in
  let speedup b p = if p.p_wall > 0.0 then b.p_wall /. p.p_wall else 0.0 in
  Printf.printf "  speedup vs baseline: shared %.2fx, parallel %.2fx\n%!"
    (speedup baseline shared) (speedup baseline par);
  (* warm-store regression gate: the same sequential workload twice
     against one persistent store rooted in a scratch directory.  The
     cold run populates it; the warm run must be served from disk —
     every exploration summary (and with it every solver verdict) read
     back instead of recomputed — and must agree with the cold run on
     everything except wall clock. *)
  let rec rm_rf path =
    match Sys.is_directory path with
    | true ->
        Array.iter
          (fun e -> rm_rf (Filename.concat path e))
          (Sys.readdir path);
        Sys.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()
  in
  let store_dir =
    Filename.concat (Filename.get_temp_dir_name ()) "ijdt-bench-store"
  in
  rm_rf store_dir;
  Exec.Store.activate store_dir;
  let strip (r : Ijdt_core.Campaign.instruction_result) =
    { r with Ijdt_core.Campaign.explore_time = 0.0; test_time = 0.0 }
  in
  let digest_results (rs : Ijdt_core.Campaign.compiler_result list) =
    (* No_sharing: cold results physically share structure across units
       (one in-process exploration feeds every compiler) while warm ones
       are unmarshalled per store entry — expanding the sharing makes
       the digest depend on structure alone.  All of this data is
       acyclic. *)
    Digest.to_hex
      (Digest.string
         (Marshal.to_string
            (List.map
               (fun (cr : Ijdt_core.Campaign.compiler_result) ->
                 ( Jit.Cogits.short_name cr.compiler,
                   List.map strip cr.instructions ))
               rs)
            [ Marshal.No_sharing ]))
  in
  let cold_digest = ref "" and warm_digest = ref "" in
  let cold =
    phase "store_cold" (fun () ->
        let r = group_run ~jobs:1 compilers in
        cold_digest := digest_results r;
        r)
  in
  let warm =
    phase "store_warm" (fun () ->
        let r = group_run ~jobs:1 compilers in
        warm_digest := digest_results r;
        r)
  in
  Exec.Store.deactivate ();
  (* the store serves exploration summaries and solver verdicts, so the
     5x demand is on the exploration time it can skip; the per-unit
     testing no store caches stays in the whole-wall ratio, which is
     printed but not gated *)
  let warm_speedup =
    if warm.p_wall > 0.0 then cold.p_wall /. warm.p_wall else infinity
  in
  let explore_s p =
    List.fold_left (fun a (_, explore, _) -> a +. explore) 0.0 p.p_per_compiler
  in
  let explore_speedup =
    if explore_s warm > 0.0 then explore_s cold /. explore_s warm
    else infinity
  in
  let warm_reads =
    warm.p_store.Exec.Store.hits + warm.p_store.Exec.Store.misses
  in
  let warm_hit_rate =
    if warm_reads = 0 then 0.0
    else float_of_int warm.p_store.Exec.Store.hits /. float_of_int warm_reads
  in
  let aggregate_identical = !cold_digest = !warm_digest in
  (* the 5x exploration demand only means something when the cold run is
     long enough to measure — the quick universe finishes in
     milliseconds, where constant costs drown the ratio *)
  let speedup_gated = not quick in
  Printf.printf
    "  warm store: exploration %.2fx faster than cold%s, whole wall %.2fx \
     (ungated), %.1f%% store hits, %d solver queries, aggregates %s\n%!"
    explore_speedup
    (if speedup_gated then "" else " (ungated on quick universe)")
    warm_speedup
    (100.0 *. warm_hit_rate)
    warm.p_solver_queries
    (if aggregate_identical then "identical" else "DIVERGED");
  (* honest multicore gate: the >= 4x parallel speedup is demanded only
     where it is physically attainable — at -j >= 4 on >= 4 cores.
     Anywhere else the gate reports "skipped", never a faked pass. *)
  let cores = Domain.recommended_domain_count () in
  let par_speedup = if par.p_wall > 0.0 then shared.p_wall /. par.p_wall else 0.0 in
  let par_status =
    if cores < 4 || jobs < 4 then "skipped"
    else if par_speedup >= 4.0 then "passed"
    else "failed"
  in
  Printf.printf
    "  parallel gate: %s (%.2fx at -j %d on %d cores; need >= 4.00x on \
     >= 4 cores)\n%!"
    par_status par_speedup jobs cores;
  (* query-reduction gate vs the PR 3 baseline (BENCH_pr3.json
     shared_sequential): the simplification/subsumption/dedup work must
     cut cold-run solver queries by >= 20%.  Only comparable on the full
     universe — quick runs report "skipped". *)
  let pr3_queries = 4278 in
  let qr_measured = shared.p_solver_queries in
  let qr_reduction =
    1.0 -. (float_of_int qr_measured /. float_of_int pr3_queries)
  in
  let qr_status =
    if quick then "skipped" else if qr_reduction >= 0.20 then "passed"
    else "failed"
  in
  if not quick then
    Printf.printf
      "  query reduction vs PR 3: %s (%d -> %d cold queries, %.1f%%; \
       need >= 20%%)\n%!"
      qr_status pr3_queries qr_measured (100.0 *. qr_reduction);
  (* exhausted-search gate: the difference-bound and range refutations
     answer the infeasible bounds conjunctions and the small-integer
     range escapes of \\, rem and float exponents before the witness
     search, so only the satisfiable NaN/Inf pair, which the float
     sampler never draws, still runs the search to its end.  Gated on
     the full universe only; quick runs report the counts. *)
  let max_exhausted = 2 in
  let ex_measured = shared.p_searches.Solver.Solve.exhausted in
  let ex_refuted = shared.p_searches.Solver.Solve.refuted in
  let ex_status =
    if quick then "skipped"
    else if ex_measured <= max_exhausted then "passed"
    else "failed"
  in
  Printf.printf
    "  exhausted searches: %s (%d cold searches run to exhaustion, %d \
     refuted before the search; need <= %d on the full universe)\n%!"
    ex_status ex_measured ex_refuted max_exhausted;
  (* process-pool phase: the same supervised workload in-process and
     through --workers N disposable worker processes.  Isolation has a
     real price — process spawn, wire marshalling, per-worker cold
     caches — so wall clock is reported honestly rather than gated; the
     gates are verdict parity with the in-process engine and a
     incident-free pristine run (no deaths, no redeals, no garbage). *)
  let pool_units =
    List.concat_map
      (fun c ->
        let ss = Ijdt_core.Campaign.subjects_for c in
        let ss = if quick then take 6 ss else ss in
        List.map (fun s -> (c, s)) ss)
      compilers
  in
  let sup_report (s : Ijdt_core.Campaign.supervised) =
    List.map
      (fun (u : Ijdt_core.Campaign.unit_report) ->
        Printf.sprintf "%s|%s|%s|%d" u.ur_key u.ur_verdict u.ur_detail
          u.ur_attempts)
      s.sup_units
  in
  let sup_phase name f =
    reset ();
    let t0 = Exec.Clock.now () in
    let s : Ijdt_core.Campaign.supervised = f () in
    let wall = Exec.Clock.elapsed t0 in
    Printf.printf "  %-24s %7.2fs  ok %d / %d units%s\n%!" name wall
      s.sup_totals.Exec.Supervise.c_ok
      (List.length s.sup_units)
      (match s.sup_process with
      | Some p ->
          Printf.sprintf "  (deaths %d, preempted %d, redeals %d, garbage %d)"
            p.Exec.Procpool.p_deaths p.Exec.Procpool.p_preempted
            p.Exec.Procpool.p_redeals p.Exec.Procpool.p_garbage
      | None -> "");
    (s, wall)
  in
  let pool_workers = max 2 (min jobs 8) in
  (* the in-process side runs at its best width on the host: more
     domains than cores only oversubscribes them *)
  let inproc_jobs = max 1 (min jobs cores) in
  let sup_inproc, sup_inproc_wall =
    sup_phase
      (Printf.sprintf "supervised_inprocess_j%d" inproc_jobs)
      (fun () ->
        Ijdt_core.Campaign.run_supervised ~jobs:inproc_jobs ~defects
          ~units:pool_units ())
  in
  let sup_pool, sup_pool_wall =
    sup_phase
      (Printf.sprintf "workers_pool_%d" pool_workers)
      (fun () ->
        Ijdt_core.Campaign.run_supervised ~workers:pool_workers ~defects
          ~units:pool_units ())
  in
  let pool_verdicts_identical = sup_report sup_inproc = sup_report sup_pool in
  let pool_stats =
    match sup_pool.Ijdt_core.Campaign.sup_process with
    | Some p -> p
    | None ->
        Printf.eprintf "perf: workers run reported no pool statistics\n";
        exit 1
  in
  let pool_clean =
    pool_stats.Exec.Procpool.p_deaths = 0
    && pool_stats.Exec.Procpool.p_redeals = 0
    && pool_stats.Exec.Procpool.p_garbage = 0
  in
  let pool_overhead =
    if sup_inproc_wall > 0.0 then sup_pool_wall /. sup_inproc_wall else 0.0
  in
  Printf.printf
    "  workers pool: %.2fx the in-process (-j %d) wall clock at %d \
     workers, verdicts %s\n%!"
    pool_overhead inproc_jobs pool_workers
    (if pool_verdicts_identical then "identical" else "DIVERGED");
  let gate_failures =
    List.filter_map
      (fun x -> x)
      [
        (if pool_verdicts_identical then None
         else Some "workers-pool verdicts diverged from the in-process engine");
        (if pool_clean then None
         else
           Some
             (Printf.sprintf
                "pristine workers run had incidents (deaths %d, redeals %d, \
                 garbage %d)"
                pool_stats.Exec.Procpool.p_deaths
                pool_stats.Exec.Procpool.p_redeals
                pool_stats.Exec.Procpool.p_garbage));
        (if aggregate_identical then None
         else
           Some
             (Printf.sprintf
                "warm-store aggregates diverged from cold run (%s vs %s)"
                !cold_digest !warm_digest));
        (if (not speedup_gated) || explore_speedup >= 5.0 then None
         else
           Some
             (Printf.sprintf
                "warm-store exploration only %.2fx faster than cold (need \
                 >= 5x)"
                explore_speedup));
        (if warm.p_solver_queries = 0 then None
         else
           Some
             (Printf.sprintf "warm-store run posed %d solver queries (need 0)"
                warm.p_solver_queries));
        (if warm_hit_rate >= 0.95 then None
         else
           Some
             (Printf.sprintf "warm-store hit rate %.1f%% (need >= 95%%)"
                (100.0 *. warm_hit_rate)));
        (if par_status = "failed" then
           Some
             (Printf.sprintf
                "parallel speedup %.2fx at -j %d on %d cores (need >= 4x)"
                par_speedup jobs cores)
         else None);
        (if qr_status = "failed" then
           Some
             (Printf.sprintf
                "cold solver queries %d, only %.1f%% below the PR 3 \
                 baseline %d (need >= 20%%)"
                qr_measured (100.0 *. qr_reduction) pr3_queries)
         else None);
        (if ex_status = "failed" then
           Some
             (Printf.sprintf
                "%d cold witness searches ran to exhaustion (need <= %d)"
                ex_measured max_exhausted)
         else None);
      ]
  in
  (match json_label with
  | None -> ()
  | Some label ->
      let file = Printf.sprintf "BENCH_%s.json" label in
      let rate hits total =
        if total = 0 then 0.0 else float_of_int hits /. float_of_int total
      in
      let phase_json p =
        let per_compiler =
          String.concat ","
            (List.map
               (fun (n, e, t) ->
                 Printf.sprintf
                   "{\"compiler\":\"%s\",\"explore_s\":%.3f,\"test_s\":%.3f}"
                   n e t)
               p.p_per_compiler)
        in
        Printf.sprintf
          "{\"name\":\"%s\",\"wall_s\":%.3f,\"paths\":%d,\"curated\":%d,\
           \"paths_per_s\":%.1f,\"curated_per_s\":%.1f,\
           \"solver\":{\"queries\":%d,\"hits\":%d,\"misses\":%d,\
           \"hit_rate\":%.4f,\"consistent\":%b},\
           \"path_summaries\":{\"hits\":%d,\"misses\":%d,\"hit_rate\":%.4f},\
           \"searches\":{\"exhausted\":%d,\"refuted\":%d},\
           \"store\":{\"enabled\":%b,\"hits\":%d,\"misses\":%d,\
           \"loads\":%d,\"writes\":%d},\
           \"per_compiler\":[%s]}"
          p.p_name p.p_wall p.p_paths p.p_curated
          (if p.p_wall > 0.0 then float_of_int p.p_paths /. p.p_wall else 0.0)
          (if p.p_wall > 0.0 then float_of_int p.p_curated /. p.p_wall
           else 0.0)
          p.p_solver_queries p.p_solver_hits p.p_solver_misses
          (rate p.p_solver_hits p.p_solver_queries)
          (p.p_solver_hits + p.p_solver_misses = p.p_solver_queries)
          p.p_path_hits p.p_path_misses
          (rate p.p_path_hits (p.p_path_hits + p.p_path_misses))
          p.p_searches.Solver.Solve.exhausted p.p_searches.Solver.Solve.refuted
          p.p_store_enabled p.p_store.Exec.Store.hits
          p.p_store.Exec.Store.misses p.p_store.Exec.Store.loads
          p.p_store.Exec.Store.writes
          per_compiler
      in
      let oc = open_out file in
      Printf.fprintf oc
        "{\"label\":\"%s\",\"jobs\":%d,\"recommended_domains\":%d,\
         \"cores\":%d,\"universe\":\"%s\",\"phases\":[%s],\
         \"speedup_vs_baseline\":{\"shared_sequential\":%.3f,\
         \"shared_parallel\":%.3f},\
         \"workers\":{\"workers\":%d,\"inprocess_jobs\":%d,\
         \"inprocess_wall_s\":%.3f,\
         \"pool_wall_s\":%.3f,\"overhead\":%.3f,\
         \"verdicts_identical\":%b,\"deaths\":%d,\"preempted\":%d,\
         \"redeals\":%d,\"garbage\":%d,\"status\":\"%s\"},\
         \"warm_store\":{\"speedup\":%.3f,\"explore_speedup\":%.3f,\
         \"speedup_gated\":%b,\"hit_rate\":%.4f,\"solver_queries\":%d,\
         \"required_explore_speedup\":5.0,\"required_hit_rate\":0.95,\
         \"aggregate_identical\":%b,\"status\":\"%s\"},\
         \"parallel_gate\":{\"cores\":%d,\"jobs\":%d,\
         \"required_speedup\":4.0,\"measured\":%.3f,\"status\":\"%s\"},\
         \"query_reduction\":{\"pr3_baseline\":%d,\"measured\":%d,\
         \"reduction\":%.4f,\"required\":0.20,\"status\":\"%s\"},\
         \"exhausted_searches\":{\"max\":%d,\"measured\":%d,\
         \"refuted\":%d,\"status\":\"%s\"}}\n"
        label jobs
        (Exec.Pool.default_jobs ())
        cores
        (if quick then "quick" else "full")
        (String.concat ","
           (List.map phase_json [ baseline; shared; par; cold; warm ]))
        (speedup baseline shared) (speedup baseline par)
        pool_workers inproc_jobs sup_inproc_wall sup_pool_wall pool_overhead
        pool_verdicts_identical pool_stats.Exec.Procpool.p_deaths
        pool_stats.Exec.Procpool.p_preempted
        pool_stats.Exec.Procpool.p_redeals pool_stats.Exec.Procpool.p_garbage
        (if pool_verdicts_identical && pool_clean then "passed" else "failed")
        warm_speedup explore_speedup speedup_gated warm_hit_rate
        warm.p_solver_queries aggregate_identical
        (if
           aggregate_identical
           && ((not speedup_gated) || explore_speedup >= 5.0)
           && warm_hit_rate >= 0.95 && warm.p_solver_queries = 0
         then "passed"
         else "failed")
        cores jobs par_speedup par_status
        pr3_queries qr_measured qr_reduction qr_status
        max_exhausted ex_measured ex_refuted ex_status;
      close_out oc;
      Printf.printf "  wrote %s\n%!" file);
  if gate_failures <> [] then begin
    List.iter (Printf.eprintf "perf: gate failed: %s\n") gate_failures;
    exit 1
  end

(* --- main --- *)

(* Timed mutation kill matrix: the oracle-strength headline (kill rate
   per layer) plus the wall-clock cost of running every mutant through
   the full oracle stack. *)
let run_mutate ~jobs ~quick () =
  let t0 = Exec.Clock.now () in
  let m =
    if quick then
      Ijdt_core.Campaign.kill_matrix ~jobs ~per_operator:1 ~gen:4 ()
    else Ijdt_core.Campaign.kill_matrix ~jobs ()
  in
  let wall = Exec.Clock.elapsed t0 in
  Ijdt_core.Tables.kill_table Format.std_formatter m;
  let t = Ijdt_core.Campaign.kill_totals m in
  Printf.printf "mutate: %d mutants in %.2fs at -j %d (%.1f%% killed)\n"
    t.kr_units wall jobs
    (100.0 *. Ijdt_core.Campaign.kill_rate t)

(* Timed abstract-interpretation sweep: wall clock and per-unit cost of
   the machine-layer static pass (fixpoint + lint + path summaries), with
   and without the symbolic cross-check, pristine and seeded.  Each phase
   is also re-run restricted to one ISA at a time, so the report breaks
   the per-unit cost down per ISA — the flagless rv32 lowering emits a
   different instruction mix (materialised comparisons, fused branches)
   and its fixpoint cost is tracked separately. *)
let run_verify ~quick ~json_label () =
  let phase name ~defects ~crosscheck =
    let t0 = Exec.Clock.now () in
    let r = Verify.abstract_all ~defects ~crosscheck () in
    let wall = Exec.Clock.elapsed t0 in
    let per_unit_us =
      if r.Verify.ab_units = 0 then 0.0
      else 1e6 *. wall /. float_of_int r.Verify.ab_units
    in
    Printf.printf
      "  %-24s %4d units  %4d programs  %4d paths  %6.3fs  %7.1fus/unit\n%!"
      name r.Verify.ab_units r.Verify.ab_programs r.Verify.ab_paths wall
      per_unit_us;
    let per_isa =
      List.map
        (fun arch ->
          let an = Jit.Codegen.arch_name arch in
          let t0 = Exec.Clock.now () in
          let ri = Verify.abstract_all ~defects ~arches:[ arch ] ~crosscheck () in
          let w = Exec.Clock.elapsed t0 in
          let pu =
            if ri.Verify.ab_units = 0 then 0.0
            else 1e6 *. w /. float_of_int ri.Verify.ab_units
          in
          Printf.printf
            "    %-22s %4d units  %4d paths  %6.3fs  %7.1fus/unit\n%!" an
            ri.Verify.ab_units ri.Verify.ab_paths w pu;
          (an, ri, w, pu))
        Jit.Codegen.all_arches
    in
    (name, r, wall, per_unit_us, per_isa)
  in
  Printf.printf "Abstract-interpretation bench (%s):\n%!"
    (if quick then "quick" else "full");
  let phases =
    if quick then
      [
        phase "pristine_crosscheck" ~defects:Interpreter.Defects.pristine
          ~crosscheck:true;
      ]
    else begin
      let summaries =
        phase "pristine_summaries" ~defects:Interpreter.Defects.pristine
          ~crosscheck:false
      in
      let crosscheck =
        phase "pristine_crosscheck" ~defects:Interpreter.Defects.pristine
          ~crosscheck:true
      in
      let seeded =
        phase "seeded_crosscheck" ~defects:Interpreter.Defects.paper
          ~crosscheck:true
      in
      [ summaries; crosscheck; seeded ]
    end
  in
  match json_label with
  | None -> ()
  | Some label ->
      let file = Printf.sprintf "BENCH_%s.json" label in
      let phase_json
          (name, (r : Verify.abstract_report), wall, per_unit_us, per_isa) =
        let isa_json (an, (ri : Verify.abstract_report), w, pu) =
          Printf.sprintf
            "{\"arch\":\"%s\",\"units\":%d,\"paths\":%d,\"findings\":%d,\
             \"wall_s\":%.3f,\"per_unit_us\":%.1f}"
            an ri.Verify.ab_units ri.Verify.ab_paths
            (List.length ri.Verify.ab_findings)
            w pu
        in
        Printf.sprintf
          "{\"name\":\"%s\",\"units\":%d,\"programs\":%d,\"paths\":%d,\
           \"truncated\":%d,\"crosschecked\":%d,\"findings\":%d,\
           \"wall_s\":%.3f,\"per_unit_us\":%.1f,\"per_isa\":[%s]}"
          name r.Verify.ab_units r.Verify.ab_programs r.Verify.ab_paths
          r.Verify.ab_truncated r.Verify.ab_crosschecked
          (List.length r.Verify.ab_findings)
          wall per_unit_us
          (String.concat "," (List.map isa_json per_isa))
      in
      let oc = open_out file in
      Printf.fprintf oc "{\"label\":\"%s\",\"bench\":\"verify\",\"phases\":[%s]}\n"
        label
        (String.concat "," (List.map phase_json phases));
      close_out oc;
      Printf.printf "  wrote %s\n%!" file

(* Timed template-corpus build (ROADMAP item 3): a cold chunked build
   against a fresh store, then a warm rebuild that must be pure store
   hits with a byte-identical manifest.  The headline is subjects/s;
   the gates are the corpus invariants (no post-filter verifier
   rejections, warm determinism). *)
let run_corpus ~jobs ~n ~seed ~json_label () =
  let curated =
    Ijdt_core.Campaign.bytecode_subjects ()
    @ Ijdt_core.Campaign.native_subjects ()
  in
  let rec rm_rf path =
    match Sys.is_directory path with
    | true ->
        Array.iter
          (fun e -> rm_rf (Filename.concat path e))
          (Sys.readdir path);
        Sys.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()
  in
  let store_dir =
    Filename.concat (Filename.get_temp_dir_name ()) "ijdt-bench-corpus-store"
  in
  rm_rf store_dir;
  Exec.Store.activate store_dir;
  let build () =
    Templates.Corpus.build ~jobs ~curated ~seed ~target:n ()
  in
  let phase name f =
    Exec.Store.reset_counters ();
    let t0 = Exec.Clock.now () in
    let c = f () in
    let wall = Exec.Clock.elapsed t0 in
    let store = Exec.Store.counters () in
    let s = c.Templates.Corpus.c_stats in
    Printf.printf
      "  %-6s %6d subjects  %6.2fs  %7.1f subjects/s  (gen %d, rejected \
       %d, unexplorable %d, dup %d, chunks %d; store %d hits / %d misses)\n\
       %!"
      name s.Templates.Corpus.s_accepted wall
      (if wall > 0.0 then float_of_int s.Templates.Corpus.s_accepted /. wall
       else 0.0)
      s.Templates.Corpus.s_generated s.Templates.Corpus.s_rejected
      s.Templates.Corpus.s_unexplorable s.Templates.Corpus.s_duplicates
      s.Templates.Corpus.s_chunks store.Exec.Store.hits
      store.Exec.Store.misses;
    (c, wall, store)
  in
  Printf.printf "Template-corpus bench (n=%d, seed=%d, -j %d):\n%!" n seed
    jobs;
  let cold, cold_wall, cold_store = phase "cold" build in
  let warm, warm_wall, warm_store = phase "warm" build in
  Exec.Store.deactivate ();
  let manifest_identical =
    Templates.Corpus.manifest cold = Templates.Corpus.manifest warm
  in
  let stats = cold.Templates.Corpus.c_stats in
  let warm_speedup =
    if warm_wall > 0.0 then cold_wall /. warm_wall else infinity
  in
  Printf.printf
    "  warm rebuild %.2fx faster, manifest identical: %b, dedup ratio \
     %.4f\n%!"
    warm_speedup manifest_identical
    (Templates.Corpus.dedup_ratio cold);
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
        (if manifest_identical then None
         else Some "warm-store manifest diverged from cold build");
        (if warm_store.Exec.Store.misses = 0 then None
         else
           Some
             (Printf.sprintf "warm rebuild had %d store misses (want 0)"
                warm_store.Exec.Store.misses));
      ]
  in
  (match json_label with
  | None -> ()
  | Some label ->
      let file = Printf.sprintf "BENCH_%s.json" label in
      let phase_json name (c : Templates.Corpus.t) wall
          (store : Exec.Store.stats) =
        let s = c.Templates.Corpus.c_stats in
        Printf.sprintf
          "{\"name\":\"%s\",\"wall_s\":%.3f,\"subjects\":%d,\
           \"subjects_per_s\":%.1f,\"generated\":%d,\"rejected\":%d,\
           \"unexplorable\":%d,\"duplicates\":%d,\"chunks\":%d,\
           \"post_filter_rejections\":%d,\
           \"store\":{\"hits\":%d,\"misses\":%d,\"loads\":%d,\
           \"writes\":%d}}"
          name wall s.Templates.Corpus.s_accepted
          (if wall > 0.0 then
             float_of_int s.Templates.Corpus.s_accepted /. wall
           else 0.0)
          s.Templates.Corpus.s_generated s.Templates.Corpus.s_rejected
          s.Templates.Corpus.s_unexplorable s.Templates.Corpus.s_duplicates
          s.Templates.Corpus.s_chunks
          s.Templates.Corpus.s_post_filter_rejections store.Exec.Store.hits
          store.Exec.Store.misses store.Exec.Store.loads
          store.Exec.Store.writes
      in
      let oc = open_out file in
      Printf.fprintf oc
        "{\"label\":\"%s\",\"bench\":\"corpus\",\"jobs\":%d,\"n\":%d,\
         \"seed\":%d,\"dedup_ratio\":%.4f,\"manifest_identical\":%b,\
         \"warm_speedup\":%.3f,\"phases\":[%s],\"status\":\"%s\"}\n"
        label jobs n seed
        (Templates.Corpus.dedup_ratio cold)
        manifest_identical warm_speedup
        (String.concat ","
           [
             phase_json "cold" cold cold_wall cold_store;
             phase_json "warm" warm warm_wall warm_store;
           ])
        (if gate_failures = [] then "passed" else "failed");
      close_out oc;
      Printf.printf "  wrote %s\n%!" file);
  if gate_failures <> [] then begin
    List.iter (Printf.eprintf "corpus: gate failed: %s\n") gate_failures;
    exit 1
  end

let () =
  (* the perf `workers` phase re-execs this binary as a campaign worker *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "worker" then begin
    Ijdt_core.Campaign.worker_main ();
    exit 0
  end;
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let ppf = Format.std_formatter in
  let c () = Lazy.force campaign in
  match what with
  | "table1" -> Ijdt_core.Tables.table1 ppf ()
  | "table2" -> Ijdt_core.Tables.table2 ppf (c ())
  | "table3" ->
      Ijdt_core.Tables.table3 ppf (c ());
      Ijdt_core.Tables.causes ppf (c ())
  | "fig5" -> Ijdt_core.Tables.figure5 ppf (c ())
  | "fig6" -> Ijdt_core.Tables.figure6 ppf (c ())
  | "fig7" -> Ijdt_core.Tables.figure7 ppf (c ())
  | "micro" -> run_micro ()
  | "sequences" -> run_sequences ()
  | "ablate-semantic" -> run_ablate_semantic ()
  | "ablate-curation" -> run_ablate_curation ()
  | "ablate-lookahead" -> run_ablate_lookahead ()
  | "perf" ->
      let jobs = ref (Exec.Pool.default_jobs ()) in
      let quick = ref false in
      let json_label = ref None in
      let rec parse i =
        if i < Array.length Sys.argv then
          match Sys.argv.(i) with
          | "-j" | "--jobs" when i + 1 < Array.length Sys.argv ->
              jobs := int_of_string Sys.argv.(i + 1);
              parse (i + 2)
          | "--quick" ->
              quick := true;
              parse (i + 1)
          | "--json" when i + 1 < Array.length Sys.argv ->
              json_label := Some Sys.argv.(i + 1);
              parse (i + 2)
          | other ->
              Printf.eprintf "perf: unknown argument %S\n" other;
              exit 2
      in
      parse 2;
      run_perf ~jobs:!jobs ~quick:!quick ~json_label:!json_label ()
  | "mutate" ->
      let jobs = ref (Exec.Pool.default_jobs ()) in
      let quick = ref false in
      let rec parse i =
        if i < Array.length Sys.argv then
          match Sys.argv.(i) with
          | "-j" | "--jobs" when i + 1 < Array.length Sys.argv ->
              jobs := int_of_string Sys.argv.(i + 1);
              parse (i + 2)
          | "--quick" ->
              quick := true;
              parse (i + 1)
          | other ->
              Printf.eprintf "mutate: unknown argument %S\n" other;
              exit 2
      in
      parse 2;
      run_mutate ~jobs:!jobs ~quick:!quick ()
  | "verify" ->
      let quick = ref false in
      let json_label = ref None in
      let rec parse i =
        if i < Array.length Sys.argv then
          match Sys.argv.(i) with
          | "--quick" ->
              quick := true;
              parse (i + 1)
          | "--json" when i + 1 < Array.length Sys.argv ->
              json_label := Some Sys.argv.(i + 1);
              parse (i + 2)
          | other ->
              Printf.eprintf "verify: unknown argument %S\n" other;
              exit 2
      in
      parse 2;
      run_verify ~quick:!quick ~json_label:!json_label ()
  | "corpus" ->
      let jobs = ref (Exec.Pool.default_jobs ()) in
      let n = ref 2000 in
      let seed = ref 42 in
      let json_label = ref None in
      let rec parse i =
        if i < Array.length Sys.argv then
          match Sys.argv.(i) with
          | "-j" | "--jobs" when i + 1 < Array.length Sys.argv ->
              jobs := int_of_string Sys.argv.(i + 1);
              parse (i + 2)
          | "--n" when i + 1 < Array.length Sys.argv ->
              n := int_of_string Sys.argv.(i + 1);
              parse (i + 2)
          | "--seed" when i + 1 < Array.length Sys.argv ->
              seed := int_of_string Sys.argv.(i + 1);
              parse (i + 2)
          | "--json" when i + 1 < Array.length Sys.argv ->
              json_label := Some Sys.argv.(i + 1);
              parse (i + 2)
          | other ->
              Printf.eprintf "corpus: unknown argument %S\n" other;
              exit 2
      in
      parse 2;
      run_corpus ~jobs:!jobs ~n:!n ~seed:!seed ~json_label:!json_label ()
  | "all" ->
      Ijdt_core.Tables.table1 ppf ();
      Format.fprintf ppf "@.";
      Ijdt_core.Tables.all ppf (c ());
      Format.fprintf ppf "@.";
      run_ablate_semantic ();
      print_newline ();
      run_ablate_curation ();
      print_newline ();
      run_ablate_lookahead ();
      print_newline ();
      run_sequences ();
      print_newline ();
      run_micro ()
  | other ->
      Printf.eprintf
        "unknown argument %S (expected \
         table1|table2|table3|fig5|fig6|fig7|micro|sequences|ablate-semantic|ablate-curation|ablate-lookahead|perf|mutate|verify|corpus|all)\n"
        other;
      exit 2
