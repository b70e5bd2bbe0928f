(* The process-pool determinism tests in {!Test_exec} spawn workers by
   re-exec'ing this very binary, so the hidden worker mode must be
   intercepted before Alcotest ever sees argv. *)
let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "worker" then begin
    Ijdt_core.Campaign.worker_main ();
    exit 0
  end;
  if Array.length Sys.argv > 3 && Sys.argv.(1) = "store-race-writer" then begin
    Test_store.race_writer ~dir:Sys.argv.(2) ~tag:Sys.argv.(3);
    exit 0
  end

let () =
  Alcotest.run "ijdt"
    [
      ("value", Test_value.suite);
      ("heap", Test_heap.suite);
      ("encoding", Test_encoding.suite);
      ("interpreter", Test_interpreter.suite);
      ("runtime", Test_runtime.suite);
      ("vm-programs", Test_vm_programs.suite);
      ("inline-cache", Test_inline_cache.suite);
      ("gc", Test_gc.suite);
      ("primitives", Test_primitives.suite);
      ("solver", Test_solver.suite);
      ("exec", Test_exec.suite);
      ("store", Test_store.suite);
      ("supervise", Test_supervise.suite);
      ("symbolic", Test_symbolic.suite);
      ("machine", Test_machine.suite);
      ("disasm", Test_disasm.suite);
      ("verify", Test_verify.suite);
      ("validator", Test_validator.suite);
      ("jit", Test_jit.suite);
      ("concolic", Test_concolic.suite);
      ("difftest", Test_difftest.suite);
      ("sequences", Test_sequences.suite);
      ("lookahead", Test_lookahead.suite);
      ("campaign", Test_campaign.suite);
      ("soundness", Test_soundness.suite);
      ("tables", Test_tables.suite);
      ("facade", Test_facade.suite);
      ("mutate", Test_mutate.suite);
      ("abstract", Test_abstract.suite);
      ("templates", Test_templates.suite);
      ("shared", Test_shared_static.suite);
    ]
