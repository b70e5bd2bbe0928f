(* The static analysis each unit shares across its ISAs gives the
   verdicts the per-ISA passes gave: pinned digests of every static
   verdict the campaign reads, and the shared fixpoint and per-ISA
   slices checked against the passes run on their own. *)

module Campaign = Ijdt_core.Campaign
module Runner = Difftest.Runner

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let defects = Interpreter.Defects.paper
let arches = Jit.Codegen.all_arches

let extracted_units () =
  let corpus = Campaign.Corpus_extracted { n = 300; seed = 42 } in
  List.concat_map
    (fun compiler ->
      List.map
        (fun subject -> (compiler, subject))
        (Campaign.corpus_subjects_for ~corpus compiler))
    Jit.Cogits.bytecode_compilers

(* md5 over every per-(unit, ISA) [Runner.static_findings] list and every
   unit's [Runner.cross_isa_findings], in unit order *)
let static_digest units =
  let b = Buffer.create (1 lsl 16) in
  let add label fs =
    Buffer.add_string b label;
    Buffer.add_char b '\n';
    List.iter
      (fun f ->
        Buffer.add_string b (Verify.Finding.to_string f);
        Buffer.add_char b '\n')
      fs
  in
  List.iter
    (fun (compiler, subject) ->
      let unit =
        Concolic.Path.subject_name subject ^ "|"
        ^ Jit.Cogits.short_name compiler
      in
      List.iter
        (fun arch ->
          add
            (unit ^ "|" ^ Jit.Codegen.arch_name arch)
            (Runner.static_findings ~defects ~compiler ~arch subject))
        arches;
      add (unit ^ "|cross")
        (Runner.cross_isa_findings ~defects ~compiler ~arches subject))
    units;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_digest_curated () =
  check_str "curated universe, 4 front-ends x 3 ISAs"
    "d16e60fe497d1dafe2c97e868f4c6e43"
    (static_digest (Campaign.units_for Jit.Cogits.all))

let test_digest_extracted () =
  check_str "extracted:300 (seed 42), 3 front-ends x 3 ISAs"
    "d9163ca7e58809094dba0958cfd3b2a5"
    (static_digest (extracted_units ()))

(* Every lowered program of the curated universe, with the IR it was
   lowered from. *)
let curated_programs () =
  List.concat_map
    (fun (compiler, subject) ->
      match
        match subject with
        | Concolic.Path.Native id -> Jit.Cogits.compile_native ~defects id
        | Concolic.Path.Bytecode op ->
            Jit.Cogits.compile_bytecode compiler ~defects
              ~literals:Verify.default_literals
              ~stack_setup:(Verify.default_stack_setup op) op
        | Concolic.Path.Bytecode_seq _ -> assert false
      with
      | exception Jit.Cogits.Not_compiled _ -> []
      | final ->
          List.map
            (fun arch ->
              ( Concolic.Path.subject_name subject,
                arch,
                final,
                Jit.Cogits.lower_for compiler ~arch final ))
            arches)
    (Campaign.units_for Jit.Cogits.all)

let test_shared_fixpoint () =
  let programs = curated_programs () in
  check_bool "programs lowered" true (List.length programs > 1500);
  List.iter
    (fun (subject, arch, final, prog) ->
      let an = Jit.Codegen.arch_name arch in
      let fix = Verify.Abstract_mc.fixpoint prog in
      let lint ?reach () =
        Verify.Machine_lint.lint ?reach ~accessor_gaps:defects.simulation_accessor_gaps
          ~subject ~compiler:"c" ~arch:an prog
      in
      let check ?fix () =
        Verify.Abstract_mc.check_unit ?fix ~subject ~compiler:"c" ~arch:an
          ~backend:(Jit.Codegen.backend_of arch) ~ir:final prog
      in
      check_bool (subject ^ "/" ^ an ^ ": lint on the fixpoint's reach") true
        (lint ~reach:fix.Verify.Abstract_mc.fx_reach () = lint ());
      check_bool (subject ^ "/" ^ an ^ ": check_unit on a given fixpoint") true
        (check ~fix () = check ()))
    programs

(* A machine fault on the s2r front-end that only rv32 lowerings
   trigger (they alone have fused compare-and-branches): it renumbers
   their stop markers, so the ISAs disagree and the cross-ISA differ
   has findings to report. *)
let rv32_stop_shift =
  let module MC = Machine.Machine_code in
  {
    Jit.Fault.id = "test-rv32-stop-shift";
    layer = Jit.Fault.L_machine;
    rewrite_opcode = Jit.Fault.none_opcode;
    rewrite_ir = Jit.Fault.none_ir;
    rewrite_machine =
      (fun prog ->
        if Array.exists (function MC.R_bcc _ -> true | _ -> false) prog then
          Some (Array.map (function MC.Brk m -> MC.Brk (m + 7) | i -> i) prog)
        else None);
  }

(* One analysis over all ISAs equals one analysis per ISA, and its
   cross-ISA findings (also as the runner serves them) equal the differ
   over separately lowered programs. *)
let test_one_analysis_per_unit () =
  let divergent = ref 0 in
  let (), _ =
    Jit.Fault.with_fault ~target:"s2r" rv32_stop_shift @@ fun () ->
    List.iter
      (fun (compiler, subject) ->
        let name = Concolic.Path.subject_name subject in
        let all = Verify.analyse_unit ~defects ~compiler ~arches subject in
        List.iter
          (fun arch ->
            let one =
              Verify.analyse_unit ~defects ~compiler ~arches:[ arch ] subject
            in
            check_bool (name ^ ": passes 1-2 do not depend on the ISA set")
              true
              (one.unit_findings = all.unit_findings);
            check_bool
              (name ^ ": per-ISA findings do not depend on the ISA set")
              true
              (List.assoc_opt arch one.per_arch
              = List.assoc_opt arch all.per_arch))
          arches;
        let separately =
          match
            List.map
              (fun arch ->
                let prog =
                  match subject with
                  | Concolic.Path.Native id ->
                      Jit.Cogits.compile_native_to_machine ~defects ~arch id
                  | Concolic.Path.Bytecode op ->
                      Jit.Cogits.compile_bytecode_to_machine compiler ~defects
                        ~literals:Verify.default_literals
                        ~stack_setup:(Verify.default_stack_setup op) ~arch op
                  | Concolic.Path.Bytecode_seq _ -> assert false
                in
                (Jit.Codegen.arch_name arch, Verify.Abstract_mc.summarize prog))
              arches
          with
          | summaries ->
              Verify.Frame_diff.differ_arches ~subject:name
                ~compiler:(Jit.Cogits.short_name compiler) summaries
          | exception Jit.Cogits.Not_compiled _ -> []
        in
        if separately <> [] then incr divergent;
        check_bool (name ^ ": cross-ISA findings") true
          (separately = all.cross_isa);
        check_bool (name ^ ": the runner's cross-ISA findings") true
          (separately
          = snd (Runner.static_verdicts ~defects ~compiler ~arches subject)))
      (Campaign.units_for Jit.Cogits.all)
  in
  check_bool "the fault makes some units diverge across ISAs" true
    (!divergent > 0)

(* The all-ISA runner entry (one compile per path, a replay reusing the
   path's own outcome) gives every path the outcome and validation of
   the one-ISA entries that share nothing ([run_path], and
   [validate_path] replaying every witness), on the s2r front-end over
   the extracted:300 slice. *)
let test_all_isas_equal_one_isa () =
  let compiler = Jit.Cogits.Stack_to_register_cogit in
  let corpus = Campaign.Corpus_extracted { n = 300; seed = 42 } in
  List.iter
    (fun subject ->
      let static, _ =
        Runner.static_verdicts ~defects ~compiler ~arches subject
      in
      let exploration =
        Concolic.Explorer.explore ~max_iterations:96 ~defects subject
      in
      List.iter
        (fun (path : Concolic.Path.t) ->
          List.iter
            (fun (arch, (v : Runner.verified), _) ->
              let label =
                Concolic.Path.subject_name subject
                ^ "/" ^ Jit.Codegen.arch_name arch
              in
              check_bool (label ^ ": outcome") true
                (v.outcome = Runner.run_path ~defects ~compiler ~arch path);
              check_bool (label ^ ": validation") true
                (Option.map Runner.validation_to_string v.validation
                = Some
                    (Runner.validation_to_string
                       (Runner.validate_path ~defects ~compiler ~arch path))))
            (Runner.run_path_arches ~validate:true ~defects ~compiler ~static
               path))
        exploration.paths)
    (Campaign.corpus_subjects_for ~corpus compiler)

(* Each ISA of a path runs on a copy of one materialisation: for every
   path the runner materialises, over the curated universe and the
   extracted:300 slice, the copy equals a fresh materialisation object
   for object, and its method view reads the copy's own body. *)
let input_dump (i : Concolic.Materialize.input) =
  let module F = Interpreter.Frame in
  let values vs =
    String.concat " " (List.map (fun (v : Vm_objects.Value.t) -> string_of_int (v :> int)) vs)
  in
  String.concat "\n"
    [
      Test_heap.dump_memory i.om;
      values [ Bytecodes.Compiled_method.oop i.meth; F.receiver i.frame ];
      values (Array.to_list (F.temps i.frame));
      values (F.stack_bottom_up i.frame);
      String.concat " "
        (List.map
           (fun (t, (v : Vm_objects.Value.t)) ->
             Symbolic.Sym_expr.show t ^ "=" ^ string_of_int (v :> int))
           i.bindings);
      string_of_int i.stack_depth;
    ]

let check_copies subjects =
  let copied = ref 0 in
  List.iter
    (fun subject ->
      let exploration =
        Concolic.Explorer.explore ~max_iterations:96 ~defects subject
      in
      List.iter
        (fun (path : Concolic.Path.t) ->
          match (path.exit_, path.curation) with
          | Interpreter.Exit_condition.Invalid_frame, _
          | _, (Solver.Solve.Unsat | Solver.Solve.Unknown _) ->
              ()
          | _, Solver.Solve.Sat _ ->
              incr copied;
              let label =
                Concolic.Path.subject_name subject ^ " " ^ Concolic.Path.key path
              in
              let source = Runner.rebuild_input path in
              let copy = Concolic.Materialize.copy source in
              check_str (label ^ ": copy == fresh materialisation")
                (input_dump (Runner.rebuild_input path))
                (input_dump copy);
              let literals (i : Concolic.Materialize.input) =
                (Vm_objects.Heap.method_body
                   (Vm_objects.Object_memory.heap i.om)
                   (Bytecodes.Compiled_method.oop i.meth))
                  .literals
              in
              check_bool (label ^ ": method view over the copy") true
                (Bytecodes.Compiled_method.literals copy.meth == literals copy
                && literals copy != literals source))
        exploration.paths)
    subjects;
  check_bool "hundreds of paths materialised" true (!copied > 500)

let dedup subjects =
  List.sort_uniq
    (fun a b ->
      compare (Concolic.Path.subject_name a) (Concolic.Path.subject_name b))
    subjects

let test_copy_fidelity () =
  check_copies (dedup (List.map snd (Campaign.units_for Jit.Cogits.all)));
  check_copies
    (Campaign.corpus_subjects_for
       ~corpus:(Campaign.Corpus_extracted { n = 300; seed = 42 })
       Jit.Cogits.Stack_to_register_cogit)

let suite =
  [
    Alcotest.test_case "static verdict digest: curated" `Quick
      test_digest_curated;
    Alcotest.test_case "static verdict digest: extracted:300" `Quick
      test_digest_extracted;
    Alcotest.test_case "lint and check_unit share one fixpoint" `Quick
      test_shared_fixpoint;
    Alcotest.test_case "one analysis per unit, all ISAs" `Quick
      test_one_analysis_per_unit;
    Alcotest.test_case "one path on all ISAs = one ISA at a time" `Quick
      test_all_isas_equal_one_isa;
    Alcotest.test_case "a path's input copy equals a fresh one" `Quick
      test_copy_fidelity;
  ]
