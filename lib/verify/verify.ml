(* The static verifier suite.

   Five zero-execution passes over the testing pipeline's artifacts:

   1. {!Bytecode_verifier} — abstract interpretation of byte-code
      (stack balance, branch targets, index bounds, dead code);
   2. {!Ir_verifier} — dataflow checks over cogit IR (def-before-use,
      single assignment before allocation, spill read-before-write,
      trampoline calling convention);
   3. {!Machine_lint} — reachability and register-accessor coverage on
      lowered machine code, any back-end behind {!Machine.Backend_sig};
   4. {!Abstract_mc} — the backend-generic abstract interpreter:
      IR-vs-machine consistency, scratch/liveness/flags domains,
      frame-effect summaries cross-checked against {!Symexec_mc} and
      differenced per ISA pair ({!Frame_diff.differ_arches});
   5. {!Frame_diff} — static cross-compiler differencing of guard and
      frame-effect summaries.

   [verify_bytecode_unit] / [verify_native_unit] bundle passes 1-4 for
   one compilation unit; [Frame_diff.differ_*] is pass 5;
   [verify_all] sweeps the whole test universe and aggregates a
   {!type:report}; [abstract_all] sweeps the machine layer alone and
   aggregates an {!type:abstract_report}. *)

module Finding = Finding
module Bytecode_verifier = Bytecode_verifier
module Ir_verifier = Ir_verifier
module Machine_lint = Machine_lint
module Abstract_mc = Abstract_mc
module Frame_diff = Frame_diff
module Symexec_mc = Symexec_mc
module Translation_validator = Translation_validator
module Op = Bytecodes.Opcode
module Ir = Jit.Ir

let arch_name = Jit.Codegen.arch_name

(* Canonical unit parameters, mirroring the differential runner's
   Listing-3 schema: a literal frame of distinct tagged integers and one
   setup push per operand the instruction consumes. *)
let default_literals = Array.init 16 (fun i -> Ir.tagged_int (101 + i))

let default_stack_setup (op : Op.t) : int list =
  List.init (Op.min_operands op) (fun i -> Ir.tagged_int (i + 1))

let has_spills ir =
  List.exists
    (function Ir.I_spill_store _ | Ir.I_spill_load _ -> true | _ -> false)
    ir

let reg_limit_for compiler final_ir =
  match compiler with
  | Jit.Cogits.Register_allocating_cogit -> Ir.max_direct_vreg
  | _ -> if has_spills final_ir then Ir.max_direct_vreg else Ir.max_plain_vreg

let not_compiled_finding ~subject ~compiler cause msg =
  [
    Finding.v ~pass:Finding.Ir_check ~subject
      ~compiler:(Jit.Cogits.short_name compiler)
      ~family:Finding.Missing_functionality ~cause
      (Printf.sprintf "%s: %s" (Jit.Cogits.short_name compiler) msg);
  ]

(* --- one unit's static analysis, shared by every consumer ---

   Passes 1-4 for one compilation unit, each artefact computed once.
   Passes 1-2 read the byte-code and the IR, which no ISA changes: one
   byte-code verifier run, one compile and one IR verifier run per
   (subject, compiler).  Per ISA the unit is lowered once and its
   fixpoint computed once; the lint reads the fixpoint's reachability
   and [check_unit] its abstract states.  The cross-ISA differ reads
   one [summarize] per ISA.  The lowered programs and fixpoints live
   only while the unit is analysed: callers keep findings only.

   [verify_bytecode_unit]/[verify_native_unit] (and so [verify_all])
   and the differential runner's static verdicts all read this one
   analysis. *)

type analysis = {
  unit_findings : Finding.t list;
      (* passes 1-2, or the unit's not-compiled finding *)
  per_arch : (Jit.Codegen.arch * Finding.t list) list;
      (* passes 3-4, one entry per ISA in [arches] order; [] when the
         unit does not compile *)
  cross_isa : Finding.t list;
      (* the cross-ISA frame differ over every ISA of [per_arch]; []
         below two ISAs *)
}

let analysis_findings a =
  a.unit_findings @ List.concat_map snd a.per_arch @ a.cross_isa

(* Passes 3-4 on the lowered machine code of one unit: per arch the
   lint and the abstract interpreter's IR-vs-machine consistency
   checks over one shared fixpoint, plus the static cross-ISA frame
   differ when several arches are lowered. *)
let machine_passes ~defects ~subject ~cross_subject ~short ~arches ~lower final
    =
  let accessor_gaps = defects.Interpreter.Defects.simulation_accessor_gaps in
  let analysed =
    List.map
      (fun arch ->
        let prog = lower arch in
        let fix = Abstract_mc.fixpoint prog in
        let an = arch_name arch in
        ( arch,
          prog,
          Machine_lint.lint ~reach:fix.Abstract_mc.fx_reach ~accessor_gaps
            ~subject ~compiler:short ~arch:an prog
          @ Abstract_mc.check_unit ~fix ~subject ~compiler:short ~arch:an
              ~backend:(Jit.Codegen.backend_of arch)
              ~ir:final prog ))
      arches
  in
  let cross_isa =
    if List.length analysed < 2 then []
    else
      Frame_diff.differ_arches ~subject:cross_subject ~compiler:short
        (List.map
           (fun (arch, prog, _) -> (arch_name arch, Abstract_mc.summarize prog))
           analysed)
  in
  (List.map (fun (arch, _, fs) -> (arch, fs)) analysed, cross_isa)

(* Passes 1-4 for one unit, with canonical unit parameters (a sequence
   starts on an empty stack).  Cross-ISA findings name the unit as the
   campaign does ({!Concolic.Path.subject_name}); the other passes name
   a sequence by its ";"-joined mnemonics. *)
let analyse_unit ~defects ~compiler ?(arches = Jit.Codegen.all_arches)
    (unit_subject : Concolic.Path.subject) : analysis =
  let literals = default_literals in
  let num_literals = Array.length literals in
  let not_compiled unit_findings =
    { unit_findings; per_arch = []; cross_isa = [] }
  in
  let analyse ~subject ~compiler unit_findings final =
    let per_arch, cross_isa =
      machine_passes ~defects ~subject
        ~cross_subject:(Concolic.Path.subject_name unit_subject)
        ~short:(Jit.Cogits.short_name compiler) ~arches
        ~lower:(fun arch -> Jit.Cogits.lower_for compiler ~arch final)
        final
    in
    { unit_findings; per_arch; cross_isa }
  in
  let short = Jit.Cogits.short_name compiler in
  let ir_verify ~subject final =
    Ir_verifier.verify ~subject ~compiler:short
      ~reg_limit:(reg_limit_for compiler final)
      final
  in
  let missing ~subject msg =
    not_compiled_finding ~subject ~compiler
      (Printf.sprintf "missing-bytecode-support-%s(%s)" subject msg)
      msg
  in
  match unit_subject with
  | Concolic.Path.Bytecode op -> (
      let subject = Op.mnemonic op in
      let stack_setup = default_stack_setup op in
      let bytecode_findings =
        Bytecode_verifier.verify_unit ~num_literals
          ~initial_depth:(List.length stack_setup) op
      in
      match
        Jit.Cogits.compile_bytecode_stages compiler ~defects ~literals
          ~stack_setup op
      with
      | exception Jit.Cogits.Not_compiled msg ->
          not_compiled (bytecode_findings @ missing ~subject msg)
      | frontend, final ->
          analyse ~subject ~compiler
            (bytecode_findings
            @ Ir_verifier.single_assignment ~subject ~compiler:short frontend
            @ ir_verify ~subject final)
            final)
  | Concolic.Path.Bytecode_seq ops -> (
      let subject = String.concat ";" (List.map Op.mnemonic ops) in
      let bytecode_findings =
        Bytecode_verifier.verify_seq ~num_literals ~initial_depth:0 ops
      in
      match
        Jit.Cogits.compile_sequence compiler ~defects ~literals ~stack_setup:[]
          ops
      with
      | exception Jit.Cogits.Not_compiled msg ->
          not_compiled (bytecode_findings @ missing ~subject msg)
      | final ->
          analyse ~subject ~compiler
            (bytecode_findings @ ir_verify ~subject final)
            final)
  | Concolic.Path.Native id -> (
      let subject = Interpreter.Primitive_table.name id in
      match Jit.Cogits.compile_native ~defects id with
      | exception Jit.Cogits.Not_compiled msg ->
          not_compiled
            [
              Finding.v ~pass:Finding.Ir_check ~subject ~compiler:"native"
                ~family:Finding.Missing_functionality
                ~cause:(Printf.sprintf "missing-template-%s" subject)
                msg;
            ]
      | final ->
          analyse ~subject ~compiler:Jit.Cogits.Native_method_compiler
            (Ir_verifier.verify ~subject ~compiler:"native"
               ~reg_limit:Ir.max_direct_vreg final)
            final)

(* Passes 1-4 for one byte-code compilation unit. *)
let verify_bytecode_unit ~defects ~compiler ?arches (op : Op.t) :
    Finding.t list =
  analysis_findings
    (analyse_unit ~defects ~compiler ?arches (Concolic.Path.Bytecode op))

(* Passes 2-4 for one native-method unit. *)
let verify_native_unit ~defects ?arches (id : int) : Finding.t list =
  analysis_findings
    (analyse_unit ~defects ~compiler:Jit.Cogits.Native_method_compiler
       ?arches (Concolic.Path.Native id))

(* Pass 5, with canonical unit parameters. *)
let differ_bytecode ~defects ?(literals = default_literals) ?stack_setup
    (op : Op.t) : Finding.t list =
  let stack_setup =
    match stack_setup with Some s -> s | None -> default_stack_setup op
  in
  Frame_diff.differ_bytecode ~defects ~literals ~stack_setup op

let differ_native = Frame_diff.differ_native

(* --- whole-universe sweep --- *)

type report = {
  defects : Interpreter.Defects.t;
  units : int; (* compilation units verified *)
  findings : Finding.t list;
}

let bytecode_universe () =
  Bytecodes.Encoding.all_defined_opcodes ()
  |> List.filter (fun op -> op <> Op.Push_this_context)

(* Missing-functionality findings are expected on the seeded
   configuration; [include_missing] lets callers focus on the defect
   families that indicate wrong (rather than absent) code. *)
let verify_all ?(defects = Interpreter.Defects.paper)
    ?(arches = Jit.Codegen.all_arches) ?(include_missing = true) () : report =
  let units = ref 0 in
  let findings = ref [] in
  let keep fs =
    let fs =
      if include_missing then fs
      else
        List.filter
          (fun (f : Finding.t) -> f.family <> Finding.Missing_functionality)
          fs
    in
    findings := !findings @ fs
  in
  List.iter
    (fun op ->
      List.iter
        (fun compiler ->
          incr units;
          keep (verify_bytecode_unit ~defects ~compiler ~arches op))
        Jit.Cogits.bytecode_compilers;
      keep (differ_bytecode ~defects op))
    (bytecode_universe ());
  List.iter
    (fun id ->
      incr units;
      keep (verify_native_unit ~defects ~arches id);
      keep (differ_native ~defects id))
    Interpreter.Primitive_table.ids;
  { defects; units = !units; findings = !findings }

(* Root causes, counted once per cause. *)
let causes (r : report) : (Finding.family * string * int) list =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (f : Finding.t) ->
      let key = (f.family, f.cause) in
      Hashtbl.replace tbl key
        (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0))
    r.findings;
  Hashtbl.fold (fun (family, cause) n acc -> (family, cause, n) :: acc) tbl []
  |> List.sort compare

(* --- machine-layer sweep of the abstract interpreter alone ---

   What [vmtest verify --abstract] and [bench verify] run: per unit and
   per arch, the lint (reading the fixpoint's reachability),
   the fixpoint-based consistency checks, the abstract frame-effect
   summary, the symbolic cross-check, and the cross-ISA differ — no
   byte-code/IR passes, so the counters isolate the machine layer. *)

type arch_tally = {
  at_programs : int; (* units lowered for this ISA *)
  at_paths : int; (* abstract paths enumerated on this ISA *)
  at_truncated : int; (* programs whose enumeration hit the budget *)
  at_findings : int;
      (* findings naming this ISA; a pair-labelled cross-ISA finding
         ("x86+rv32") counts toward both members *)
}

type abstract_report = {
  ab_defects : Interpreter.Defects.t;
  ab_units : int; (* compilation units swept *)
  ab_programs : int; (* lowered programs interpreted (units x arches) *)
  ab_paths : int; (* abstract paths enumerated *)
  ab_truncated : int; (* programs whose enumeration hit the budget *)
  ab_crosschecked : int; (* programs cross-checked against Symexec_mc *)
  ab_findings : Finding.t list;
  ab_by_arch : (string * arch_tally) list;
      (* per-ISA sections, in [arches] order — the CI gate asserts one
         section per swept ISA *)
}

let abstract_all ?(defects = Interpreter.Defects.paper)
    ?(arches = Jit.Codegen.all_arches) ?(crosscheck = true) () :
    abstract_report =
  let accessor_gaps = defects.Interpreter.Defects.simulation_accessor_gaps in
  let units = ref 0
  and programs = ref 0
  and paths = ref 0
  and truncated = ref 0
  and crosschecked = ref 0 in
  let findings = ref [] in
  let no_tally =
    { at_programs = 0; at_paths = 0; at_truncated = 0; at_findings = 0 }
  in
  let tallies : (string, arch_tally) Hashtbl.t = Hashtbl.create 4 in
  let run ~subject ~short ~lower final =
    incr units;
    let triples =
      List.map
        (fun arch ->
          let prog = lower arch in
          incr programs;
          let s = Abstract_mc.summarize prog in
          paths := !paths + List.length s.Abstract_mc.apaths;
          if s.Abstract_mc.atruncated then incr truncated;
          let an = arch_name arch in
          let t = Option.value (Hashtbl.find_opt tallies an) ~default:no_tally in
          Hashtbl.replace tallies an
            {
              t with
              at_programs = t.at_programs + 1;
              at_paths = t.at_paths + List.length s.Abstract_mc.apaths;
              at_truncated =
                (t.at_truncated + if s.Abstract_mc.atruncated then 1 else 0);
            };
          (arch, prog, s))
        arches
    in
    let per_arch =
      List.concat_map
        (fun (arch, prog, s) ->
          let an = arch_name arch in
          let fix = Abstract_mc.fixpoint prog in
          let checks =
            Machine_lint.lint ~reach:fix.Abstract_mc.fx_reach ~accessor_gaps
              ~subject ~compiler:short ~arch:an prog
            @ Abstract_mc.check_unit ~fix ~subject ~compiler:short ~arch:an
                ~backend:(Jit.Codegen.backend_of arch) ~ir:final prog
          in
          let cross =
            if crosscheck then begin
              incr crosschecked;
              Abstract_mc.crosscheck ~subject ~compiler:short ~arch:an
                ~accessor_gaps prog s
            end
            else []
          in
          checks @ cross)
        triples
    in
    let differ =
      Frame_diff.differ_arches ~subject ~compiler:short
        (List.map (fun (arch, _, s) -> (arch_name arch, s)) triples)
    in
    findings := !findings @ per_arch @ differ
  in
  List.iter
    (fun op ->
      let subject = Op.mnemonic op in
      let stack_setup = default_stack_setup op in
      List.iter
        (fun compiler ->
          match
            Jit.Cogits.compile_bytecode compiler ~defects
              ~literals:default_literals ~stack_setup op
          with
          | exception Jit.Cogits.Not_compiled _ -> ()
          | final ->
              run ~subject ~short:(Jit.Cogits.short_name compiler)
                ~lower:(fun arch -> Jit.Cogits.lower_for compiler ~arch final)
                final)
        Jit.Cogits.bytecode_compilers)
    (bytecode_universe ());
  List.iter
    (fun id ->
      match Jit.Cogits.compile_native ~defects id with
      | exception Jit.Cogits.Not_compiled _ -> ()
      | final ->
          run
            ~subject:(Interpreter.Primitive_table.name id)
            ~short:"native"
            ~lower:(fun arch ->
              Jit.Cogits.lower_for Jit.Cogits.Native_method_compiler ~arch
                final)
            final)
    Interpreter.Primitive_table.ids;
  let findings_naming name =
    List.length
      (List.filter
         (fun (f : Finding.t) ->
           List.mem name (String.split_on_char '+' f.arch))
         !findings)
  in
  {
    ab_defects = defects;
    ab_units = !units;
    ab_programs = !programs;
    ab_paths = !paths;
    ab_truncated = !truncated;
    ab_crosschecked = !crosschecked;
    ab_findings = !findings;
    ab_by_arch =
      List.map
        (fun arch ->
          let name = arch_name arch in
          let t =
            Option.value (Hashtbl.find_opt tallies name) ~default:no_tally
          in
          (name, { t with at_findings = findings_naming name }))
        arches;
  }

let abstract_causes (r : abstract_report) :
    (Finding.family * string * int) list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (f : Finding.t) ->
      let key = (f.family, f.cause) in
      Hashtbl.replace tbl key
        (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0))
    r.ab_findings;
  Hashtbl.fold (fun (family, cause) n acc -> (family, cause, n) :: acc) tbl []
  |> List.sort compare

let pp_report ppf (r : report) =
  Fmt.pf ppf "static verification: %d units, %d findings, %d causes@."
    r.units
    (List.length r.findings)
    (List.length (causes r));
  List.iter
    (fun (family, cause, n) ->
      Fmt.pf ppf "  %-28s %s (%d finding%s)@."
        (Finding.family_name family)
        cause n
        (if n = 1 then "" else "s"))
    (causes r)
