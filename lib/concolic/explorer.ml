(* The concolic exploration engine (§2.3).

   For one VM instruction (byte-code or native method), repeatedly:
   1. solve the seed path-condition prefix to get concrete inputs,
   2. materialise a fresh object memory and frame,
   3. execute the instruction on the shadow machine, collecting the path
      condition as it held and the exit condition,
   4. record the path, then negate every not-already-negated clause to
      seed further explorations (generational search).

   Unlike classic concolic testing, exploration does *not* stop at
   erroneous exits — invalid-frame and invalid-memory paths are recorded
   like any other (they are the tester's cue to materialise deeper stacks
   and bigger objects). *)

module Sym = Symbolic.Sym_expr
module PC = Symbolic.Path_condition

type result = {
  subject : Path.subject;
  paths : Path.t list;
  iterations : int; (* concolic executions performed *)
  skipped_negations : int; (* negated prefixes the solver could not crack *)
  unsat_negations : int; (* negated prefixes proven infeasible *)
  unsupported : bool; (* instruction not supported by the tester (§4.3) *)
}

(* Method shape for the instruction under test. *)
let required_temps (op : Bytecodes.Opcode.t) =
  match op with
  | Push_temp n | Push_temp_ext n | Store_and_pop_temp n | Store_temp_ext n ->
      n + 1
  | _ -> 0

let default_literal_count = 16

let method_in_for subject (om : Vm_objects.Object_memory.t) :
    Bytecodes.Compiled_method.t =
  let heap = Vm_objects.Object_memory.heap om in
  let literals =
    List.init default_literal_count (fun i ->
        (Vm_objects.Value.of_small_int (101 + i) :> Vm_objects.Value.t))
  in
  match subject with
  | Path.Bytecode op ->
      Bytecodes.Method_builder.build heap ~args:0 ~temps:(required_temps op)
        ~literals [ op ]
  | Path.Bytecode_seq ops ->
      let temps =
        List.fold_left (fun acc op -> max acc (required_temps op)) 0 ops
      in
      Bytecodes.Method_builder.build heap ~args:0 ~temps ~literals ops
  | Path.Native id ->
      let arity = Interpreter.Primitive_table.arity id in
      (* Native methods are hybrid (§4.2): native behaviour plus a
         byte-code fallback body. *)
      Bytecodes.Method_builder.build heap ~args:arity ~literals ~native:id
        [ Bytecodes.Opcode.Push_nil; Bytecodes.Opcode.Return_top ]

let temp_count subject =
  match subject with
  | Path.Bytecode op -> required_temps op
  | Path.Bytecode_seq ops ->
      List.fold_left (fun acc op -> max acc (required_temps op)) 0 ops
  | Path.Native id -> Interpreter.Primitive_table.arity id

(* One concolic execution: returns the exit condition; the shadow machine
   accumulates the path condition and outputs. *)
let execute_once ?(lookahead = false) ~defects subject
    (shadow : Shadow_machine.t) : Interpreter.Exit_condition.t =
  match subject with
  | Path.Bytecode_seq _ -> (
      (* run the whole sequence: Success when the pc runs past the last
         instruction; any other exit ends the path where it happened *)
      let meth = Shadow_machine.M.compiled_method shadow in
      let size = Bytecodes.Compiled_method.bytecode_size meth in
      let rec go fuel =
        if fuel <= 0 then
          raise (Interpreter.Machine_intf.Unsupported_feature "sequence fuel")
        else if Shadow_machine.M.pc shadow >= size then
          Interpreter.Exit_condition.Success
        else
          match
            Shadow_machine.note_return shadow
              (Shadow_machine.Interpreter_shadow.step ~lookahead shadow)
          with
          | Shadow_machine.Interpreter_shadow.Continue -> go (fuel - 1)
          | Shadow_machine.Interpreter_shadow.Exit_send { selector; num_args }
            ->
              Interpreter.Exit_condition.Message_send { selector; num_args }
          | Shadow_machine.Interpreter_shadow.Exit_return _ ->
              Interpreter.Exit_condition.Method_return
      in
      match go 64 with
      | e -> e
      | exception Interpreter.Machine_intf.Invalid_frame_access ->
          Invalid_frame
      | exception Interpreter.Machine_intf.Invalid_memory_trap ->
          Invalid_memory_access
      | exception Bytecodes.Encoding.Invalid_bytecode _ ->
          (* a jump escaped the sequence: running off the method *)
          Invalid_memory_access)
  | Path.Bytecode _ -> (
      match
        Shadow_machine.note_return shadow
          (Shadow_machine.Interpreter_shadow.step shadow)
      with
      | Shadow_machine.Interpreter_shadow.Continue -> Success
      | Shadow_machine.Interpreter_shadow.Exit_send { selector; num_args } ->
          Message_send { selector; num_args }
      | Shadow_machine.Interpreter_shadow.Exit_return _ -> Method_return
      | exception Interpreter.Machine_intf.Invalid_frame_access ->
          Invalid_frame
      | exception Interpreter.Machine_intf.Invalid_memory_trap ->
          Invalid_memory_access)
  | Path.Native id -> (
      match Shadow_machine.Native_shadow.run ~defects shadow ~prim_id:id with
      | Shadow_machine.Native_shadow.Succeeded -> Success
      | Shadow_machine.Native_shadow.Failed -> Failure
      | exception Interpreter.Machine_intf.Invalid_frame_access ->
          Invalid_frame
      | exception Interpreter.Machine_intf.Invalid_memory_trap ->
          Invalid_memory_access)

(* Inherit already-negated flags from the seed prefix (the clauses the
   re-execution reproduced). *)
let align ~(seed : PC.t) (raw : PC.t) : PC.t =
  let rec go seed raw =
    match (seed, raw) with
    | ( (s : PC.clause) :: seed_rest,
        (r : PC.clause) :: raw_rest )
      when Sym.equal s.cond r.cond ->
        { r with already_negated = s.already_negated } :: go seed_rest raw_rest
    | _, raw -> raw
  in
  go seed raw

(* All child seeds of an explored path: negate each not-already-negated
   clause, keeping the prefix before it.  The canonical [prepared] form
   of each child is built alongside by extending a running prefix — each
   clause is normalized once per parent, and a child costs one extra
   insertion instead of re-canonicalising its whole conjunction (the
   sibling negations share the prefix work).  Also returns the full
   path condition's prepared form, which curation reuses. *)
let children_with_preps (pc : PC.t) :
    Solver.Solve.prepared * (PC.t * Solver.Solve.prepared) list =
  let rec go prefix_rev prefix_prep acc = function
    | [] -> (prefix_prep, List.rev acc)
    | (c : PC.clause) :: rest ->
        let acc =
          if c.already_negated then acc
          else
            let child =
              List.rev_append prefix_rev
                [ { PC.cond = Sym.negate c.cond; already_negated = true } ]
            in
            (child, Solver.Solve.extend prefix_prep (Sym.negate c.cond)) :: acc
        in
        go (c :: prefix_rev) (Solver.Solve.extend prefix_prep c.cond) acc rest
  in
  go [] Solver.Solve.empty_prepared [] pc

let explore_uncached ?(max_iterations = 128)
    ?(defects = Interpreter.Defects.default) ?(lookahead = false)
    (subject : Path.subject) : result =
  let gen = Sym.Gen.create () in
  (* One scratch memory per subject, reset to its post-method watermark
     before each materialisation, instead of a fresh heap per path
     iteration (the allocation hot path of this loop). *)
  let arena = Materialize.arena ~method_in:(method_in_for subject) in
  let recv_var = Sym.Gen.fresh gen ~name:"receiver" ~sort:Sym.Oop in
  let size_var = Sym.Gen.fresh gen ~name:"operand_stack_size" ~sort:Sym.Int in
  let stack_size_term = Sym.Var size_var in
  let temp_vars =
    Array.init (temp_count subject) (fun i ->
        Sym.Gen.fresh gen ~name:(Printf.sprintf "temp%d" i) ~sort:Sym.Oop)
  in
  let entry_vars : (int, Sym.var) Hashtbl.t = Hashtbl.create 8 in
  let entry_var rank =
    match Hashtbl.find_opt entry_vars rank with
    | Some v -> v
    | None ->
        let v = Sym.Gen.fresh gen ~name:(Printf.sprintf "s%d" rank) ~sort:Sym.Oop in
        Hashtbl.replace entry_vars rank v;
        v
  in
  (* Worklist entries carry their canonical prepared form; [visited] is
     keyed by its fingerprint, so two seeds whose conjunctions
     canonicalise identically — same model, same materialisation, same
     execution — are explored once. *)
  let worklist = Queue.create () in
  Queue.add (PC.empty, Solver.Solve.empty_prepared) worklist;
  let visited = Hashtbl.create 64 in
  Hashtbl.replace visited (Solver.Solve.fingerprint Solver.Solve.empty_prepared)
    ();
  let seen_paths = Hashtbl.create 64 in
  let paths = ref [] in
  let iterations = ref 0 in
  let skipped = ref 0 in
  let unsat = ref 0 in
  let unsupported = ref false in
  (try
     while (not (Queue.is_empty worklist)) && !iterations < max_iterations do
       Exec.Budget.tick ~cost:64 ();
       let seed, seed_prep = Queue.pop worklist in
       match Solver.Solve.solve_prepared seed_prep with
       | Solver.Solve.Unsat -> incr unsat
       | Solver.Solve.Unknown _ -> incr skipped
       | Solver.Solve.Sat model -> (
           incr iterations;
           let input =
             Materialize.build ~arena ~model
               ~method_in:(method_in_for subject) ~recv_var ~temp_vars
               ~entry_var ~stack_size_term ()
           in
           let stack_syms =
             List.init input.stack_depth (fun i ->
                 Sym.Var (entry_var (input.stack_depth - 1 - i)))
           in
           let shadow =
             Shadow_machine.create ~om:input.om ~frame:input.frame
               ~meth:input.meth ~recv_sym:(Sym.Var recv_var)
               ~temps_sym:(Array.map (fun v -> Sym.Var v) temp_vars)
               ~stack_syms ~stack_size_term
               ~bindings:(List.map (fun (t, v) -> (t, v)) input.bindings)
           in
           match execute_once ~lookahead ~defects subject shadow with
           | exception Interpreter.Machine_intf.Unsupported_feature _ ->
               unsupported := true;
               raise Exit
           | exit_ ->
               let aligned = align ~seed (Shadow_machine.path shadow) in
               let input_frame =
                 Symbolic.Abstract_frame.make ~receiver:(Sym.Var recv_var)
                   ~method_oop:(Bytecodes.Compiled_method.oop input.meth)
                   ~temps:(Array.map (fun v -> Sym.Var v) temp_vars)
                   ~operand_stack:stack_syms ~pc:0
               in
               let full_prep, kids = children_with_preps aligned in
               let k =
                 PC.to_string aligned ^ " => "
                 ^ Interpreter.Exit_condition.to_string exit_
               in
               if not (Hashtbl.mem seen_paths k) then begin
                 Hashtbl.replace seen_paths k ();
                 (* Curate here, once per distinct path: every consumer
                    (compiler × arch) reads the verdict off the path
                    instead of re-posing the full conjunction. *)
                 let curation = Solver.Solve.solve_prepared full_prep in
                 let path =
                   {
                     Path.subject;
                     input_frame;
                     input_stack_depth = input.stack_depth;
                     output =
                       {
                         Path.stack = Shadow_machine.output_stack_syms shadow;
                         temps = Shadow_machine.output_temps_syms shadow;
                         pc = Interpreter.Frame.pc input.frame;
                         effects = Shadow_machine.effects shadow;
                         return_value = Shadow_machine.return_sym shadow;
                       };
                     path_condition = aligned;
                     exit_;
                     model;
                     curation;
                     stack_size_term;
                   }
                 in
                 paths := path :: !paths
               end;
               List.iter
                 (fun (child, cprep) ->
                   let ck = Solver.Solve.fingerprint cprep in
                   if not (Hashtbl.mem visited ck) then begin
                     Hashtbl.replace visited ck ();
                     (* a syntactic refutation (complement pair, empty
                        constant-bound meet) prunes the child without a
                        solver call *)
                     if Solver.Solve.prepared_unsat cprep then incr unsat
                     else Queue.add (child, cprep) worklist
                   end)
                 kids)
     done
   with Exit -> ());
  {
    subject;
    paths = List.rev !paths;
    iterations = !iterations;
    skipped_negations = !skipped;
    unsat_negations = !unsat;
    unsupported = !unsupported;
  }

(* The path-summary cache.  Exploration depends only on (subject,
   defects, iteration bound, lookahead) — every fresh [Gen] numbers its
   variables identically — so the three byte-code compilers and the
   validator share one exploration per subject instead of re-running it
   per consumer.  Results are immutable once built and safe to share
   across domains; the memo's in-flight dedup means concurrent consumers
   block on, rather than duplicate, a running exploration.

   Keyed by the persistent layer's string key: [Hashtbl.hash] reads at
   most ten meaningful words, which a (subject, defects, ...) tuple
   spends on the tuple and the defect flags before a byte-code
   sequence's opcodes, so all sequences would share one hash.  A string
   hashes whole. *)
let cache : (string, result) Exec.Memo.t = Exec.Memo.create ()

(* The persistent layer.  Exploration runs the interpreter shadow, never
   compiled code, so summaries depend on (subject, defect configuration,
   bounds) only — no {!Jit.Fault.cache_tag} in the key (compiled-code
   mutants cannot change them; the validator's machine-path entries are
   the ones that carry the tag). *)
let store_ns = "path-summary:1"

let store_key subject defects max_iterations lookahead =
  Printf.sprintf "%s|defects:%s|iters:%d|lookahead:%b"
    (Path.subject_name subject)
    (Digest.to_hex (Digest.string (Marshal.to_string defects [])))
    max_iterations lookahead

let explore ?(max_iterations = 128) ?(defects = Interpreter.Defects.default)
    ?(lookahead = false) (subject : Path.subject) : result =
  (* Chaos fires before the memo so a warm cache can never mask an
     injected hang, and a faulted attempt never poisons the cache. *)
  Exec.Chaos.hook_explorer ();
  Exec.Memo.find_or_add cache
    (store_key subject defects max_iterations lookahead)
    (fun key ->
      match Exec.Store.lookup ~ns:store_ns ~key with
      | Some r -> r
      | None ->
          let r = explore_uncached ~max_iterations ~defects ~lookahead subject in
          Exec.Store.record ~ns:store_ns ~key r;
          r)

let cache_stats () = Exec.Memo.stats cache
let reset_cache () = Exec.Memo.clear cache
