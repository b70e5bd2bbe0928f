(* Solver-backed translation validation (the suite's pass 5).

   For each concolically explored interpreter path, compile the same
   unit with the compiler under test, symbolically execute the emitted
   machine code ({!Symexec_mc}) and align every machine path against the
   interpreter's recorded path summary:

   - *exit alignment* uses the shared {!Frame_diff.path_exit} shapes (a
     success breakpoint must carry the marker the interpreter's final pc
     demands, a send must call the same selector with the same argument
     count, faults must pair with faults);
   - *value alignment* compares the machine operand stack, frame
     temporaries, heap-effect list and return value word-by-word against
     the interpreter's output constraints — syntactically first (modulo
     commutativity and the tag/untag bridges), falling back to an
     equivalence query against {!Solver.Solve} when both sides are
     integer-sorted terms;
   - *overlap queries* decide whether a machine path whose exit
     disagrees with the interpreter path is actually reachable within
     the interpreter path's condition; a [Sat] answer materialises the
     counterexample model that the difftest runner then replays
     concretely (a static refutation never ships without its dynamic
     witness — the runner downgrades non-reproducing models to spurious
     warnings).

   The symbolic input is threaded through the compiler with *sentinel
   immediates*: the compilation unit's stack-setup constants are
   distinct odd words no real unit contains, and the machine executor's
   [subst] rewrites them back into the interpreter path's input-stack
   variables wherever they were lowered to.  Odd sentinels keep the
   compiler's constant handling on the tagged-integer path, which is
   exactly how the dynamic runner feeds materialised small integers. *)

module Sym = Symbolic.Sym_expr
module MC = Machine.Machine_code
module EC = Interpreter.Exit_condition
module SE = Symexec_mc

type witness = {
  model : Solver.Model.t;
      (* satisfies the interpreter path condition, the machine path
         condition and the mismatch predicate; drives the replay *)
  reason : string;
  missing : bool; (* a missing-functionality (not-compiled) refutation *)
}

type verdict =
  | Proved (* every reachable machine path aligns *)
  | Refuted of witness (* candidate counterexample, pending replay *)
  | Unknown of string (* budget, fragment or alignment limits *)

let verdict_to_string = function
  | Proved -> "proved"
  | Refuted w ->
      Printf.sprintf "refuted (%s%s)" w.reason
        (if w.missing then ", missing functionality" else "")
  | Unknown r -> "unknown: " ^ r

(* --- solver accounting ---

   Queries are counted twice over: an atomic process-wide total (for
   reports), and a per-domain counter (domain-local storage) that lets a
   caller measure the queries *its own* work performed even while other
   domains validate concurrently.  A query is counted when it is posed,
   whether or not the solver memo answers it from cache — so the
   [queries] columns are deterministic at any [-j]. *)

let total_queries_counter = Atomic.make 0
let domain_queries = Domain.DLS.new_key (fun () -> ref 0)

let solve_counted ?query_budget conds =
  match query_budget with
  | Some b when !b <= 0 -> Solver.Solve.Unknown "solver query budget exhausted"
  | _ ->
      Atomic.incr total_queries_counter;
      incr (Domain.DLS.get domain_queries);
      (match query_budget with Some b -> decr b | None -> ());
      Solver.Solve.solve conds

let total_queries () = Atomic.get total_queries_counter
let reset_total_queries () = Atomic.set total_queries_counter 0

let with_query_count f =
  let c = Domain.DLS.get domain_queries in
  let before = !c in
  let r = f () in
  (r, !c - before)

(* --- term equality, modulo commutativity and negation shapes --- *)

let flip_cmp : Sym.cmp -> Sym.cmp = function
  | Sym.Ceq -> Sym.Ceq
  | Sym.Cne -> Sym.Cne
  | Sym.Clt -> Sym.Cgt
  | Sym.Cle -> Sym.Cge
  | Sym.Cgt -> Sym.Clt
  | Sym.Cge -> Sym.Cle

let negate_cmp : Sym.cmp -> Sym.cmp = function
  | Sym.Ceq -> Sym.Cne
  | Sym.Cne -> Sym.Ceq
  | Sym.Clt -> Sym.Cge
  | Sym.Cle -> Sym.Cgt
  | Sym.Cgt -> Sym.Cle
  | Sym.Cge -> Sym.Clt

let rec term_equal (a : Sym.t) (b : Sym.t) : bool =
  Sym.equal a b
  ||
  match (a, b) with
  | Sym.Add (x1, y1), Sym.Add (x2, y2) | Sym.Mul (x1, y1), Sym.Mul (x2, y2) ->
      (term_equal x1 x2 && term_equal y1 y2)
      || (term_equal x1 y2 && term_equal y1 x2)
  | Sym.Bit_and (x1, y1), Sym.Bit_and (x2, y2)
  | Sym.Bit_or (x1, y1), Sym.Bit_or (x2, y2)
  | Sym.Bit_xor (x1, y1), Sym.Bit_xor (x2, y2) ->
      (term_equal x1 x2 && term_equal y1 y2)
      || (term_equal x1 y2 && term_equal y1 x2)
  | Sym.Sub (x1, y1), Sym.Sub (x2, y2)
  | Sym.Div (x1, y1), Sym.Div (x2, y2)
  | Sym.Mod (x1, y1), Sym.Mod (x2, y2)
  | Sym.Quo (x1, y1), Sym.Quo (x2, y2)
  | Sym.Rem (x1, y1), Sym.Rem (x2, y2)
  | Sym.Shift_left (x1, y1), Sym.Shift_left (x2, y2)
  | Sym.Shift_right (x1, y1), Sym.Shift_right (x2, y2)
  | Sym.Slot_at (x1, y1), Sym.Slot_at (x2, y2)
  | Sym.Byte_at (x1, y1), Sym.Byte_at (x2, y2)
  | Sym.Point_of (x1, y1), Sym.Point_of (x2, y2) ->
      term_equal x1 x2 && term_equal y1 y2
  | Sym.Integer_value_of x, Sym.Integer_value_of y
  | Sym.Integer_object_of x, Sym.Integer_object_of y
  | Sym.Float_value_of x, Sym.Float_value_of y
  | Sym.Float_object_of x, Sym.Float_object_of y
  | Sym.Char_object_of x, Sym.Char_object_of y
  | Sym.Char_value_of x, Sym.Char_value_of y
  | Sym.Neg x, Sym.Neg y
  | Sym.Abs x, Sym.Abs y
  | Sym.Class_object_of x, Sym.Class_object_of y
  | Sym.Class_index_of x, Sym.Class_index_of y
  | Sym.Num_slots_of x, Sym.Num_slots_of y
  | Sym.Indexable_size_of x, Sym.Indexable_size_of y
  | Sym.Fixed_size_of x, Sym.Fixed_size_of y
  | Sym.Identity_hash_of x, Sym.Identity_hash_of y
  | Sym.Shallow_copy_of x, Sym.Shallow_copy_of y ->
      term_equal x y
  | Sym.F_binop (o1, x1, y1), Sym.F_binop (o2, x2, y2) ->
      Sym.equal_fbinop o1 o2
      &&
      let comm = match o1 with Sym.F_add | Sym.F_mul -> true | _ -> false in
      (term_equal x1 x2 && term_equal y1 y2)
      || (comm && term_equal x1 y2 && term_equal y1 x2)
  | Sym.F_unop (o1, x), Sym.F_unop (o2, y) ->
      Sym.equal_funop o1 o2 && term_equal x y
  | Sym.Bool_object_of p, Sym.Bool_object_of q -> cond_equal p q
  | _ -> false

(* Condition equality, additionally folding negated-compare shapes:
   [Not (Cmp (c, a, b))] ≡ [Cmp (¬c, a, b)] ≡ [Cmp (flip ¬c, b, a)].
   Float compares are NOT folded through negation (NaN). *)
and cond_equal (p : Sym.t) (q : Sym.t) : bool =
  Sym.equal p q
  ||
  match (p, q) with
  | Sym.Cmp (c1, a1, b1), Sym.Cmp (c2, a2, b2) ->
      (c1 = c2 && term_equal a1 a2 && term_equal b1 b2)
      || (c1 = flip_cmp c2 && term_equal a1 b2 && term_equal b1 a2)
  | Sym.F_cmp (c1, a1, b1), Sym.F_cmp (c2, a2, b2) ->
      (c1 = c2 && term_equal a1 a2 && term_equal b1 b2)
      || (c1 = flip_cmp c2 && term_equal a1 b2 && term_equal b1 a2)
  | Sym.Not (Sym.Cmp (c1, a1, b1)), Sym.Cmp _ ->
      cond_equal (Sym.Cmp (negate_cmp c1, a1, b1)) q
  | Sym.Cmp _, Sym.Not (Sym.Cmp (c2, a2, b2)) ->
      cond_equal p (Sym.Cmp (negate_cmp c2, a2, b2))
  | Sym.Not x, Sym.Not y -> cond_equal x y
  | Sym.And (x1, y1), Sym.And (x2, y2) | Sym.Or (x1, y1), Sym.Or (x2, y2) ->
      (cond_equal x1 x2 && cond_equal y1 y2)
      || (cond_equal x1 y2 && cond_equal y1 x2)
  | Sym.Oop_eq (a1, b1), Sym.Oop_eq (a2, b2) ->
      (term_equal a1 a2 && term_equal b1 b2)
      || (term_equal a1 b2 && term_equal b1 a2)
  | Sym.Is_small_int x, Sym.Is_small_int y
  | Sym.Is_float_object x, Sym.Is_float_object y
  | Sym.Is_pointers x, Sym.Is_pointers y
  | Sym.Is_bytes x, Sym.Is_bytes y
  | Sym.Is_indexable x, Sym.Is_indexable y
  | Sym.Is_in_small_int_range x, Sym.Is_in_small_int_range y
  | Sym.F_is_nan x, Sym.F_is_nan y ->
      term_equal x y
  | Sym.Has_class (x, c1), Sym.Has_class (y, c2) -> c1 = c2 && term_equal x y
  | _ -> false

(* Range bridging: the interpreter expresses overflow checks as
   [Is_in_small_int_range t] while [I_check_range] lowers to two machine
   compares against the small-int bounds.  Normalize a compare-shaped
   clause to (cmp, term, constant) and relate the two vocabularies. *)
let max_si = Vm_objects.Value.max_small_int
let min_si = Vm_objects.Value.min_small_int

let rec norm_cmp (p : Sym.t) : (Sym.cmp * Sym.t * int) option =
  match p with
  | Sym.Cmp (c, t, Sym.Int_const k) -> Some (c, t, k)
  | Sym.Cmp (c, Sym.Int_const k, t) -> Some (flip_cmp c, t, k)
  | Sym.Not q -> (
      match norm_cmp q with
      | Some (c, t, k) -> Some (negate_cmp c, t, k)
      | None -> None)
  | _ -> None

(* clause ⇒ t <= max_small_int *)
let is_upper_bound t clause =
  match norm_cmp clause with
  | Some (Sym.Cle, u, k) -> term_equal u t && k <= max_si
  | Some (Sym.Clt, u, k) -> term_equal u t && k - 1 <= max_si
  | _ -> false

(* clause ⇒ t >= min_small_int *)
let is_lower_bound t clause =
  match norm_cmp clause with
  | Some (Sym.Cge, u, k) -> term_equal u t && k >= min_si
  | Some (Sym.Cgt, u, k) -> term_equal u t && k + 1 >= min_si
  | _ -> false

(* clause ⇒ t outside the small-int range *)
let is_out_of_range t clause =
  match norm_cmp clause with
  | Some (Sym.Cgt, u, k) -> term_equal u t && k >= max_si
  | Some (Sym.Cge, u, k) -> term_equal u t && k > max_si
  | Some (Sym.Clt, u, k) -> term_equal u t && k <= min_si
  | Some (Sym.Cle, u, k) -> term_equal u t && k < min_si
  | _ -> false

let range_implied (conds : Sym.t list) (p : Sym.t) : bool =
  let has_range_fact t =
    List.exists
      (function Sym.Is_in_small_int_range u -> term_equal u t | _ -> false)
      conds
  in
  match p with
  | Sym.Is_in_small_int_range t ->
      List.exists (is_upper_bound t) conds
      && List.exists (is_lower_bound t) conds
  | Sym.Not (Sym.Is_in_small_int_range t) ->
      List.exists (is_out_of_range t) conds
  | _ -> (
      (* a bound consequence of an in-range fact *)
      match norm_cmp p with
      | Some (Sym.Cle, t, k) when k >= max_si -> has_range_fact t
      | Some (Sym.Clt, t, k) when k - 1 >= max_si -> has_range_fact t
      | Some (Sym.Cge, t, k) when k <= min_si -> has_range_fact t
      | Some (Sym.Cgt, t, k) when k + 1 <= min_si -> has_range_fact t
      | _ -> false)

(* Does the machine path's condition set imply [p]?  Syntactic
   membership (modulo {!cond_equal}), the executor's class-format
   derivation rules, and small-int range bridging. *)
let cond_implied (conds : Sym.t list) (p : Sym.t) : bool =
  SE.implied conds p
  || List.exists (fun c -> cond_equal c p) conds
  || range_implied conds p

(* --- word-level value alignment --- *)

type value_eq =
  | V_equal
  | V_diff of string (* definitely different *)
  | V_query of Sym.t * string (* different iff this predicate is Sat *)
  | V_unknown of string

let nil_word = Jit.Ir.nil_word
let true_word = Jit.Ir.true_word
let false_word = Jit.Ir.false_word

(* Compare one interpreter output term against one machine word, under
   the machine path's condition set (needed to decide constant boolean
   words against the interpreter's symbolic comparison results). *)
let word_matches ~(mconds : Sym.t list) (interp : Sym.t) (w : SE.word)
    ~(what : string) : value_eq =
  match w with
  | SE.W_oop me ->
      if term_equal interp me then V_equal
      else (
        match (interp, me) with
        | Sym.Integer_object_of ti, Sym.Integer_object_of tm ->
            V_query (Sym.Cmp (Sym.Cne, ti, tm), what)
        | _ -> V_unknown (what ^ ": incomparable oop terms"))
  | SE.W_const c -> (
      match interp with
      | Sym.Oop_const v -> if (v :> int) = c then V_equal else V_diff what
      | Sym.Integer_object_of (Sym.Int_const k) ->
          if c = (2 * k) + 1 then V_equal else V_diff what
      | Sym.Integer_object_of t when c land 1 = 1 ->
          V_query (Sym.Cmp (Sym.Cne, t, Sym.Int_const (c asr 1)), what)
      | Sym.Bool_object_of (Sym.Bool_const b) ->
          if c = (if b then true_word else false_word) then V_equal
          else V_diff what
      | Sym.Bool_object_of p ->
          if c = true_word then
            if cond_implied mconds p then V_equal
            else if cond_implied mconds (SE.negate_cond p) then V_diff what
            else V_unknown (what ^ ": boolean result undecided")
          else if c = false_word then
            if cond_implied mconds (SE.negate_cond p) then V_equal
            else if cond_implied mconds p then V_diff what
            else V_unknown (what ^ ": boolean result undecided")
          else V_diff what
      | _ ->
          if c = nil_word || c = true_word || c = false_word || c land 1 = 1
          then V_unknown (what ^ ": constant vs symbolic term")
          else V_diff (what ^ ": raw constant where an oop is expected"))
  | SE.W_int _ -> V_diff (what ^ ": untagged word where an oop is expected")
  | SE.W_format _ -> V_unknown (what ^ ": format word where an oop is expected")
  | SE.W_bool _ ->
      V_diff (what ^ ": materialised condition where an oop is expected")
  | SE.W_unknown r -> V_unknown (what ^ ": " ^ r)

(* Fold a list of per-value comparisons: any definite difference wins,
   then any queryable difference, then any unknown. *)
let join_values (vs : value_eq list) : value_eq =
  let diff = List.find_opt (function V_diff _ -> true | _ -> false) vs in
  let query = List.find_opt (function V_query _ -> true | _ -> false) vs in
  let unk = List.find_opt (function V_unknown _ -> true | _ -> false) vs in
  match (diff, query, unk) with
  | Some d, _, _ -> d
  | None, Some q, _ -> q
  | None, None, Some u -> u
  | None, None, None -> V_equal

(* Byte writes store raw (Int-sorted) values on both sides: the shadow
   machine records the untagged number, the executor an untagged word. *)
let int_word_matches (interp : Sym.t) (w : SE.word) ~(what : string) :
    value_eq =
  match w with
  | SE.W_int t ->
      if term_equal interp t then V_equal
      else V_query (Sym.Cmp (Sym.Cne, interp, t), what)
  | SE.W_const c -> (
      match interp with
      | Sym.Int_const k -> if k = c then V_equal else V_diff what
      | t -> V_query (Sym.Cmp (Sym.Cne, t, Sym.Int_const c), what))
  | SE.W_oop _ -> V_diff (what ^ ": oop where a raw value is expected")
  | SE.W_format _ -> V_unknown (what ^ ": format word as stored value")
  | SE.W_bool _ -> V_unknown (what ^ ": materialised condition as stored value")
  | SE.W_unknown r -> V_unknown (what ^ ": " ^ r)

(* Heap effects: counts and kinds must match; bases and stored values
   align like any word; a machine write with a *symbolic* index is
   compared on base and value only (the interpreter records concrete
   indices — a documented incompleteness of the static layer). *)
let effects_match ~mconds (effects : Concolic.Shadow_machine.effect list)
    (writes : SE.write list) : value_eq =
  if List.length effects <> List.length writes then
    V_diff
      (Printf.sprintf "heap effect count: interpreter %d, machine %d"
         (List.length effects) (List.length writes))
  else
    join_values
      (List.map2
         (fun (eff : Concolic.Shadow_machine.effect) (w : SE.write) ->
           let one ~target ~index ~stored ~(base : Sym.t)
               ~(midx : SE.word) ~(mstored : SE.word) ~what ~raw =
             let base_eq =
               if term_equal target base then V_equal
               else V_unknown (what ^ ": write target")
             in
             let idx_eq =
               match midx with
               | SE.W_const c | SE.W_int (Sym.Int_const c) ->
                   if c = index then V_equal
                   else V_diff (what ^ ": write index")
               | _ -> V_equal (* symbolic index: checked dynamically only *)
             in
             let stored_eq =
               if raw then
                 int_word_matches stored mstored ~what:(what ^ ": stored")
               else
                 word_matches ~mconds stored mstored ~what:(what ^ ": stored")
             in
             join_values [ base_eq; idx_eq; stored_eq ]
           in
           match (eff, w) with
           | ( Concolic.Shadow_machine.Slot_write { target; index; stored },
               SE.Wr_slot { base; index = midx; stored = mstored } ) ->
               one ~target ~index ~stored ~base ~midx ~mstored
                 ~what:"heap slot" ~raw:false
           | ( Concolic.Shadow_machine.Byte_write { target; index; stored },
               SE.Wr_byte { base; index = midx; stored = mstored } ) ->
               one ~target ~index ~stored ~base ~midx ~mstored
                 ~what:"heap byte" ~raw:true
           | _ -> V_diff "heap effect kind")
         effects writes)

(* --- exit alignment (the shared shapes of {!Frame_diff}) --- *)

(* Expected final pc → stop marker for branch instructions; mirrors the
   difftest runner's mapping of Listing 3's two breakpoints. *)
let expected_marker (path : Concolic.Path.t) =
  match path.subject with
  | Concolic.Path.Native _ | Concolic.Path.Bytecode_seq _ -> 0
  | Concolic.Path.Bytecode op -> (
      match op with
      | Bytecodes.Opcode.Jump d | Jump_false d | Jump_true d ->
          if path.output.pc = 1 + d then 1 else 0
      | Jump_ext d | Jump_false_ext d | Jump_true_ext d ->
          if path.output.pc = 2 + d then 1 else 0
      | _ -> 0)

let interp_exit_shape (path : Concolic.Path.t) : Frame_diff.path_exit =
  let native = Concolic.Path.subject_is_native path.subject in
  match path.exit_ with
  | EC.Success ->
      if native then Frame_diff.P_return
      else Frame_diff.P_stop (expected_marker path)
  | EC.Failure -> Frame_diff.P_stop 0 (* native fall-through breakpoint *)
  | EC.Message_send { selector; num_args } ->
      Frame_diff.P_send (EC.selector_name selector, num_args)
  | EC.Method_return -> Frame_diff.P_return
  | EC.Invalid_memory_access -> Frame_diff.P_fault
  | EC.Invalid_frame -> Frame_diff.P_other "invalid frame"

let machine_exit_shape (e : SE.exit_) : Frame_diff.path_exit =
  match e with
  | SE.M_ret _ -> Frame_diff.P_return
  | SE.M_stop m -> Frame_diff.P_stop m
  | SE.M_send info ->
      Frame_diff.P_send (EC.selector_name info.selector, info.num_args)
  | SE.M_segfault -> Frame_diff.P_fault
  | SE.M_sim_error _ -> Frame_diff.P_sim_error
  | SE.M_stuck r -> Frame_diff.P_other r

(* --- sentinel templates --- *)

let sentinel j = 0x5EED0001 + (2 * j)
let template_literals = Array.init 16 (fun i -> Jit.Ir.tagged_int (101 + i))

type compiled = Machine_paths of SE.result | Missing of string

(* Machine-path enumeration depends only on (subject, compiler, arch,
   defects, input frame shape and variable identities); memoize across
   the many interpreter paths sharing one frame shape.  A concurrent
   memo: validation units for the same subject on different domains
   share (rather than duplicate) the symbolic execution. *)
let mc_cache : (string, compiled) Exec.Memo.t = Exec.Memo.create ()

let var_id (e : Sym.t) = match e with Sym.Var v -> v.id | _ -> -1

let frame_signature (frame : Symbolic.Abstract_frame.t) =
  let stack = Symbolic.Abstract_frame.operand_stack frame in
  Printf.sprintf "r%d|t%s|s%s"
    (var_id (Symbolic.Abstract_frame.receiver frame))
    (String.concat ","
       (Array.to_list
          (Array.map
             (fun t -> string_of_int (var_id t))
             (Symbolic.Abstract_frame.temps frame))))
    (String.concat "," (List.map (fun e -> string_of_int (var_id e)) stack))

(* Persistent layer for the machine-path enumeration.  The key carries
   the fault tag: mutant machine code must never satisfy a pristine
   lookup (and distinct mutants must never satisfy each other's). *)
let mc_store_ns = "mc-paths:1"

let machine_paths ?se_budget ~ir_slot ~(defects : Interpreter.Defects.t)
    ~(compiler : Jit.Cogits.compiler) ~(arch : Jit.Codegen.arch)
    (path : Concolic.Path.t) : compiled =
  let frame = path.input_frame in
  let key =
    (* the Fault tag keeps mutant machine paths out of the pristine
       entries (and distinct mutants out of each other's) *)
    Printf.sprintf "%s|%s|%s|%d|%s%s%s"
      (Concolic.Path.subject_name path.subject)
      (Jit.Cogits.short_name compiler)
      (Jit.Codegen.arch_name arch)
      (Hashtbl.hash defects) (frame_signature frame)
      (match se_budget with
      | Some (b : SE.budget) ->
          Printf.sprintf "|se:%d:%d:%d" b.max_paths b.max_conds b.max_steps
      | None -> "")
      (Jit.Fault.cache_tag ())
  in
  Exec.Memo.find_or_add mc_cache key @@ fun _ ->
  match Exec.Store.lookup ~ns:mc_store_ns ~key with
  | Some c -> c
  | None ->
      let accessor_gaps = defects.Interpreter.Defects.simulation_accessor_gaps in
      let run program ~subst ~init_regs ~init_temps =
        Machine_paths
          (SE.execute ?budget:se_budget ~accessor_gaps ~subst ~init_regs
             ~init_temps program)
      in
      let c =
        match path.subject with
        | Concolic.Path.Native id -> (
            let stack = Symbolic.Abstract_frame.operand_stack frame in
            let init_regs =
              List.mapi
                (fun i e ->
                  ( (if i = 0 then MC.r_receiver else MC.r_arg0 + i - 1),
                    SE.W_oop e ))
                stack
            in
            match
              Jit.Cogits.lower_for Jit.Cogits.Native_method_compiler ~arch
                (Jit.Cogits.compile_once ir_slot (fun () ->
                     Jit.Cogits.compile_native ~defects id))
            with
            | exception Jit.Cogits.Not_compiled msg -> Missing msg
            | program ->
                run program
                  ~subst:(fun _ -> None)
                  ~init_regs ~init_temps:[||])
        | Concolic.Path.Bytecode _ | Concolic.Path.Bytecode_seq _ -> (
            let stack = Symbolic.Abstract_frame.operand_stack frame in
            let depth = List.length stack in
            let stack_setup = List.init depth sentinel in
            let subst_tbl = Hashtbl.create (max depth 1) in
            List.iteri
              (fun j e -> Hashtbl.replace subst_tbl (sentinel j) (SE.W_oop e))
              stack;
            let subst c = Hashtbl.find_opt subst_tbl c in
            let init_regs =
              [ (MC.r_receiver, SE.W_oop (Symbolic.Abstract_frame.receiver frame)) ]
            in
            let init_temps =
              Array.map
                (fun t -> SE.W_oop t)
                (Symbolic.Abstract_frame.temps frame)
            in
            (* the sentinel-literal IR depends on the path's stack
               depth, not on the ISA: one compile per path *)
            let compile () =
              Jit.Cogits.lower_for compiler ~arch
                (Jit.Cogits.compile_once ir_slot (fun () ->
                     match path.subject with
                     | Concolic.Path.Bytecode op ->
                         Jit.Cogits.compile_bytecode compiler ~defects
                           ~literals:template_literals ~stack_setup op
                     | Concolic.Path.Bytecode_seq ops ->
                         Jit.Cogits.compile_sequence compiler ~defects
                           ~literals:template_literals ~stack_setup ops
                     | Concolic.Path.Native _ -> assert false))
            in
            match compile () with
            | exception Jit.Cogits.Not_compiled msg -> Missing msg
            | program -> run program ~subst ~init_regs ~init_temps)
      in
      Exec.Store.record ~ns:mc_store_ns ~key c;
      c

(* --- per-pair classification --- *)

type pair_class =
  | C_disjoint (* the two path conditions cannot hold together *)
  | C_compatible (* aligned exit, aligned values *)
  | C_mismatch of Sym.t option * string
      (* refutation candidate: optional extra mismatch predicate *)
  | C_unknown of string

(* Cheap syntactic disjointness: some clause of one side is implied
   false by the other side.  Keeps pristine validations query-free. *)
let disjoint (p_conds : Sym.t list) (m_conds : Sym.t list) : bool =
  List.exists (fun c -> cond_implied p_conds (SE.negate_cond c)) m_conds
  || List.exists (fun c -> cond_implied m_conds (SE.negate_cond c)) p_conds

let classify_pair ~(path : Concolic.Path.t) ~(p_conds : Sym.t list)
    (m : SE.path) : pair_class =
  if disjoint p_conds m.SE.conds then C_disjoint
  else
    let mconds = m.SE.conds in
    let pshape = interp_exit_shape path in
    let mshape = machine_exit_shape m.SE.exit_ in
    match m.SE.exit_ with
    | SE.M_stuck r -> C_unknown ("machine path outside the fragment: " ^ r)
    | _ when not (Frame_diff.align_exits pshape mshape) ->
        C_mismatch
          ( None,
            Printf.sprintf "exit: interpreter %s vs machine %s"
              (EC.to_string path.exit_)
              (SE.exit_to_string m.SE.exit_) )
    | _ -> (
        (* exits align: refine with the value checks the runner applies
           dynamically for this exit kind *)
        let native = Concolic.Path.subject_is_native path.subject in
        let values =
          match (path.exit_, m.SE.exit_) with
          | EC.Success, SE.M_stop _ when not native ->
              let stack_eq =
                if List.length m.SE.stack <> List.length path.output.stack
                then
                  V_diff
                    (Printf.sprintf
                       "stack depth: machine %d, interpreter %d"
                       (List.length m.SE.stack)
                       (List.length path.output.stack))
                else
                  join_values
                    (List.map2
                       (fun i w -> word_matches ~mconds i w ~what:"stack slot")
                       path.output.stack m.SE.stack)
              in
              let temps_eq =
                join_values
                  (List.mapi
                     (fun i e ->
                       if i < Array.length m.SE.temps then
                         word_matches ~mconds e m.SE.temps.(i)
                           ~what:(Printf.sprintf "temp %d" i)
                       else V_unknown (Printf.sprintf "temp %d: untracked" i))
                     (Array.to_list path.output.temps))
              in
              let eff_eq =
                effects_match ~mconds path.output.effects m.SE.writes
              in
              join_values [ stack_eq; temps_eq; eff_eq ]
          | EC.Success, SE.M_ret w when native -> (
              match List.rev path.output.stack with
              | result :: _ ->
                  join_values
                    [
                      word_matches ~mconds result w ~what:"result";
                      effects_match ~mconds path.output.effects m.SE.writes;
                    ]
              | [] -> V_diff "no result on the interpreter stack")
          | EC.Method_return, SE.M_ret w -> (
              match path.output.return_value with
              | None -> V_equal
              | Some e -> word_matches ~mconds e w ~what:"return value")
          | _ -> V_equal (* sends/faults/failures: shape-aligned is enough *)
        in
        match values with
        | V_equal -> C_compatible
        | V_diff what -> C_mismatch (None, "value: " ^ what)
        | V_query (cond, what) -> C_mismatch (Some cond, "value: " ^ what)
        | V_unknown r -> C_unknown r)

(* --- the per-path validation verdict --- *)

let validate_path_uncached ?se_budget ?query_budget ~ir_slot
    ~(defects : Interpreter.Defects.t) ~(compiler : Jit.Cogits.compiler)
    ~(arch : Jit.Codegen.arch) (path : Concolic.Path.t) : verdict =
  match path.exit_ with
  | EC.Invalid_frame -> Unknown "invalid-frame path (not validated)"
  | _ -> (
      let depth = path.input_stack_depth in
      let skip_native =
        match path.subject with
        | Concolic.Path.Native id ->
            depth <> Interpreter.Primitive_table.arity id + 1
        | _ -> false
      in
      if skip_native then
        Unknown "input stack does not match the native calling convention"
      else
        match
          machine_paths ?se_budget ~ir_slot ~defects ~compiler ~arch path
        with
        | Missing msg ->
            (* no machine code at all: every validated path of this unit
               is refuted by the unit's own witness model *)
            Refuted
              { model = path.model; reason = "not compiled: " ^ msg; missing = true }
        | Machine_paths { paths = mpaths; truncated } -> (
            let p_conds =
              Symbolic.Path_condition.conditions path.path_condition
            in
            (* pin the replay to this path's frame shape *)
            let pin =
              Sym.Cmp (Sym.Ceq, path.stack_size_term, Sym.Int_const depth)
            in
            let compatible = ref 0 in
            let unknowns = ref [] in
            let refutation = ref None in
            List.iter
              (fun (m : SE.path) ->
                if !refutation = None then
                  match classify_pair ~path ~p_conds m with
                  | C_disjoint -> ()
                  | C_compatible -> incr compatible
                  | C_unknown r -> unknowns := r :: !unknowns
                  | C_mismatch (extra, reason) -> (
                      let conds =
                        (pin :: p_conds)
                        @ m.SE.conds
                        @ match extra with Some c -> [ c ] | None -> []
                      in
                      match solve_counted ?query_budget conds with
                      | Solver.Solve.Sat model ->
                          refutation :=
                            Some { model; reason; missing = false }
                      | Solver.Solve.Unsat ->
                          (* the pair is unreachable together (or the
                             values provably agree) *)
                          if extra <> None then incr compatible
                      | Solver.Solve.Unknown r ->
                          unknowns := (reason ^ " (solver: " ^ r ^ ")") :: !unknowns))
              mpaths;
            match !refutation with
            | Some w -> Refuted w
            | None ->
                if !unknowns <> [] then Unknown (List.hd (List.rev !unknowns))
                else if truncated then
                  Unknown "machine path budget exhausted"
                else if !compatible = 0 then
                  Unknown "no machine path aligns with this interpreter path"
                else Proved))

(* Persistent layer for whole per-path verdicts — the third memo layer.
   Only unbudgeted validations persist: a query budget degrades verdicts
   to Unknown depending on how much of the budget earlier units spent,
   which is process state, not a function of the key.  The key pins
   everything the verdict reads: subject, compiler, arch, defect
   configuration, frame shape, stack depth, the full path condition and
   exit, the symbolic-execution budget, and the fault tag (a mutant's
   refuted verdict must never satisfy a pristine lookup).

   A campaign's validated unit reads its whole unit-verdict entry
   ({!Ijdt_core.Campaign.test_instruction}) before it reaches this
   tier, and only writes it on a miss.  The tier stays for the callers
   that validate one path at a time: [Difftest.Runner.run_path_verified]
   and perfbench's traced driver, whose warm runs would otherwise
   re-pose every validator query.  It can go once the traced driver
   calls the campaign's unit entry point (ROADMAP item 3). *)
let verdict_store_ns = "validate-verdict:1"

let validate_path ?se_budget ?query_budget ?(ir_slot = Jit.Cogits.ir_slot ())
    ~(defects : Interpreter.Defects.t) ~(compiler : Jit.Cogits.compiler)
    ~(arch : Jit.Codegen.arch) (path : Concolic.Path.t) : verdict =
  (* the key prints the whole path condition: build it only for a store *)
  match query_budget with
  | Some _ ->
      validate_path_uncached ?se_budget ?query_budget ~ir_slot ~defects
        ~compiler ~arch path
  | None when not (Exec.Store.enabled ()) ->
      validate_path_uncached ?se_budget ~ir_slot ~defects ~compiler ~arch path
  | None -> (
      let key =
        Printf.sprintf "%s|%s|%s|%d|%s|d%d%s|%s%s"
          (Concolic.Path.subject_name path.subject)
          (Jit.Cogits.short_name compiler)
          (Jit.Codegen.arch_name arch)
          (Hashtbl.hash defects)
          (frame_signature path.input_frame)
          path.input_stack_depth
          (match se_budget with
          | Some (b : SE.budget) ->
              Printf.sprintf "|se:%d:%d:%d" b.max_paths b.max_conds b.max_steps
          | None -> "")
          (Concolic.Path.key path)
          (Jit.Fault.cache_tag ())
      in
      match Exec.Store.lookup ~ns:verdict_store_ns ~key with
      | Some v -> v
      | None ->
          let v =
            validate_path_uncached ?se_budget ~ir_slot ~defects ~compiler ~arch
              path
          in
          Exec.Store.record ~ns:verdict_store_ns ~key v;
          v)
