(* Symbolic execution of emitted machine code (the tentpole of the
   translation-validation layer).

   Mirrors {!Machine.Cpu} instruction by instruction, but over machine
   words that are {!Symbolic.Sym_expr} terms instead of concrete tagged
   oops: the register file, the machine operand stack, frame temporaries
   and spill slots hold symbolic words; heap accessor reads become
   structural terms ([Slot_at], [Num_slots_of], ...); trampoline calls
   are terminal uninterpreted summaries (exactly how the CPU simulator
   treats them).  Every conditional branch, reflective-trap guard and
   ALU trap forks the state, so one run enumerates every machine-code
   path up to a bounded guard depth and emits, per path, the triple the
   validator aligns: path condition, frame-effect summary, exit
   condition.

   The symbolic flag register records the *origin* of the flags (which
   compare, which ALU result, which tag test) rather than three boolean
   terms; branch conditions are then derived per {!Machine.Cpu.cond_holds}
   at the branch, which keeps conditions in the VM-semantics language the
   solver understands ([Is_small_int v], not bit twiddling — §3.3). *)

module Sym = Symbolic.Sym_expr
module MC = Machine.Machine_code
module BV = Machine.Backend_sig

(* A symbolic machine word.  The same register holds a tagged oop or a
   raw untagged integer at different program points (mid-sequence
   untagged arithmetic), so the word tracks its own view.  [W_format] is
   the result of [Load_format]: comparing it against a constant decodes
   back into structural predicates. *)
type word =
  | W_oop of Sym.t  (** a tagged oop, oop-sorted term *)
  | W_int of Sym.t  (** a raw untagged integer, int-sorted term *)
  | W_const of int  (** a known concrete machine word *)
  | W_format of Sym.t  (** the header format code of this oop *)
  | W_bool of Sym.t
      (** a materialised condition value: 1 iff the condition holds (the
          flagless back-end's [R_scmp]/[R_stag]/[R_sovf]/[R_fset]
          results) *)
  | W_unknown of string  (** a value the executor cannot track *)

type fword = F_sym of Sym.t | F_unknown of string

type exit_ =
  | M_ret of word  (** returned to the caller, result word *)
  | M_stop of int  (** breakpoint, with its marker id *)
  | M_send of MC.send_info  (** called the send trampoline *)
  | M_segfault  (** invalid access / ALU trap / stack underflow *)
  | M_sim_error of string  (** reflective trap hit a missing accessor *)
  | M_stuck of string  (** outside the executor's fragment *)

type write =
  | Wr_slot of { base : Sym.t; index : word; stored : word }
  | Wr_byte of { base : Sym.t; index : word; stored : word }

type path = {
  conds : Sym.t list;  (** path condition, in branch order *)
  exit_ : exit_;
  stack : word list;  (** machine operand stack at exit, bottom-up *)
  temps : word array;
  writes : write list;  (** heap stores performed, in program order *)
}

type budget = { max_paths : int; max_conds : int; max_steps : int }

let default_budget = { max_paths = 192; max_conds = 48; max_steps = 2048 }

type result = { paths : path list; truncated : bool }

(* --- rendering (reports and tests) --- *)

let word_to_string = function
  | W_oop e -> Sym.to_string e
  | W_int e -> "int:" ^ Sym.to_string e
  | W_const c -> Printf.sprintf "#%d" c
  | W_format e -> "format:" ^ Sym.to_string e
  | W_bool e -> "bool:" ^ Sym.to_string e
  | W_unknown m -> "?" ^ m

let pp_word ppf w = Fmt.string ppf (word_to_string w)

let exit_to_string = function
  | M_ret w -> "ret " ^ word_to_string w
  | M_stop m -> Printf.sprintf "stop[%d]" m
  | M_send i ->
      Printf.sprintf "send %s/%d"
        (Interpreter.Exit_condition.selector_name i.MC.selector)
        i.MC.num_args
  | M_segfault -> "segfault"
  | M_sim_error m -> "simulation-error: " ^ m
  | M_stuck m -> "stuck: " ^ m

let pp_exit ppf e = Fmt.string ppf (exit_to_string e)

(* --- condition algebra --- *)

let negate_cmp : Sym.cmp -> Sym.cmp = function
  | Ceq -> Cne
  | Cne -> Ceq
  | Clt -> Cge
  | Cge -> Clt
  | Cle -> Cgt
  | Cgt -> Cle

(* Negate a condition, keeping integer compares compare-shaped (the
   solver's favourite form).  Float compares must stay wrapped: the
   flag-flipped compare is NOT the negation under NaN. *)
let negate_cond = function
  | Sym.Cmp (c, a, b) -> Sym.Cmp (negate_cmp c, a, b)
  | Sym.Not e -> e
  | Sym.Bool_const b -> Sym.Bool_const (not b)
  | e -> Sym.Not e

(* Class-id → instance format, for the implication rules below.
   Built eagerly at module load and only read afterwards: a [lazy]
   would be forced concurrently by the validators of several domains,
   and OCaml 5 lazies are not domain-safe (the loser raises
   [CamlinternalLazy.Undefined]). *)
let class_formats =
  let fmts = Hashtbl.create 32 in
  Vm_objects.Class_table.iter (Vm_objects.Class_table.create ()) (fun d ->
      Hashtbl.replace fmts (Vm_objects.Class_desc.class_id d)
        (Vm_objects.Class_desc.format d));
  fmts

let class_format cid = Hashtbl.find_opt class_formats cid

let class_is_pointers cid =
  match class_format cid with
  | Some (Vm_objects.Objformat.Fixed_pointers _)
  | Some (Vm_objects.Objformat.Variable_pointers _) ->
      true
  | _ -> false

let class_is_bytes cid =
  match class_format cid with
  | Some Vm_objects.Objformat.Variable_bytes -> true
  | _ -> false

(* Does the already-recorded clause [k] syntactically imply [c]?  Used
   only to prune forks whose one side is infeasible given the guards the
   compiled code already executed — soundness of the enumeration does
   not depend on completeness here, only fork economy does. *)
let implies_one (k : Sym.t) (c : Sym.t) : bool =
  Sym.equal k c
  ||
  match c with
  | Sym.Is_small_int e -> (
      match k with
      | Sym.Has_class (e', id) ->
          id = Vm_objects.Class_table.small_integer_id && Sym.equal e e'
      | _ -> false)
  | Sym.Not (Sym.Is_small_int e) -> (
      match k with
      | Sym.Is_pointers e'
      | Sym.Is_bytes e'
      | Sym.Is_float_object e'
      | Sym.Is_indexable e' ->
          Sym.equal e e'
      | Sym.Has_class (e', id) ->
          id <> Vm_objects.Class_table.small_integer_id && Sym.equal e e'
      | _ -> false)
  | Sym.Is_float_object e -> (
      match k with
      | Sym.Has_class (e', id) ->
          id = Vm_objects.Class_table.boxed_float_id && Sym.equal e e'
      | _ -> false)
  | Sym.Is_pointers e -> (
      match k with
      | Sym.Has_class (e', id) -> class_is_pointers id && Sym.equal e e'
      | _ -> false)
  | Sym.Not (Sym.Is_pointers e) -> (
      match k with
      | Sym.Is_small_int e' | Sym.Is_bytes e' | Sym.Is_float_object e' ->
          Sym.equal e e'
      | Sym.Has_class (e', id) ->
          (class_is_bytes id || id = Vm_objects.Class_table.boxed_float_id)
          && Sym.equal e e'
      | _ -> false)
  | Sym.Is_bytes e -> (
      match k with
      | Sym.Has_class (e', id) -> class_is_bytes id && Sym.equal e e'
      | _ -> false)
  | Sym.Not (Sym.Is_bytes e) -> (
      match k with
      | Sym.Is_small_int e' | Sym.Is_pointers e' | Sym.Is_float_object e' ->
          Sym.equal e e'
      | Sym.Has_class (e', id) ->
          (class_is_pointers id || id = Vm_objects.Class_table.boxed_float_id)
          && Sym.equal e e'
      | _ -> false)
  | Sym.Cmp (Sym.Cne, a, Sym.Int_const 0) -> (
      match k with
      | Sym.Cmp (Sym.Cgt, a', Sym.Int_const 0)
      | Sym.Cmp (Sym.Clt, a', Sym.Int_const 0) ->
          Sym.equal a a'
      | _ -> false)
  | _ -> false

let implied conds c = List.exists (fun k -> implies_one k c) conds

(* Constant-fold a condition when it mentions no symbolic part. *)
let eval_cmp (c : Sym.cmp) (x : int) (y : int) =
  match c with
  | Ceq -> x = y
  | Cne -> x <> y
  | Clt -> x < y
  | Cle -> x <= y
  | Cgt -> x > y
  | Cge -> x >= y

let const_bool = function
  | Sym.Bool_const b -> Some b
  | Sym.Cmp (c, Sym.Int_const x, Sym.Int_const y) -> Some (eval_cmp c x y)
  | Sym.Not (Sym.Cmp (c, Sym.Int_const x, Sym.Int_const y)) ->
      Some (not (eval_cmp c x y))
  | _ -> None

(* --- word views --- *)

let int_term = function
  | W_int e -> Some e
  | W_const c -> Some (Sym.Int_const c)
  | W_oop _ | W_format _ | W_bool _ | W_unknown _ -> None

let oop_term = function
  | W_oop e -> Some e
  | W_const c when c land 1 = 1 ->
      Some (Sym.Integer_object_of (Sym.Int_const (c asr 1)))
  | _ -> None

(* Class index of a known concrete word, for [Load_class_index] on
   constants (nil/true/false/tagged literals). *)
let const_class_index c =
  if c land 1 = 1 then Some Vm_objects.Class_table.small_integer_id
  else if c = Jit.Ir.nil_word then Some Vm_objects.Class_table.undefined_object_id
  else if c = Jit.Ir.true_word then Some Vm_objects.Class_table.true_id
  else if c = Jit.Ir.false_word then Some Vm_objects.Class_table.false_id
  else None

(* --- branch-condition derivation --- *)

type bres = B_true | B_false | B_sym of Sym.t | B_stuck of string

(* Symbolic flag register: the origin of the current flags. *)
type flags =
  | FL_bot
  | FL_cmp of word * word
  | FL_result of word
  | FL_tag of word
  | FL_fcmp of fword * fword

let cmp_of_cond : MC.cond -> Sym.cmp option = function
  | Eq -> Some Ceq
  | Ne -> Some Cne
  | Lt -> Some Clt
  | Le -> Some Cle
  | Gt -> Some Cgt
  | Ge -> Some Cge
  | Vs | Vc -> None

let flip_cmp : Sym.cmp -> Sym.cmp = function
  | Ceq -> Ceq
  | Cne -> Cne
  | Clt -> Cgt
  | Cgt -> Clt
  | Cle -> Cge
  | Cge -> Cle

(* Decode a compare of a [Load_format] result against a constant into
   structural predicates.  Format codes (cf. {!Machine.Cpu}): 0
   fixed-pointers, 1 variable-pointers, 2 bytes, 3 float, 4 method. *)
let fmt_value_pred e = function
  | 0 -> Sym.And (Sym.Is_pointers e, Sym.Not (Sym.Is_indexable e))
  | 1 -> Sym.And (Sym.Is_pointers e, Sym.Is_indexable e)
  | 2 -> Sym.Is_bytes e
  | 3 -> Sym.Is_float_object e
  | _ -> Sym.Has_class (e, Vm_objects.Class_table.compiled_method_id)

let fmt_cmp_pred e (sc : Sym.cmp) k : bres =
  let sat f = eval_cmp sc f k in
  match List.filter sat [ 0; 1; 2; 3; 4 ] with
  | [] -> B_false
  | [ 0; 1; 2; 3; 4 ] -> B_true
  | [ 0; 1 ] -> B_sym (Sym.Is_pointers e)
  | [ 2; 3; 4 ] -> B_sym (Sym.Not (Sym.Is_pointers e))
  | [ 1; 2 ] -> B_sym (Sym.Is_indexable e)
  | [ 0; 3; 4 ] -> B_sym (Sym.Not (Sym.Is_indexable e))
  | f :: rest ->
      B_sym
        (List.fold_left
           (fun acc f -> Sym.Or (acc, fmt_value_pred e f))
           (fmt_value_pred e f) rest)

(* The outcome of an integer compare of two machine words under [cond] —
   shared between the flags back-ends' compare-then-[jcc] ([FL_cmp] in
   {!branch_cond}) and the flagless back-end's fused compare-and-branch
   and compare-into-register forms, which have identical semantics by
   construction ({!Machine.Cpu.cmp_holds}). *)
let cmp_bres (conds : Sym.t list) (c : MC.cond) (a : word) (b : word) : bres =
  match c with
  (* [set_flags_cmp] clears the overflow flag *)
  | Vs -> B_false
  | Vc -> B_true
  | _ -> (
      let sc = Option.get (cmp_of_cond c) in
      match (a, b) with
          | W_const x, W_const y ->
              if eval_cmp sc x y then B_true else B_false
          | W_format e, W_const k -> fmt_cmp_pred e sc k
          | W_const k, W_format e -> fmt_cmp_pred e (flip_cmp sc) k
          | W_int (Sym.Class_index_of e), W_const k when sc = Ceq ->
              B_sym (Sym.Has_class (e, k))
          | W_int (Sym.Class_index_of e), W_const k when sc = Cne ->
              B_sym (Sym.Not (Sym.Has_class (e, k)))
          | W_oop ea, W_oop eb ->
              if
                implied conds (Sym.Is_small_int ea)
                && implied conds (Sym.Is_small_int eb)
              then
                (* tagging is monotone: compare the untagged values *)
                B_sym
                  (Sym.Cmp
                     (sc, Sym.Integer_value_of ea, Sym.Integer_value_of eb))
              else if sc = Ceq then B_sym (Sym.Oop_eq (ea, eb))
              else if sc = Cne then B_sym (Sym.Not (Sym.Oop_eq (ea, eb)))
              else B_stuck "ordered compare of untracked oops"
          | W_oop e, W_const k | W_const k, W_oop e -> (
              let sc =
                match (a, b) with
                | W_const _, W_oop _ -> flip_cmp sc
                | _ -> sc
              in
              if k land 1 = 1 then
                (* tagged immediate: tagged(x) = 2x+1 is monotone *)
                let veq = Sym.Cmp (sc, Sym.Integer_value_of e, Sym.Int_const (k asr 1)) in
                if implied conds (Sym.Is_small_int e) then B_sym veq
                else
                  match sc with
                  | Ceq -> B_sym (Sym.And (Sym.Is_small_int e, veq))
                  | Cne ->
                      B_sym
                        (Sym.Not
                           (Sym.And
                              ( Sym.Is_small_int e,
                                Sym.Cmp
                                  ( Ceq,
                                    Sym.Integer_value_of e,
                                    Sym.Int_const (k asr 1) ) )))
                  | _ -> B_stuck "ordered compare of oop vs tagged constant"
              else
                (* the singleton specials: nil, true, false *)
                let special =
                  if k = Jit.Ir.nil_word then
                    Some Vm_objects.Class_table.undefined_object_id
                  else if k = Jit.Ir.true_word then
                    Some Vm_objects.Class_table.true_id
                  else if k = Jit.Ir.false_word then
                    Some Vm_objects.Class_table.false_id
                  else None
                in
                match (special, sc) with
                | Some id, Ceq -> B_sym (Sym.Has_class (e, id))
                | Some id, Cne -> B_sym (Sym.Not (Sym.Has_class (e, id)))
                | _ -> B_stuck "compare of oop vs raw constant")
          | _ -> (
              match (int_term a, int_term b) with
              | Some ta, Some tb -> B_sym (Sym.Cmp (sc, ta, tb))
              | _ -> B_stuck "compare outside the tracked fragment"))

(* The branch condition of [cond] given the flag origin — the symbolic
   counterpart of {!Machine.Cpu.cond_holds}. *)
let branch_cond (conds : Sym.t list) (flags : flags) (c : MC.cond) : bres =
  match flags with
  | FL_bot -> B_stuck "branch on uninitialised flags"
  | FL_cmp (a, b) -> cmp_bres conds c a b
  | FL_result w -> (
      match c with
      | Vs -> (
          match w with
          | W_const k ->
              if Vm_objects.Value.is_small_int_value k then B_false else B_true
          | _ -> (
              match int_term w with
              | Some t -> B_sym (Sym.Not (Sym.Is_in_small_int_range t))
              | None -> B_stuck "overflow test on untracked result"))
      | Vc -> (
          match w with
          | W_const k ->
              if Vm_objects.Value.is_small_int_value k then B_true else B_false
          | _ -> (
              match int_term w with
              | Some t -> B_sym (Sym.Is_in_small_int_range t)
              | None -> B_stuck "overflow test on untracked result"))
      | _ -> (
          let sc = Option.get (cmp_of_cond c) in
          match w with
          | W_const k -> if eval_cmp sc k 0 then B_true else B_false
          | W_oop (Sym.Integer_object_of t) -> (
              (* flags of a freshly tagged word: 2t+1 keeps t's sign and
                 is never zero *)
              match sc with
              | Ceq -> B_false
              | Cne -> B_true
              | Clt | Cle -> B_sym (Sym.Cmp (Clt, t, Sym.Int_const 0))
              | Cgt | Cge -> B_sym (Sym.Cmp (Cge, t, Sym.Int_const 0)))
          | _ -> (
              match int_term w with
              | Some t -> B_sym (Sym.Cmp (sc, t, Sym.Int_const 0))
              | None -> B_stuck "flags test on untracked result")))
  | FL_tag w -> (
      match (c, w) with
      | Eq, W_oop e -> B_sym (Sym.Is_small_int e)
      | Ne, W_oop e -> B_sym (Sym.Not (Sym.Is_small_int e))
      | Eq, W_const k -> if k land 1 = 1 then B_true else B_false
      | Ne, W_const k -> if k land 1 = 1 then B_false else B_true
      | _ -> B_stuck "tag test outside Eq/Ne on an oop")
  | FL_fcmp (a, b) -> (
      match (a, b) with
      | F_sym ta, F_sym tb -> (
          (* flag semantics under NaN: lt and eq are both false, so Gt/Ge
             are the *negations* of Cle/Clt, not compares themselves *)
          match c with
          | Eq -> B_sym (Sym.F_cmp (Ceq, ta, tb))
          | Ne -> B_sym (Sym.Not (Sym.F_cmp (Ceq, ta, tb)))
          | Lt -> B_sym (Sym.F_cmp (Clt, ta, tb))
          | Le -> B_sym (Sym.F_cmp (Cle, ta, tb))
          | Gt -> B_sym (Sym.Not (Sym.F_cmp (Cle, ta, tb)))
          | Ge -> B_sym (Sym.Not (Sym.F_cmp (Clt, ta, tb)))
          | Vs -> B_sym (Sym.Or (Sym.F_is_nan ta, Sym.F_is_nan tb))
          | Vc -> B_sym (Sym.Not (Sym.Or (Sym.F_is_nan ta, Sym.F_is_nan tb))))
      | _ -> B_stuck "float compare on untracked float")

(* --- the executor --- *)

type state = {
  pc : int;
  regs : word array;
  fregs : fword array;
  stack : word list; (* top first, like the simulator *)
  temps : word array;
  spills : word array;
  flags : flags;
  conds : Sym.t list; (* reversed *)
  writes : write list; (* reversed *)
  steps : int;
}

let set_reg st r w =
  let regs = Array.copy st.regs in
  regs.(r) <- w;
  { st with regs }

let set_freg st r w =
  let fregs = Array.copy st.fregs in
  fregs.(r) <- w;
  { st with fregs }

let set_temp st i w =
  let temps = Array.copy st.temps in
  temps.(i) <- w;
  { st with temps }

let set_spill st i w =
  let spills = Array.copy st.spills in
  spills.(i) <- w;
  { st with spills }

let execute ?(budget = default_budget) ~accessor_gaps
    ~(subst : int -> word option) ~(init_regs : (MC.reg * word) list)
    ~(init_temps : word array) (program : MC.program) : result =
  let labels = MC.label_map program in
  let paths = ref [] in
  let n_paths = ref 0 in
  let truncated = ref false in
  let finish st exit_ =
    if !n_paths < budget.max_paths then begin
      incr n_paths;
      paths :=
        {
          conds = List.rev st.conds;
          exit_;
          stack = List.rev st.stack;
          temps = Array.copy st.temps;
          writes = List.rev st.writes;
        }
        :: !paths
    end
    else truncated := true
  in
  let imm c = match subst c with Some w -> w | None -> W_const c in
  let operand st (o : MC.operand) =
    match o with MC.R r -> st.regs.(r) | MC.I c -> imm c
  in
  (* Reflective-trap classification (cf. {!Machine.Cpu.trap_load}): a
     trapping load delivers through the accessor table's SETTER for the
     destination, a trapping store reads through the GETTER for the
     source; the seeded gaps are scratch2's setter and scratch1's
     getter. *)
  let trap_load st dst =
    finish st
      (if accessor_gaps && dst = MC.r_scratch2 then
         M_sim_error "missing setter accessor"
       else M_segfault)
  in
  let trap_store st src =
    finish st
      (if accessor_gaps && src = MC.r_scratch1 then
         M_sim_error "missing getter accessor"
       else M_segfault)
  in
  let assume st c = { st with conds = c :: st.conds } in
  (* Fork on [c]: constant-fold, prune sides the guards already imply,
     bound the guard depth. *)
  let fork st c ~if_true ~if_false =
    match const_bool c with
    | Some true -> if_true st
    | Some false -> if_false st
    | None ->
        if implied st.conds c then if_true st
        else if implied st.conds (negate_cond c) then if_false st
        else if List.length st.conds >= budget.max_conds then
          finish st (M_stuck "condition budget exceeded")
        else begin
          if_true (assume st c);
          if_false (assume st (negate_cond c))
        end
  in
  let rec go st =
    if st.steps > budget.max_steps then finish st (M_stuck "step budget exceeded")
    else if st.pc >= Array.length program then finish st M_segfault
    else step { st with steps = st.steps + 1 }
  and step st =
    let next st' = go { st' with pc = st.pc + 1 } in
    let jump st' l =
      match Hashtbl.find_opt labels l with
      | Some i -> go { st' with pc = i }
      | None -> finish st' (M_stuck ("undefined label " ^ l))
    in
    let branch_res st (r : bres) l =
      match r with
      | B_true -> jump st l
      | B_false -> next st
      | B_sym t -> fork st t ~if_true:(fun st -> jump st l) ~if_false:next
      | B_stuck m -> finish st (M_stuck m)
    in
    let branch st c l = branch_res st (branch_cond st.conds st.flags c) l in
    (* Materialise a condition outcome into a register (the flagless
       back-end's set-ops). *)
    let set_bool st rd (r : bres) =
      match r with
      | B_true -> next (set_reg st rd (W_const 1))
      | B_false -> next (set_reg st rd (W_const 0))
      | B_sym t -> next (set_reg st rd (W_bool t))
      | B_stuck m -> finish st (M_stuck m)
    in
    (* Guarded heap access on an oop word: fork the structural guard,
       trapping on the false side. *)
    let with_oop st w ~trap k =
      match w with
      | W_oop e -> k st e
      | W_const c when c land 1 = 1 ->
          (* a tagged immediate is never a heap pointer *)
          trap st
      | _ -> finish st (M_stuck "heap access on untracked base")
    in
    let guarded st w guard_cond ~trap k =
      with_oop st w ~trap (fun st e ->
          fork st (guard_cond e) ~if_true:(fun st -> k st e) ~if_false:trap)
    in
    (* Bounds fork for an indexed access: 0 <= i < size(e).  Uses the
       same clause shapes the shadow machine records, so pristine paths
       align syntactically. *)
    let bounds st iw size_term ~trap k =
      match int_term iw with
      | None -> finish st (M_stuck "untracked access index")
      | Some it ->
          fork st
            (Sym.Cmp (Sym.Cge, it, Sym.Int_const 0))
            ~if_true:(fun st ->
              fork st
                (Sym.Cmp (Sym.Clt, it, size_term))
                ~if_true:k ~if_false:trap)
            ~if_false:trap
    in
    (* Symbolic ALU, forking on trap conditions (division by zero,
       out-of-range shifts) exactly where the simulator raises. *)
    let alu st (op : MC.alu) (a : word) (b : word) (k : state -> word -> unit)
        =
      let stuck () = finish st (M_stuck "ALU outside the tracked fragment") in
      let nonzero st tb k =
        fork st
          (Sym.Cmp (Sym.Cne, tb, Sym.Int_const 0))
          ~if_true:k
          ~if_false:(fun st -> finish st M_segfault)
      in
      match (op, a, b) with
      (* untag: arithmetic shift right by 1 of a tagged integer *)
      | MC.Sar, W_oop e, W_const 1 when implied st.conds (Sym.Is_small_int e)
        ->
          k st (W_int (Sym.Integer_value_of e))
      | _ -> (
          match (int_term a, int_term b) with
          | Some (Sym.Int_const x), Some (Sym.Int_const y) -> (
              (* concrete fold, with the simulator's trap conditions *)
              match op with
              | (MC.Div | MC.Mod | MC.Quo | MC.Rem) when y = 0 ->
                  finish st M_segfault
              | MC.Shl when y < 0 || y > 62 -> finish st M_segfault
              | _ ->
                  let r =
                    match op with
                    | MC.Add -> x + y
                    | MC.Sub -> x - y
                    | MC.Mul -> x * y
                    | MC.Div -> Solver.Eval.floor_div x y
                    | MC.Mod -> Solver.Eval.floor_mod x y
                    | MC.Quo -> x / y
                    | MC.Rem -> x mod y
                    | MC.And -> x land y
                    | MC.Or -> x lor y
                    | MC.Xor -> x lxor y
                    | MC.Shl -> x lsl y
                    | MC.Sar -> x asr min y 62
                  in
                  k st (W_const r))
          | Some ta, Some tb -> (
              match op with
              | MC.Add -> k st (W_int (Sym.Add (ta, tb)))
              | MC.Sub -> k st (W_int (Sym.Sub (ta, tb)))
              | MC.Mul -> k st (W_int (Sym.Mul (ta, tb)))
              | MC.Div ->
                  nonzero st tb (fun st -> k st (W_int (Sym.Div (ta, tb))))
              | MC.Mod ->
                  nonzero st tb (fun st -> k st (W_int (Sym.Mod (ta, tb))))
              | MC.Quo ->
                  nonzero st tb (fun st -> k st (W_int (Sym.Quo (ta, tb))))
              | MC.Rem ->
                  nonzero st tb (fun st -> k st (W_int (Sym.Rem (ta, tb))))
              | MC.And -> k st (W_int (Sym.Bit_and (ta, tb)))
              | MC.Xor -> k st (W_int (Sym.Bit_xor (ta, tb)))
              | MC.Or -> (
                  (* tag: (2x) lor 1 = 2x + 1 = tagged(x) *)
                  match (ta, tb) with
                  | Sym.Mul (t, Sym.Int_const 2), Sym.Int_const 1 ->
                      k st (W_oop (Sym.Integer_object_of t))
                  | _ -> k st (W_int (Sym.Bit_or (ta, tb))))
              | MC.Shl -> (
                  match tb with
                  | Sym.Int_const s ->
                      if s < 0 || s > 62 then finish st M_segfault
                      else k st (W_int (Sym.Mul (ta, Sym.Int_const (1 lsl s))))
                  | _ ->
                      (* the simulator traps on a negative or oversized
                         shift amount — fork those edges *)
                      fork st
                        (Sym.Cmp (Sym.Cge, tb, Sym.Int_const 0))
                        ~if_true:(fun st ->
                          fork st
                            (Sym.Cmp (Sym.Cle, tb, Sym.Int_const 62))
                            ~if_true:(fun st ->
                              k st (W_int (Sym.Shift_left (ta, tb))))
                            ~if_false:(fun st -> finish st M_segfault))
                        ~if_false:(fun st -> finish st M_segfault))
              | MC.Sar -> (
                  match tb with
                  | Sym.Int_const s ->
                      if s < 0 then
                        k st (W_int (Sym.Shift_right (ta, Sym.Int_const 62)))
                      else
                        (* asr by a constant is floor division by 2^k *)
                        k st
                          (W_int
                             (Sym.Div
                                (ta, Sym.Int_const (1 lsl min s 62))))
                  | _ -> k st (W_int (Sym.Shift_right (ta, tb)))))
          | _ -> stuck ())
    in
    let alu_flags st op d a b =
      alu st op a b (fun st w ->
          next { (set_reg st d w) with flags = FL_result w })
    in
    match program.(st.pc) with
    | MC.Label _ -> next st
    | MC.Call_trampoline info -> finish st (M_send info)
    | MC.Ret -> finish st (M_ret st.regs.(MC.r_result))
    | MC.Brk id -> finish st (M_stop id)
    (* --- object representation layer --- *)
    | MC.Load_class_index (dst, src) -> (
        match st.regs.(src) with
        | W_oop e -> next (set_reg st dst (W_int (Sym.Class_index_of e)))
        | W_const c -> (
            match const_class_index c with
            | Some id -> next (set_reg st dst (W_const id))
            | None -> next (set_reg st dst (W_unknown "class index")))
        | _ -> next (set_reg st dst (W_unknown "class index")))
    | MC.Load_class_object (dst, src) -> (
        match oop_term st.regs.(src) with
        | Some e -> next (set_reg st dst (W_oop (Sym.Class_object_of e)))
        | None -> next (set_reg st dst (W_unknown "class object")))
    | MC.Load_slot (dst, base, idx) ->
        guarded st st.regs.(base) (fun e -> Sym.Is_pointers e)
          ~trap:(fun st -> trap_load st dst)
          (fun st e ->
            bounds st (operand st idx) (Sym.Num_slots_of e)
              ~trap:(fun st -> trap_load st dst)
              (fun st ->
                match int_term (operand st idx) with
                | Some it ->
                    next (set_reg st dst (W_oop (Sym.Slot_at (e, it))))
                | None -> finish st (M_stuck "untracked slot index")))
    | MC.Store_slot (base, idx, src) ->
        guarded st st.regs.(base) (fun e -> Sym.Is_pointers e)
          ~trap:(fun st -> trap_store st src)
          (fun st e ->
            bounds st (operand st idx) (Sym.Num_slots_of e)
              ~trap:(fun st -> trap_store st src)
              (fun st ->
                next
                  {
                    st with
                    writes =
                      Wr_slot
                        {
                          base = e;
                          index = operand st idx;
                          stored = st.regs.(src);
                        }
                      :: st.writes;
                  }))
    | MC.Load_byte (dst, base, idx) ->
        guarded st st.regs.(base) (fun e -> Sym.Is_bytes e)
          ~trap:(fun st -> trap_load st dst)
          (fun st e ->
            bounds st (operand st idx) (Sym.Indexable_size_of e)
              ~trap:(fun st -> trap_load st dst)
              (fun st ->
                match int_term (operand st idx) with
                | Some it ->
                    next (set_reg st dst (W_int (Sym.Byte_at (e, it))))
                | None -> finish st (M_stuck "untracked byte index")))
    | MC.Store_byte (base, idx, src) ->
        guarded st st.regs.(base) (fun e -> Sym.Is_bytes e)
          ~trap:(fun st -> trap_store st src)
          (fun st e ->
            bounds st (operand st idx) (Sym.Indexable_size_of e)
              ~trap:(fun st -> trap_store st src)
              (fun st ->
                next
                  {
                    st with
                    writes =
                      Wr_byte
                        {
                          base = e;
                          index = operand st idx;
                          stored = st.regs.(src);
                        }
                      :: st.writes;
                  }))
    | MC.Load_num_slots (dst, src) ->
        guarded st st.regs.(src) (fun e -> Sym.Not (Sym.Is_small_int e))
          ~trap:(fun st -> trap_load st dst)
          (fun st e -> next (set_reg st dst (W_int (Sym.Num_slots_of e))))
    | MC.Load_indexable_size (dst, src) ->
        guarded st st.regs.(src) (fun e -> Sym.Not (Sym.Is_small_int e))
          ~trap:(fun st -> trap_load st dst)
          (fun st e ->
            next (set_reg st dst (W_int (Sym.Indexable_size_of e))))
    | MC.Load_fixed_size (dst, src) ->
        guarded st st.regs.(src) (fun e -> Sym.Not (Sym.Is_small_int e))
          ~trap:(fun st -> trap_load st dst)
          (fun st e -> next (set_reg st dst (W_int (Sym.Fixed_size_of e))))
    | MC.Load_format (dst, src) ->
        guarded st st.regs.(src) (fun e -> Sym.Not (Sym.Is_small_int e))
          ~trap:(fun st -> trap_load st dst)
          (fun st e -> next (set_reg st dst (W_format e)))
    | MC.Load_temp (dst, i) ->
        if i < 0 || i >= MC.num_frame_temps then trap_load st dst
        else next (set_reg st dst st.temps.(i))
    | MC.Store_temp (i, src) ->
        if i < 0 || i >= MC.num_frame_temps then trap_store st src
        else next (set_temp st i st.regs.(src))
    | MC.Unbox_float (fd, src) -> (
        (* UNCHECKED unboxing (cf. {!Machine.Cpu.unbox_float_unchecked}):
           immediates and too-small objects segfault; other non-float
           shapes read garbage the executor cannot track *)
        match st.regs.(src) with
        | W_oop e ->
            fork st (Sym.Is_float_object e)
              ~if_true:(fun st ->
                next (set_freg st fd (F_sym (Sym.Float_value_of e))))
              ~if_false:(fun st ->
                fork st (Sym.Is_small_int e)
                  ~if_true:(fun st -> finish st M_segfault)
                  ~if_false:(fun st ->
                    finish st (M_stuck "unchecked unbox of a non-float")))
        | W_const _ ->
            (* tagged immediates and the specials all trap *)
            finish st M_segfault
        | _ -> finish st (M_stuck "unbox of untracked word"))
    | MC.Box_float (dst, fs) -> (
        match st.fregs.(fs) with
        | F_sym t -> next (set_reg st dst (W_oop (Sym.Float_object_of t)))
        | F_unknown m -> next (set_reg st dst (W_unknown m)))
    | MC.Falu (op, fd, fa, fb) -> (
        match (st.fregs.(fa), st.fregs.(fb)) with
        | F_sym ta, F_sym tb ->
            let sop : Sym.fbinop =
              match op with
              | MC.FAdd -> F_add
              | MC.FSub -> F_sub
              | MC.FMul -> F_mul
              | MC.FDiv -> F_div
            in
            next (set_freg st fd (F_sym (Sym.F_binop (sop, ta, tb))))
        | _ -> next (set_freg st fd (F_unknown "float ALU")))
    | MC.Fcmp (fa, fb) ->
        next { st with flags = FL_fcmp (st.fregs.(fa), st.fregs.(fb)) }
    | MC.Fsqrt (fd, fs) -> (
        match st.fregs.(fs) with
        | F_sym t -> next (set_freg st fd (F_sym (Sym.F_unop (F_sqrt, t))))
        | F_unknown m -> next (set_freg st fd (F_unknown m)))
    | MC.Cvt_int_float (fd, src) -> (
        match int_term st.regs.(src) with
        | Some t -> next (set_freg st fd (F_sym (Sym.Int_to_float t)))
        | None -> next (set_freg st fd (F_unknown "int to float")))
    | MC.Cvt_float_int (dst, fs) -> (
        match st.fregs.(fs) with
        | F_sym t -> next (set_reg st dst (W_int (Sym.Float_truncated t)))
        | F_unknown m -> next (set_reg st dst (W_unknown m)))
    | MC.Alloc (dst, class_id, size) -> (
        match int_term (operand st size) with
        | Some t ->
            next
              (set_reg st dst
                 (W_oop (Sym.Fresh_object { class_id; size = t })))
        | None -> next (set_reg st dst (W_unknown "allocation size")))
    | MC.Alloc_flex (dst, _) ->
        (* never emitted by the code generators; kept safe *)
        next (set_reg st dst (W_unknown "flexible allocation"))
    | MC.Identity_hash (dst, src) -> (
        match oop_term st.regs.(src) with
        | Some e -> next (set_reg st dst (W_int (Sym.Identity_hash_of e)))
        | None -> next (set_reg st dst (W_unknown "identity hash")))
    | MC.Shallow_copy_op (dst, src) ->
        guarded st st.regs.(src) (fun e -> Sym.Not (Sym.Is_small_int e))
          ~trap:(fun st -> trap_load st dst)
          (fun st e -> next (set_reg st dst (W_oop (Sym.Shallow_copy_of e))))
    | MC.Make_point_op (dst, x, y) -> (
        match (oop_term st.regs.(x), oop_term st.regs.(y)) with
        | Some ox, Some oy ->
            next (set_reg st dst (W_oop (Sym.Point_of (ox, oy))))
        | _ -> next (set_reg st dst (W_unknown "point component")))
    | MC.Make_char_op (dst, src) -> (
        match int_term st.regs.(src) with
        | Some t -> next (set_reg st dst (W_oop (Sym.Char_object_of t)))
        | None -> next (set_reg st dst (W_unknown "character code")))
    | MC.Char_value_op (dst, src) ->
        guarded st st.regs.(src) (fun e -> Sym.Not (Sym.Is_small_int e))
          ~trap:(fun st -> trap_load st dst)
          (fun st e -> next (set_reg st dst (W_int (Sym.Char_value_of e))))
    | MC.Float_from_bits32 (fd, src) -> (
        match int_term st.regs.(src) with
        | Some t -> next (set_freg st fd (F_sym (Sym.Float_of_bits32 t)))
        | None -> next (set_freg st fd (F_unknown "float bits")))
    | MC.Float_to_bits32 (dst, fs) -> (
        match st.fregs.(fs) with
        | F_sym t -> next (set_reg st dst (W_int (Sym.Float_bits32 t)))
        | F_unknown m -> next (set_reg st dst (W_unknown m)))
    | MC.Float_from_bits64 (fd, hi, lo) -> (
        match (int_term st.regs.(hi), int_term st.regs.(lo)) with
        | Some th, Some tl ->
            next (set_freg st fd (F_sym (Sym.Float_of_bits64 (th, tl))))
        | _ -> next (set_freg st fd (F_unknown "float bits")))
    | MC.Float_to_bits64_hi (dst, fs) -> (
        match st.fregs.(fs) with
        | F_sym t -> next (set_reg st dst (W_int (Sym.Float_bits64_hi t)))
        | F_unknown m -> next (set_reg st dst (W_unknown m)))
    | MC.Float_to_bits64_lo (dst, fs) -> (
        match st.fregs.(fs) with
        | F_sym t -> next (set_reg st dst (W_int (Sym.Float_bits64_lo t)))
        | F_unknown m -> next (set_reg st dst (W_unknown m)))
    | MC.Spill_store (slot, src) ->
        if slot < 0 || slot >= MC.num_spill_slots then trap_store st src
        else next (set_spill st slot st.regs.(src))
    | MC.Spill_load (dst, slot) ->
        if slot < 0 || slot >= MC.num_spill_slots then trap_load st dst
        else next (set_reg st dst st.spills.(slot))
    (* --- back-end styles, through the decoded ISA-neutral view: both
       styles execute identically once normalised, so one set of arms
       covers every {!Machine.Backend.t} --- *)
    | instr -> (
        match Machine.Backend.view_of instr with
        | Some (BV.V_mov_ri (r, v)) -> next (set_reg st r (imm v))
        | Some (BV.V_mov_rr (d, s)) -> next (set_reg st d st.regs.(s))
        | Some (BV.V_alu (op, d, a, b)) ->
            alu_flags st op d st.regs.(a) (operand st b)
        | Some (BV.V_neg r) -> (
            match int_term st.regs.(r) with
            | Some t ->
                let w = W_int (Sym.Neg t) in
                next { (set_reg st r w) with flags = FL_result w }
            | None ->
                finish st (M_stuck "negation outside the tracked fragment"))
        | Some (BV.V_rsb (rd, rn, i)) -> (
            match int_term st.regs.(rn) with
            | Some t ->
                let w = W_int (Sym.Sub (Sym.Int_const i, t)) in
                next { (set_reg st rd w) with flags = FL_result w }
            | None ->
                finish st
                  (M_stuck "reverse subtract outside the tracked fragment"))
        | Some (BV.V_cmp (r, o)) ->
            next { st with flags = FL_cmp (st.regs.(r), operand st o) }
        | Some (BV.V_test_tag r) -> next { st with flags = FL_tag st.regs.(r) }
        | Some (BV.V_jcc (c, l)) -> branch st c l
        | Some (BV.V_set_cmp (c, rd, rs, o)) ->
            set_bool st rd (cmp_bres st.conds c st.regs.(rs) (operand st o))
        | Some (BV.V_set_tag (rd, rs)) -> (
            match st.regs.(rs) with
            | W_oop e -> set_bool st rd (B_sym (Sym.Is_small_int e))
            | W_const k -> next (set_reg st rd (W_const (k land 1)))
            | _ -> finish st (M_stuck "tag materialisation on untracked word"))
        | Some (BV.V_set_ovf (rd, rs)) -> (
            match st.regs.(rs) with
            | W_const k ->
                set_bool st rd
                  (if Vm_objects.Value.is_small_int_value k then B_false
                   else B_true)
            | w -> (
                match int_term w with
                | Some t ->
                    set_bool st rd
                      (B_sym (Sym.Not (Sym.Is_in_small_int_range t)))
                | None ->
                    finish st (M_stuck "overflow test on untracked result")))
        | Some (BV.V_set_fcmp (c, rd, fa, fb)) ->
            set_bool st rd
              (branch_cond st.conds
                 (FL_fcmp (st.fregs.(fa), st.fregs.(fb)))
                 c)
        | Some (BV.V_cmp_branch (c, rs, o, l)) -> (
            (* A branch on a materialised condition value decodes back
               into that condition; the immediate is matched
               syntactically (it is a lowering artifact, not a program
               literal, so it must bypass literal substitution). *)
            match (st.regs.(rs), o, c) with
            | W_bool t, MC.I 1, MC.Eq | W_bool t, MC.I 0, MC.Ne ->
                branch_res st (B_sym t) l
            | W_bool t, MC.I 1, MC.Ne | W_bool t, MC.I 0, MC.Eq ->
                branch_res st (B_sym (negate_cond t)) l
            | W_bool _, _, _ ->
                finish st (M_stuck "condition value compared outside 0/1")
            | _ ->
                branch_res st
                  (cmp_bres st.conds c st.regs.(rs) (operand st o))
                  l)
        | Some (BV.V_jmp l) -> jump st l
        | Some (BV.V_push o) -> next { st with stack = operand st o :: st.stack }
        | Some (BV.V_pop r) -> (
            match st.stack with
            | w :: rest -> next { (set_reg st r w) with stack = rest }
            | [] -> finish st M_segfault)
        | None -> finish st (M_stuck "undecoded back-end instruction"))
  in
  let regs = Array.make MC.num_regs (W_const 0) in
  List.iter (fun (r, w) -> regs.(r) <- w) init_regs;
  let temps = Array.make MC.num_frame_temps (W_const 0) in
  Array.blit init_temps 0 temps 0
    (min (Array.length init_temps) MC.num_frame_temps);
  go
    {
      pc = 0;
      regs;
      fregs = Array.make MC.num_fregs (F_unknown "uninitialised");
      stack = [];
      temps;
      spills = Array.make MC.num_spill_slots (W_const 0);
      flags = FL_bot;
      conds = [];
      writes = [];
      steps = 0;
    };
  { paths = List.rev !paths; truncated = !truncated }
