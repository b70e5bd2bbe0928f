(* The backend-generic forward abstract interpreter over machine code
   (the tentpole of the static layer).

   Everything here is parameterised by {!Machine.Backend_sig.S} — the
   instructions are consumed through {!Machine.Backend.view_of},
   {!Machine.Backend.control_of}, {!Machine.Backend.flag_effect} and the
   {!Machine.Backend.reads}/{!Machine.Backend.writes} queries, so no
   per-ISA constructor appears below and a third back-end needs no
   change to this file.

   Four composable abstract domains run over the fixpoint:

   - {b register definedness / scratch discipline} — a may/must
     written-register bitmask; it yields the read-before-write check on
     the temporary file and the scratch-clobber check (writes to the
     reserved scratches must be justified by the IR's own use of the
     reserved virtual registers);
   - {b flags definedness} — whether the condition codes may still be
     undefined at a conditional branch, feeding guard reachability on
     the flags-style back-ends;
   - {b condition values} — the flagless analogue: a per-register
     lattice tracking "holds the boolean outcome of comparison (kind,
     cond)" with clobber interaction, so a fused branch reading a
     materialised comparison can be decoded back to the guard that
     produced it and a write landing between the materialisation and
     its branch is caught statically;
   - {b frame/stack effect} — per-path operand-stack depth and exit
     summaries ({!summarize}), statically recomputing the frame-effect
     component that {!Symexec_mc} derives symbolically, and cross-checked
     against it ({!crosscheck}).

   The flags domain and the condition-value domain are two instances of
   one guard-provenance analysis: both answer "which comparison kind
   and condition does this conditional branch observe", selected per
   instruction by the back-end's view ([V_jcc] consumes the flags
   register, [V_cmp_branch] consumes a general register whose
   provenance the condition-value domain supplies).  [expected_branches]
   is therefore shared unchanged across all back-end styles.

   On top of the fixpoint, [check_unit] statically re-derives from the
   front-end IR what the lowering must have emitted (conditional-branch
   condition-code sequences, stop markers, frame stores, constant slot
   indices, scratch usage) and flags any machine-side divergence: an
   IR-vs-machine consistency oracle that needs no execution and kills
   every machine-layer mutation operator. *)

module MC = Machine.Machine_code
module BV = Machine.Backend_sig
module B = Machine.Backend
module Ir = Jit.Ir
module EC = Interpreter.Exit_condition

(* --- reachability over the control-flow graph --- *)

type event =
  | Ev_undefined_label of int * string
      (** instruction [i] branches to a label with no definition *)
  | Ev_falloff of int  (** control falls past the end from instruction [i] *)

type reach = { reachable : bool array; events : event list }

(* Breadth-first from the entry, branch target explored before the
   fall-through — the discovery order [Machine_lint] findings rely on. *)
let reach (p : MC.program) : reach =
  let n = Array.length p in
  let labels = MC.label_map p in
  let reachable = Array.make (max n 1) false in
  let events = ref [] in
  let work = Queue.create () in
  let push ~from i =
    if i >= n then events := Ev_falloff from :: !events
    else if not reachable.(i) then begin
      reachable.(i) <- true;
      Queue.add i work
    end
  in
  let target i l =
    match Hashtbl.find_opt labels l with
    | Some t -> Some t
    | None ->
        events := Ev_undefined_label (i, l) :: !events;
        None
  in
  if n > 0 then begin
    reachable.(0) <- true;
    Queue.add 0 work
  end;
  while not (Queue.is_empty work) do
    let i = Queue.pop work in
    match B.control_of p.(i) with
    | B.C_exit _ -> ()
    | B.C_jump l -> (
        match target i l with Some t -> push ~from:i t | None -> ())
    | B.C_branch (_, l) ->
        (match target i l with Some t -> push ~from:i t | None -> ());
        push ~from:i (i + 1)
    | B.C_fall -> push ~from:i (i + 1)
  done;
  { reachable; events = List.rev !events }

(* --- the dataflow fixpoint --- *)

(* The kind of comparison a guard observes — the shared vocabulary of
   the guard-provenance analysis, for both flag setters (flags
   back-ends) and condition-value materialisations (flagless
   back-ends). *)
type flag_kind = K_result | K_cmp | K_tag | K_fcmp

let flag_kind_name = function
  | K_result -> "result"
  | K_cmp -> "compare"
  | K_tag -> "tag-test"
  | K_fcmp -> "float-compare"

(* The condition-value lattice for one register:

     (absent = never materialised, the bottom)
                    |
        Cv_cond (kind, base)   — holds 1 iff comparison [kind] under
                    |            [base] held when it was materialised
              Cv_clobbered     — overwritten, or different provenance
                                 on different paths (the top)

   [base] is the condition such that the register equals [1] exactly
   when [(kind, base)] holds, so a fused branch [b<cc> r, #imm] decodes
   back to the originating guard: against [#1], [Eq] observes [base]
   and [Ne] its negation; against [#0] the other way around. *)
type cv = Cv_cond of flag_kind * MC.cond | Cv_clobbered

(* The provenance a materialising view establishes for its destination.
   [V_set_tag] computes the tag bit, which is [1] exactly when the
   simulator's tag-test discipline makes [Eq] hold; [V_set_ovf] is the
   overflow bit of the latest result, [Vs]. *)
let cv_of_set_view : BV.view -> (MC.reg * cv) option = function
  | BV.V_set_cmp (c, rd, _, _) -> Some (rd, Cv_cond (K_cmp, c))
  | BV.V_set_tag (rd, _) -> Some (rd, Cv_cond (K_tag, MC.Eq))
  | BV.V_set_ovf (rd, _) -> Some (rd, Cv_cond (K_result, MC.Vs))
  | BV.V_set_fcmp (c, rd, _, _) -> Some (rd, Cv_cond (K_fcmp, c))
  | _ -> None

(* Decode the guard a fused branch observes, given the provenance of
   the register it reads.  Without provenance the branch is a direct
   fused compare of a computed value, i.e. a [K_cmp] guard. *)
let decode_fused_branch (prov : cv option) (c : MC.cond) (o : MC.operand) :
    flag_kind option * MC.cond =
  match (prov, o, c) with
  | Some (Cv_cond (k, base)), MC.I 1, MC.Eq | Some (Cv_cond (k, base)), MC.I 0, MC.Ne
    ->
      (Some k, base)
  | Some (Cv_cond (k, base)), MC.I 1, MC.Ne | Some (Cv_cond (k, base)), MC.I 0, MC.Eq
    ->
      (Some k, MC.flip_cond base)
  | _ -> (Some K_cmp, c)

(* The product domain at one program point: registers as a pair of
   bitmasks (may-written ⊇ must-written, so ⊥ would be may=∅/must=all
   and ⊤ may=all/must=∅; the register file fits one native int), flags
   as one boolean ("may still be undefined"), condition values as a
   sorted association list over the (few) registers that ever hold a
   materialised comparison.  [join] is pointwise. *)
type astate = { may : int; must : int; fundef : bool; cvals : (MC.reg * cv) list }

let entry_state = { may = 0; must = 0; fundef = true; cvals = [] }

(* Pointwise join of two sorted provenance maps: an untracked register
   stays whatever the other path says (absent is the bottom), agreeing
   provenances keep, disagreements go to the top. *)
let rec join_cvals a b =
  match (a, b) with
  | [], m | m, [] -> m
  | (ra, va) :: ta, (rb, _) :: _ when ra < rb -> (ra, va) :: join_cvals ta b
  | (ra, _) :: _, (rb, vb) :: tb when rb < ra -> (rb, vb) :: join_cvals a tb
  | (r, va) :: ta, (_, vb) :: tb ->
      (r, (if va = vb then va else Cv_clobbered)) :: join_cvals ta tb

let cvals_set r v m =
  let rec go = function
    | [] -> [ (r, v) ]
    | (r', _) :: t when r' = r -> (r, v) :: t
    | (r', v') :: t when r' > r -> (r, v) :: (r', v') :: t
    | h :: t -> h :: go t
  in
  go m

let cvals_find r m = List.assoc_opt r m

let join a b =
  {
    may = a.may lor b.may;
    must = a.must land b.must;
    fundef = a.fundef || b.fundef;
    cvals = join_cvals a.cvals b.cvals;
  }

let transfer (i : MC.instr) (s : astate) : astate =
  let writes = B.writes i in
  let wmask = List.fold_left (fun m r -> m lor (1 lsl r)) 0 writes in
  let cvals =
    match Option.bind (B.view_of i) cv_of_set_view with
    | Some (rd, v) -> cvals_set rd v s.cvals
    | None ->
        (* a write to a register holding a materialised comparison
           destroys it; untracked registers stay untracked, so direct
           fused compares of freshly computed values raise nothing *)
        List.fold_left
          (fun m w ->
            match cvals_find w m with
            | Some _ -> cvals_set w Cv_clobbered m
            | None -> m)
          s.cvals writes
  in
  {
    may = s.may lor wmask;
    must = s.must lor wmask;
    fundef = (match B.flag_effect i with B.Preserves -> s.fundef | _ -> false);
    cvals;
  }

type fix = { fx_reach : reach; fx_in : astate option array }

(* Standard worklist iteration to the least fixpoint; the domain has
   finite height (2 x num_regs + 1), so this terminates. *)
let fixpoint (p : MC.program) : fix =
  let n = Array.length p in
  let r = reach p in
  let labels = MC.label_map p in
  let fx_in = Array.make (max n 1) None in
  let work = Queue.create () in
  let feed i s =
    if i < n then begin
      let s' =
        match fx_in.(i) with None -> s | Some old -> join old s
      in
      if fx_in.(i) <> Some s' then begin
        fx_in.(i) <- Some s';
        Queue.add i work
      end
    end
  in
  if n > 0 then feed 0 entry_state;
  while not (Queue.is_empty work) do
    let i = Queue.pop work in
    match fx_in.(i) with
    | None -> ()
    | Some s -> (
        let s' = transfer p.(i) s in
        match B.control_of p.(i) with
        | B.C_exit _ -> ()
        | B.C_jump l -> (
            match Hashtbl.find_opt labels l with
            | Some t -> feed t s'
            | None -> ())
        | B.C_branch (_, l) ->
            (match Hashtbl.find_opt labels l with
            | Some t -> feed t s'
            | None -> ());
            feed (i + 1) s'
        | B.C_fall -> feed (i + 1) s')
  done;
  { fx_reach = r; fx_in }

(* --- IR-derived expectations ---

   The lowering table ({!Jit.Codegen.Make}) is deterministic per IR
   instruction, so the IR statically determines the multisets and
   sequences the machine side must exhibit, whichever back-end emitted
   it.  Divergence means the machine artefact was altered after (or
   during) lowering. *)

(* Conditional branches each IR instruction lowers to, in emission
   order, as (guard kind, condition) — back-end-independent: a flags
   back-end realises the pair as flag-setter + [jcc], a flagless one as
   materialisation + fused branch, and [observed_branches] decodes both
   onto this same vocabulary. *)
let expected_branches (ir : Ir.ir list) : (flag_kind * MC.cond) list =
  List.concat_map
    (fun (i : Ir.ir) ->
      match i with
      | Ir.I_check_small_int _ -> [ (K_tag, MC.Ne) ]
      | Ir.I_check_not_small_int _ -> [ (K_tag, MC.Eq) ]
      | Ir.I_check_class _ -> [ (K_cmp, MC.Ne) ]
      | Ir.I_check_pointers _ -> [ (K_tag, MC.Eq); (K_cmp, MC.Gt) ]
      | Ir.I_check_bytes _ -> [ (K_tag, MC.Eq); (K_cmp, MC.Ne) ]
      | Ir.I_check_indexable _ ->
          [ (K_tag, MC.Eq); (K_cmp, MC.Lt); (K_cmp, MC.Gt) ]
      | Ir.I_jump_overflow _ -> [ (K_result, MC.Vs) ]
      | Ir.I_check_range _ -> [ (K_cmp, MC.Gt); (K_cmp, MC.Lt) ]
      | Ir.I_cmp_jump (c, _, _, _) -> [ (K_cmp, c) ]
      | Ir.I_bool_result (c, _, _, _) -> [ (K_cmp, c) ]
      | Ir.I_fcmp_jump (c, _, _, _) -> [ (K_fcmp, c) ]
      | Ir.I_fbool_result (c, _, _, _) -> [ (K_fcmp, c) ]
      | _ -> [])
    ir

(* The same walk over the emitted program: the guard each conditional
   branch observes.  A [V_jcc] observes the dominating flag setter; a
   [V_cmp_branch] observes the provenance of the register it reads,
   decoded through {!decode_fused_branch}.  Lowering is linear, so the
   linear last-setter / last-materialisation is exact. *)
let observed_branches (p : MC.program) : (flag_kind option * MC.cond) list =
  let last = ref None in
  let prov : (MC.reg, cv) Hashtbl.t = Hashtbl.create 4 in
  let out = ref [] in
  Array.iter
    (fun i ->
      (match B.flag_effect i with
      | B.Sets_result -> last := Some K_result
      | B.Sets_cmp -> last := Some K_cmp
      | B.Sets_tag -> last := Some K_tag
      | B.Sets_fcmp -> last := Some K_fcmp
      | B.Preserves -> ());
      (match B.view_of i with
      | Some (BV.V_jcc (c, _)) -> out := (!last, c) :: !out
      | Some (BV.V_cmp_branch (c, rs, o, _)) ->
          out := decode_fused_branch (Hashtbl.find_opt prov rs) c o :: !out
      | Some v -> (
          match cv_of_set_view v with
          | Some (rd, cvv) -> Hashtbl.replace prov rd cvv
          | None -> List.iter (Hashtbl.remove prov) (B.writes i))
      | None -> List.iter (Hashtbl.remove prov) (B.writes i)))
    p;
  List.rev !out

let stop_markers_ir ir =
  List.sort compare
    (List.filter_map (function Ir.I_stop n -> Some n | _ -> None) ir)

let stop_markers_mc (p : MC.program) =
  List.sort compare
    (List.filter_map
       (fun i ->
         match B.control_of i with
         | B.C_exit (B.E_stop n) -> Some n
         | _ -> None)
       (Array.to_list p))

let frame_stores_ir ir =
  List.sort compare
    (List.filter_map (function Ir.I_store_temp (n, _) -> Some n | _ -> None) ir)

let frame_stores_mc (p : MC.program) =
  List.sort compare
    (List.filter_map
       (function MC.Store_temp (n, _) -> Some n | _ -> None)
       (Array.to_list p))

(* Constant heap-cell indices, tagged by access family; register-held
   indices are not statically comparable and are skipped on both sides
   symmetrically. *)
type slot_kind = SL_load_slot | SL_store_slot | SL_load_byte | SL_store_byte

let slot_kind_name = function
  | SL_load_slot -> "slot load"
  | SL_store_slot -> "slot store"
  | SL_load_byte -> "byte load"
  | SL_store_byte -> "byte store"

let slot_indices_ir ir =
  List.sort compare
    (List.filter_map
       (fun (i : Ir.ir) ->
         match i with
         | Ir.I_load_slot (_, _, Ir.C c) -> Some (SL_load_slot, c)
         | Ir.I_store_slot (_, Ir.C c, _) -> Some (SL_store_slot, c)
         | Ir.I_load_byte (_, _, Ir.C c) -> Some (SL_load_byte, c)
         | Ir.I_store_byte (_, Ir.C c, _) -> Some (SL_store_byte, c)
         | _ -> None)
       ir)

let slot_indices_mc (p : MC.program) =
  List.sort compare
    (List.filter_map
       (function
         | MC.Load_slot (_, _, MC.I c) -> Some (SL_load_slot, c)
         | MC.Store_slot (_, MC.I c, _) -> Some (SL_store_slot, c)
         | MC.Load_byte (_, _, MC.I c) -> Some (SL_load_byte, c)
         | MC.Store_byte (_, MC.I c, _) -> Some (SL_store_byte, c)
         | _ -> None)
       (Array.to_list p))

(* --- the consistency checks --- *)

let check_unit ?fix ~subject ~compiler ~arch ~(backend : B.t)
    ~(ir : Ir.ir list) (p : MC.program) : Finding.t list =
  let module BE = (val backend) in
  let findings = ref [] in
  let once = Hashtbl.create 8 in
  let add key family cause detail =
    if not (Hashtbl.mem once key) then begin
      Hashtbl.replace once key ();
      findings :=
        Finding.v ~pass:Finding.Abstract_interp ~subject ~compiler ~arch
          ~family ~cause detail
        :: !findings
    end
  in
  let fx = match fix with Some fx -> fx | None -> fixpoint p in
  let quote i = Printf.sprintf "%d: %s" i (Machine.Disasm.instr p.(i)) in
  (* 1. conditional branches carry the condition codes the IR's guards
     demand, over the right flag setter *)
  let expected = expected_branches ir and observed = observed_branches p in
  let ne = List.length expected and no = List.length observed in
  if ne <> no then
    add "cond-count" Finding.Behavioural_difference "mc-branch-cond-mismatch"
      (Printf.sprintf
         "the lowering emits %d conditional branches where the IR demands %d"
         no ne)
  else
    List.iteri
      (fun j ((ek, ec), (ok, oc)) ->
        let kind_ok = match ok with Some k -> k = ek | None -> false in
        if (not kind_ok) || ec <> oc then
          add
            (Printf.sprintf "cond-%d" j)
            Finding.Behavioural_difference "mc-branch-cond-mismatch"
            (Printf.sprintf
               "conditional branch %d tests %s under %s flags where the IR \
                demands %s under %s flags"
               j
               (MC.show_cond oc)
               (match ok with
               | Some k -> flag_kind_name k
               | None -> "undefined")
               (MC.show_cond ec) (flag_kind_name ek)))
      (List.combine expected observed);
  (* 2. stop markers: the breakpoint ids are exactly the IR's [I_stop]s *)
  let se = stop_markers_ir ir and so = stop_markers_mc p in
  if se <> so then
    add "stops" Finding.Behavioural_difference "mc-stop-marker-mismatch"
      (Printf.sprintf
         "the program's stop markers [%s] differ from the IR's [%s]"
         (String.concat "; " (List.map string_of_int so))
         (String.concat "; " (List.map string_of_int se)));
  (* 3. frame effect: the stored frame-temp indices match the IR *)
  let fe = frame_stores_ir ir and fo = frame_stores_mc p in
  if fe <> fo then
    add "frame-stores" Finding.Behavioural_difference "mc-frame-store-mismatch"
      (Printf.sprintf
         "the program stores frame temps [%s] where the IR stores [%s]"
         (String.concat "; " (List.map string_of_int fo))
         (String.concat "; " (List.map string_of_int fe)));
  (* 4. constant heap-cell indices match the IR *)
  let ie = slot_indices_ir ir and io = slot_indices_mc p in
  if ie <> io then begin
    let render l =
      String.concat "; "
        (List.map (fun (k, c) -> Printf.sprintf "%s #%d" (slot_kind_name k) c) l)
    in
    add "slots" Finding.Behavioural_difference "mc-slot-index-mismatch"
      (Printf.sprintf
         "the program's constant heap indices [%s] differ from the IR's [%s]"
         (render io) (render ie))
  end;
  (* 5. scratch discipline: the reserved scratches (1 and 2) are only
     written when the IR itself uses the corresponding reserved virtual
     registers; scratch 0 and the class register are free materialisation
     scratches *)
  let reserved =
    match BE.scratch_regs with _ :: rest -> rest | [] -> []
  in
  let ir_defs =
    List.concat_map (fun i -> fst (Ir.def_use i)) ir
  in
  let justified k = List.mem (101 + k) ir_defs in
  Array.iteri
    (fun i instr ->
      if fx.fx_reach.reachable.(i) then
        List.iter
          (fun w ->
            match
              List.find_index (fun r -> r = w) reserved
            with
            | Some k when not (justified k) ->
                add
                  (Printf.sprintf "scratch-%d" i)
                  Finding.Behavioural_difference "mc-unexpected-scratch-clobber"
                  (Printf.sprintf
                     "%s writes reserved scratch %s, which the IR never \
                      allocates"
                     (quote i) (BE.reg_name w))
            | _ -> ())
          (B.writes instr))
    p;
  (* 6. temporary-file liveness: no reachable read of a temporary the
     fixpoint proves is never written first (the IR layer guarantees
     def-before-use, so the lowering must too) *)
  Array.iteri
    (fun i instr ->
      if fx.fx_reach.reachable.(i) then
        match fx.fx_in.(i) with
        | None -> ()
        | Some s ->
            List.iter
              (fun r ->
                if r >= BE.temp_base && s.may land (1 lsl r) = 0 then
                  add
                    (Printf.sprintf "rbw-%d-%d" i r)
                    Finding.Behavioural_difference "mc-read-before-write"
                    (Printf.sprintf
                       "%s reads %s, which no path has written" (quote i)
                       (BE.reg_name r)))
              (B.reads instr))
    p;
  (* 7. guard reachability, flags style: a branch consuming the flags
     register must not observe condition codes that may still be
     undefined.  Fused branches ([V_cmp_branch]) consume no flags — the
     condition-value domain covers them below. *)
  Array.iteri
    (fun i instr ->
      if fx.fx_reach.reachable.(i) then
        match B.view_of instr with
        | Some (BV.V_jcc _) -> (
            match fx.fx_in.(i) with
            | Some s when s.fundef ->
                add
                  (Printf.sprintf "flags-%d" i)
                  Finding.Structural "branch-on-undefined-flags"
                  (Printf.sprintf
                     "%s branches on condition codes no reaching path has set"
                     (quote i))
            | _ -> ())
        | _ -> ())
    p;
  (* 8. guard reachability, condition-value style: a fused branch must
     not read a register whose materialised comparison some reaching
     path has overwritten (or whose provenance differs across paths).
     The never-materialised case is the read-before-write finding of
     check 6, since the condition register sits above [temp_base]. *)
  Array.iteri
    (fun i instr ->
      if fx.fx_reach.reachable.(i) then
        match B.view_of instr with
        | Some (BV.V_cmp_branch (_, rs, _, _)) -> (
            match fx.fx_in.(i) with
            | Some s when cvals_find rs s.cvals = Some Cv_clobbered ->
                add
                  (Printf.sprintf "cv-clobber-%d" i)
                  Finding.Structural "cmp-result-clobbered-before-branch"
                  (Printf.sprintf
                     "%s branches on %s, whose materialised comparison a \
                      reaching path overwrites before the branch"
                     (quote i) (BE.reg_name rs))
            | _ -> ())
        | _ -> ())
    p;
  List.rev !findings

(* --- abstract per-path frame-effect summaries --- *)

type aexit =
  | A_return
  | A_stop of int
  | A_send of string * int
  | A_segfault  (** operand-stack underflow *)
  | A_undefined of string  (** branch to an undefined label *)
  | A_falloff

type apath = { aexit : aexit; depth : int (* operand-stack depth at exit *) }
type summary = { apaths : apath list; atruncated : bool }

let aexit_name = function
  | A_return -> "return"
  | A_stop n -> Printf.sprintf "stop %d" n
  | A_send (s, n) -> Printf.sprintf "send %s/%d" s n
  | A_segfault -> "segfault"
  | A_undefined l -> Printf.sprintf "undefined label %S" l
  | A_falloff -> "falloff"

(* Enumerate the structural paths.  The operand-stack depth is exact
   per path (pushes and pops are not data-dependent); the path set
   over-approximates the feasible set, which is the soundness direction
   the cross-check needs. *)
let summarize ?(max_paths = 256) ?(max_steps = 2048) (p : MC.program) : summary
    =
  let n = Array.length p in
  let labels = MC.label_map p in
  let paths = ref [] and count = ref 0 and truncated = ref false in
  let finish aexit depth =
    if !count >= max_paths then truncated := true
    else begin
      incr count;
      paths := { aexit; depth } :: !paths
    end
  in
  let rec go pc depth steps =
    if !count >= max_paths then truncated := true
    else if steps > max_steps then truncated := true
    else if pc >= n then finish A_falloff depth
    else
      match B.control_of p.(pc) with
      | B.C_exit B.E_return -> finish A_return depth
      | B.C_exit (B.E_stop m) -> finish (A_stop m) depth
      | B.C_exit (B.E_send info) ->
          finish (A_send (EC.selector_name info.MC.selector, info.MC.num_args))
            depth
      | B.C_jump l -> (
          match Hashtbl.find_opt labels l with
          | Some t -> go t depth (steps + 1)
          | None -> finish (A_undefined l) depth)
      | B.C_branch (_, l) ->
          (match Hashtbl.find_opt labels l with
          | Some t -> go t depth (steps + 1)
          | None -> finish (A_undefined l) depth);
          go (pc + 1) depth (steps + 1)
      | B.C_fall -> (
          match B.view_of p.(pc) with
          | Some (BV.V_push _) -> go (pc + 1) (depth + 1) (steps + 1)
          | Some (BV.V_pop _) ->
              if depth = 0 then finish A_segfault 0
              else go (pc + 1) (depth - 1) (steps + 1)
          | _ -> go (pc + 1) depth (steps + 1))
  in
  if n > 0 then go 0 0 0 else finish A_falloff 0;
  { apaths = List.sort_uniq compare !paths; atruncated = !truncated }

(* --- cross-check against the symbolic executor ---

   Soundness, statically validated: every clean exit [Symexec_mc]
   derives symbolically (return / stop / trampoline call, with its
   operand-stack depth) must appear among the abstract structural
   paths.  Trap exits end mid-instruction and are deliberately outside
   the abstract frame-effect language, so they carry no claim. *)

let crosscheck ~subject ~compiler ~arch ~accessor_gaps (p : MC.program)
    (s : summary) : Finding.t list =
  if s.atruncated then []
  else
    let r =
      Symexec_mc.execute ~accessor_gaps
        ~subst:(fun _ -> None)
        ~init_regs:[] ~init_temps:[||] p
    in
    if r.Symexec_mc.truncated then []
    else
      let covered aexit depth =
        List.exists (fun a -> a.aexit = aexit && a.depth = depth) s.apaths
      in
      let findings = ref [] in
      let once = Hashtbl.create 4 in
      List.iter
        (fun (path : Symexec_mc.path) ->
          let claim =
            match path.exit_ with
            | Symexec_mc.M_ret _ -> Some A_return
            | Symexec_mc.M_stop m -> Some (A_stop m)
            | Symexec_mc.M_send info ->
                Some
                  (A_send
                     (EC.selector_name info.MC.selector, info.MC.num_args))
            | Symexec_mc.M_segfault | Symexec_mc.M_sim_error _
            | Symexec_mc.M_stuck _ ->
                None
          in
          match claim with
          | None -> ()
          | Some aexit ->
              let depth = List.length path.Symexec_mc.stack in
              if not (covered aexit depth) then begin
                let key = (aexit, depth) in
                if not (Hashtbl.mem once key) then begin
                  Hashtbl.replace once key ();
                  findings :=
                    Finding.v ~pass:Finding.Abstract_interp ~subject ~compiler
                      ~arch ~family:Finding.Structural
                      ~cause:"abstract-symexec-exit-escape"
                      (Printf.sprintf
                         "the symbolic executor exits via %s at stack depth \
                          %d, which the abstract summary does not cover"
                         (aexit_name aexit) depth)
                    :: !findings
                end
              end)
        r.Symexec_mc.paths;
      List.rev !findings
