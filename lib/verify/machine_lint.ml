(* Pass 3: the machine-code lint — a client of the backend-generic
   abstract interpreter ({!Abstract_mc}).

   Static checks over lowered [Machine.Machine_code] programs, for any
   back-end behind {!Machine.Backend_sig}:
   - label hygiene and branch-target resolution;
   - sentinel reachability: some exit instruction (return, breakpoint,
     trampoline call) must be reachable, and control must not run off
     the end of the program (the simulator would segfault);
   - code after an unconditional branch: unreachable *computational*
     instructions are flagged.  Unreachable [Label]s and [Brk]s are
     exempt — the unit schemas (Listing 3/4) append stop markers and
     fail epilogues that specific units legitimately never reach;
   - register-accessor coverage: for every reachable instruction that
     can enter the simulator's reflective trap handlers, the
     [Register_accessors] table must provide the accessor the handler
     needs.  This statically catches the seeded simulation-error
     defects without executing a single instruction;
   - statically out-of-range frame-temp and spill-slot indices.

   Reachability, branch-target resolution and end-falloff all come from
   {!Abstract_mc.reach}; ISA specifics are confined to the back-end
   instances, so no [X_*]/[A_*] constructor appears here. *)

module MC = Machine.Machine_code

let lint ?reach ~accessor_gaps ~subject ~compiler ~arch (p : MC.program) :
    Finding.t list =
  let n = Array.length p in
  let findings = ref [] in
  let once = Hashtbl.create 16 in
  let add key family cause detail =
    if not (Hashtbl.mem once key) then begin
      Hashtbl.replace once key ();
      findings :=
        Finding.v ~pass:Finding.Machine_lint ~subject ~compiler ~arch ~family
          ~cause detail
        :: !findings
    end
  in
  let quote i = Printf.sprintf "%d: %s" i (Machine.Disasm.instr p.(i)) in
  (* label hygiene; MC.label_map keeps the last duplicate, so detect
     duplicates separately *)
  let seen = Hashtbl.create 8 in
  Array.iter
    (function
      | MC.Label l ->
          if Hashtbl.mem seen l then
            add ("dup-" ^ l) Finding.Structural "duplicate-label"
              (Printf.sprintf "label %S defined more than once" l)
          else Hashtbl.replace seen l ()
      | _ -> ())
    p;
  (* reachability from entry, with the branch-resolution events in the
     interpreter's discovery order; a caller that already ran the
     fixpoint passes its [fx_reach] *)
  let r = match reach with Some r -> r | None -> Abstract_mc.reach p in
  let reachable = r.Abstract_mc.reachable in
  List.iter
    (function
      | Abstract_mc.Ev_undefined_label (i, l) ->
          add ("undef-" ^ l) Finding.Structural "undefined-branch-target"
            (Printf.sprintf "%s branches to undefined label %S" (quote i) l)
      | Abstract_mc.Ev_falloff from ->
          add "falloff" Finding.Structural "control-runs-off-the-end"
            (Printf.sprintf "control falls through past the last instruction \
                             (%s); the simulator would fault" (quote from)))
    r.Abstract_mc.events;
  (* some sentinel exit must be reachable *)
  let sentinel = ref false in
  Array.iteri
    (fun i instr ->
      match Machine.Backend.control_of instr with
      | Machine.Backend.C_exit _ when reachable.(i) -> sentinel := true
      | _ -> ())
    p;
  if n > 0 && not !sentinel then
    add "no-sentinel" Finding.Structural "no-reachable-sentinel"
      "no return, stop marker or trampoline call is reachable: the unit \
       cannot report an exit condition";
  (* unreachable computational code (labels and stop markers exempt) *)
  Array.iteri
    (fun i instr ->
      if not reachable.(i) then
        match instr with
        | MC.Label _ | MC.Brk _ -> ()
        | _ ->
            add
              (Printf.sprintf "unreach-%d" i)
              Finding.Structural "unreachable-code"
              (Printf.sprintf "%s is unreachable" (quote i)))
    p;
  (* accessor-table coverage for every reachable trappable instruction,
     plus statically certain out-of-range frame accesses *)
  let table = Machine.Register_accessors.table ~gaps:accessor_gaps in
  Array.iteri
    (fun i instr ->
      if reachable.(i) then begin
        (match instr with
        | MC.Load_temp (_, ix) | MC.Store_temp (ix, _) ->
            if ix < 0 || ix >= MC.num_frame_temps then
              add
                (Printf.sprintf "temp-oob-%d" i)
                Finding.Structural "frame-temp-index-out-of-bounds"
                (Printf.sprintf "%s: index %d outside [0, %d)" (quote i) ix
                   MC.num_frame_temps)
        | MC.Spill_load (_, sl) | MC.Spill_store (sl, _) ->
            if sl < 0 || sl >= MC.num_spill_slots then
              add
                (Printf.sprintf "spill-oob-%d" i)
                Finding.Structural "spill-slot-out-of-bounds"
                (Printf.sprintf "%s: slot %d outside [0, %d)" (quote i) sl
                   MC.num_spill_slots)
        | _ -> ());
        match MC.trap_class instr with
        | MC.Trap_none -> ()
        | MC.Trap_load d ->
            if d < 0 || d >= MC.num_regs then
              add
                (Printf.sprintf "reg-oob-%d" i)
                Finding.Structural "register-out-of-range"
                (Printf.sprintf "%s: register %d" (quote i) d)
            else if (table.(d)).Machine.Register_accessors.setter = None then
              add
                (Printf.sprintf "setter-%d" d)
                Finding.Simulation_error
                (Printf.sprintf "missing reflective setter for %s"
                   (MC.reg_name d))
                (Printf.sprintf
                   "%s may trap; the handler must write %s through the \
                    accessor table, which has no setter for it"
                   (quote i) (MC.reg_name d))
        | MC.Trap_store s ->
            if s < 0 || s >= MC.num_regs then
              add
                (Printf.sprintf "reg-oob-%d" i)
                Finding.Structural "register-out-of-range"
                (Printf.sprintf "%s: register %d" (quote i) s)
            else if (table.(s)).Machine.Register_accessors.getter = None then
              add
                (Printf.sprintf "getter-%d" s)
                Finding.Simulation_error
                (Printf.sprintf "missing reflective getter for %s"
                   (MC.reg_name s))
                (Printf.sprintf
                   "%s may trap; the handler must read %s through the \
                    accessor table, which has no getter for it"
                   (quote i) (MC.reg_name s))
      end)
    p;
  List.rev !findings
