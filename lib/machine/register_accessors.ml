(* Reflective register accessors.

   The simulation environment handles invalid memory accesses by
   disassembling the trapping instruction and performing the read/write
   reflectively through per-register getter/setter functions — mirroring
   the Pharo simulation behaviour the paper describes in §5.3.

   Seeded defect ("Simulation Error", 2 causes): two accessor entries are
   missing from the table (the getter for scratch register 1 and the
   setter for scratch register 2), so trap handling for instructions that
   use those registers crashes the simulation instead of reporting a
   clean segmentation fault. *)

exception Simulation_error of string

type accessor = {
  getter : (int array -> int) option;
  setter : (int array -> int -> unit) option;
}

let build ~(gaps : bool) : accessor array =
  Array.init Machine_code.num_regs (fun r ->
      let getter = Some (fun regs -> regs.(r)) in
      let setter = Some (fun regs v -> regs.(r) <- v) in
      if gaps && r = Machine_code.r_scratch1 then { getter = None; setter }
      else if gaps && r = Machine_code.r_scratch2 then { getter; setter = None }
      else { getter; setter })

(* Both tables are init-only: built at module initialisation, never
   written after it, and shared by every simulated CPU on every domain
   instead of rebuilt per CPU.  Built eagerly because an OCaml 5 lazy
   forced by two domains at once raises [CamlinternalLazy.Undefined]
   in one. *)
let with_gaps = build ~gaps:true
let without_gaps = build ~gaps:false
let table ~gaps = if gaps then with_gaps else without_gaps

let get table regs r =
  match table.(r).getter with
  | Some f -> f regs
  | None ->
      raise
        (Simulation_error
           (Printf.sprintf "missing reflective getter for %s"
              (Machine_code.reg_name r)))

let set table regs r v =
  match table.(r).setter with
  | Some f -> f regs v
  | None ->
      raise
        (Simulation_error
           (Printf.sprintf "missing reflective setter for %s"
              (Machine_code.reg_name r)))
