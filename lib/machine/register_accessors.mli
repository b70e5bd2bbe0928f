(** Reflective register accessors.

    The simulation environment handles invalid memory accesses by
    performing the faulting register transfer through per-register
    getter/setter functions (§5.3).  The seeded "simulation error"
    defects are two missing entries in this table. *)

exception Simulation_error of string

type accessor = {
  getter : (int array -> int) option;
  setter : (int array -> int -> unit) option;
}

val table : gaps:bool -> accessor array
(** The accessor table; with [gaps] the getter for scratch register 1 and
    the setter for scratch register 2 are missing.  Each of the two
    tables is built once and shared: callers must not write to it. *)

val get : accessor array -> int array -> int -> int
(** @raise Simulation_error on a missing getter. *)

val set : accessor array -> int array -> int -> int -> unit
(** @raise Simulation_error on a missing setter. *)
