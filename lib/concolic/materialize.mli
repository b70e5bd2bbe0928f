(** Input materialisation: interpret a solver model's structural object
    descriptions to build a concrete object memory and VM frame (§3.2).

    Deterministic for a given model, so the explorer (interpreter side)
    and the differential tester (compiled side) rebuild byte-identical
    inputs independently — including identical oops, since heap
    allocation order is reproduced exactly. *)

type input = {
  om : Vm_objects.Object_memory.t;
  frame : Interpreter.Frame.t;
  meth : Bytecodes.Compiled_method.t;
  bindings : (Symbolic.Sym_expr.t * Vm_objects.Value.t) list;
      (** term → materialised oop, for every materialised input term *)
  stack_depth : int;
}

type arena
(** A reusable scratch object memory, pre-seeded with the method under
    test.  {!build} with an arena rolls the heap back to the
    post-method watermark instead of creating a fresh memory, removing
    the allocation hot path of the explore loop; the replayed
    allocations are oop-for-oop identical to a fresh build. *)

val arena :
  method_in:(Vm_objects.Object_memory.t -> Bytecodes.Compiled_method.t) ->
  arena
(** Create the scratch memory and build the method once.  An arena is
    single-owner mutable state: use from one domain at a time, and note
    that the [input.om] returned by {!build} aliases it — take a fresh
    arena wherever the memory must outlive the next [build]. *)

val build :
  ?arena:arena ->
  model:Solver.Model.t ->
  method_in:(Vm_objects.Object_memory.t -> Bytecodes.Compiled_method.t) ->
  recv_var:Symbolic.Sym_expr.var ->
  temp_vars:Symbolic.Sym_expr.var array ->
  entry_var:(int -> Symbolic.Sym_expr.var) ->
  stack_size_term:Symbolic.Sym_expr.t ->
  unit ->
  input
(** [entry_var rank] is the input-stack variable at [rank] below the top
    (rank 0 = top of the input operand stack). *)

val copy : input -> input
(** An input equal to the given one, object for object and oop for oop,
    over an {!Vm_objects.Object_memory.copy} of its memory, with its
    method view and a fresh frame rebuilt over that copy: running
    either one never changes the other.  Takes the input of a frame
    that has not run yet. *)
