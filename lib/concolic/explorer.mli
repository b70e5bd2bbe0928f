(** The concolic exploration engine (§2.3 of the paper).

    For one VM instruction (byte-code, native method, or byte-code
    sequence), repeatedly: solve the seed path-condition prefix, rebuild
    concrete inputs, execute on the shadow machine, record the path, and
    negate every not-already-negated clause to seed further explorations
    (generational search).  Unlike classic concolic testing, exploration
    does not stop at erroneous exits (§2.2). *)

type result = {
  subject : Path.subject;
  paths : Path.t list;
  iterations : int;  (** concolic executions performed *)
  skipped_negations : int;
      (** negated prefixes the solver could not crack (§4.3 limits) *)
  unsat_negations : int;  (** negated prefixes proven infeasible *)
  unsupported : bool;  (** instruction not supported by the tester (§4.3) *)
}

val explore :
  ?max_iterations:int ->
  ?defects:Interpreter.Defects.t ->
  ?lookahead:bool ->
  Path.subject ->
  result
(** Explore every execution path of one instruction ([max_iterations]
    bounds the concolic executions, default 128).  [lookahead] enables
    the compare-and-branch fusion for sequences (the byte-code
    look-aheads of §4.3, implemented here; off by default to match the
    paper's prototype).

    Memoized per (subject, defects, max_iterations, lookahead), under
    {!store_key}: the first consumer pays for the exploration, later
    consumers — the other byte-code compilers, the translation
    validator — share the immutable result.  Safe across domains
    (in-flight dedup). *)

val store_key :
  Path.subject -> Interpreter.Defects.t -> int -> bool -> string
(** [store_key subject defects max_iterations lookahead]: the key of an
    exploration in the memo and in the persistent store.  Distinct
    subjects get distinct keys as long as {!Path.subject_name} is
    injective (checked in [test_concolic]). *)

val explore_uncached :
  ?max_iterations:int ->
  ?defects:Interpreter.Defects.t ->
  ?lookahead:bool ->
  Path.subject ->
  result
(** {!explore} bypassing the path-summary cache. *)

val cache_stats : unit -> Exec.Memo.stats
(** Hit/miss counters of the path-summary cache. *)

val reset_cache : unit -> unit
(** Drop all cached explorations and zero the counters. *)

val method_in_for :
  Path.subject -> Vm_objects.Object_memory.t -> Bytecodes.Compiled_method.t
(** The method under test for a subject, built in the given memory — the
    same construction the differential tester replays so inputs
    re-materialise identically. *)
