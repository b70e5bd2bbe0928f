(** Solver-backed translation validation.

    Aligns the symbolically executed machine code of a compiled unit
    ({!Symexec_mc}) against one concolically explored interpreter path
    and decides per-path equivalence: exit shapes via the shared
    {!Frame_diff.path_exit} alignment, values syntactically (modulo
    commutativity and the tag bridges) with {!Solver.Solve} equivalence
    queries as fallback, and overlap queries for machine paths whose
    exit disagrees.

    A [Refuted] verdict is a *candidate*: its witness model satisfies
    both path conditions plus the mismatch predicate, and the difftest
    runner must replay it concretely before the refutation counts
    (non-reproducing witnesses are downgraded to spurious warnings). *)

type witness = {
  model : Solver.Model.t;
  reason : string;
  missing : bool;  (** a missing-functionality (not-compiled) refutation *)
}

type verdict =
  | Proved  (** every reachable machine path aligns with the summary *)
  | Refuted of witness  (** candidate counterexample, pending replay *)
  | Unknown of string  (** budget, fragment or alignment limits *)

val verdict_to_string : verdict -> string

val total_queries : unit -> int
(** Total solver queries posed by this module, across all domains
    (monotone atomic counter; see {!reset_total_queries}).  Queries are
    counted when posed, before the solver memo — so counts do not
    depend on cache hits or worker count. *)

val reset_total_queries : unit -> unit

val with_query_count : (unit -> 'a) -> 'a * int
(** [with_query_count f] runs [f] and returns its result paired with
    the number of solver queries the *calling domain* posed during the
    call — stable under [-j] because each campaign unit runs entirely
    on one domain. *)

val validate_path :
  ?se_budget:Symexec_mc.budget ->
  ?query_budget:int ref ->
  ?ir_slot:Jit.Cogits.ir_slot ->
  defects:Interpreter.Defects.t ->
  compiler:Jit.Cogits.compiler ->
  arch:Jit.Codegen.arch ->
  Concolic.Path.t ->
  verdict
(** Validate one interpreter path against one compiler on one ISA.
    [query_budget] is decremented per solver query; exhausted budgets
    answer [Unknown].  Machine-path enumeration is memoized per
    (subject, compiler, arch, defects, frame shape).  [ir_slot] (fresh
    by default) carries one path's sentinel-literal IR across its ISAs,
    so a caller validating the path on several ISAs compiles it once.
    Invalid-frame
    paths and native paths whose stack does not match the calling
    convention answer [Unknown] (callers treat these as skipped). *)

val term_equal : Symbolic.Sym_expr.t -> Symbolic.Sym_expr.t -> bool
(** Structural term equality modulo commutativity of [Add]/[Mul], the
    bitwise operators and float add/mul. *)

val cond_equal : Symbolic.Sym_expr.t -> Symbolic.Sym_expr.t -> bool
(** {!term_equal} on conditions, additionally folding negated-compare
    shapes ([Not (Cmp (c, a, b))] ≡ [Cmp (¬c, a, b)]); float compares
    are not folded through negation (NaN). *)
