(** The decision procedure over the semantic constraint language (§3.3).

    Specialised to the constraint shapes the shadow machine emits, in the
    DPLL(T) spirit: bounded expansion of the few disjunctions that arise
    (negated small-int range checks), a type/class assignment pass over
    oop-sorted terms, interval propagation over the integer atoms, a
    difference-bound refutation ({!difference_refutes}), a range
    refutation ({!range_refutes}) and a witness search (biased
    candidates, bounded random sampling, linear repair).

    Mirrors the paper's solver limits (§4.3): conjunctions containing
    bitwise operations or constants beyond 56-bit precision answer
    [Unknown], which the explorer and the differential tester treat as
    curated-out.  The machine-level tag/shift/mask operators emitted by
    the JIT lowering are first rewritten to exact arithmetic
    counterparts (see {!normalize}), so conditions arising from
    translation validation of compiled code stay inside the fragment. *)

type verdict =
  | Sat of Model.t  (** concrete witnesses for every atom *)
  | Unsat
  | Unknown of string  (** outside the supported fragment *)

val normalize : Symbolic.Sym_expr.t -> Symbolic.Sym_expr.t
(** Rewrite the bit-level operators with exact arithmetic counterparts
    (valid for all two's-complement integers; [asr] and [land] against a
    low mask are floor division / floor modulus):
    [a lsl k = a * 2^k], [a asr k = a / 2^k] (floor),
    [a land (2^k - 1) = a mod 2^k], [(2a) lor 1 = 2a + 1]. *)

(** {2 Canonical conjunctions}

    A [prepared] value is a path condition in canonical form: conjuncts
    bit-normalized, [Not] pushed through integer comparisons,
    trivially-true conjuncts dropped, duplicates collapsed, the rest
    sorted — so semantically equal conjunctions built in any order share
    one {!fingerprint}, which is exactly the key the memo and the
    persistent store use.  It also tracks sound syntactic refutations
    (complement pairs, false constant comparisons, empty constant-bound
    meets); {!prepared_unsat} lets the explorer prune a child without
    any solver call. *)

type prepared

val empty_prepared : prepared

val extend : prepared -> Symbolic.Sym_expr.t -> prepared
(** Add one conjunct.  O(size of the conjunction); building a child
    from its prefix costs one insertion, not a re-canonicalisation. *)

val prepare : Symbolic.Sym_expr.t list -> prepared
val fingerprint : prepared -> string

val prepared_unsat : prepared -> bool
(** Syntactically refuted — sound: [true] implies the conjunction is
    unsatisfiable, never the reverse. *)

val normalize_conjunction :
  Symbolic.Sym_expr.t list -> Symbolic.Sym_expr.t list
(** The canonical conjunct list itself (idempotent and
    solve-preserving; both qcheck-checked in [test_solver]). *)

val solve : ?seed:int -> Symbolic.Sym_expr.t list -> verdict
(** Conjunction satisfiability.  Deterministic for a given [seed].
    Memoized: the verdict is cached under the canonical conjunction's
    fingerprint (plus seed) in a table shared read-mostly across
    domains, so repeated queries — the same subject explored for
    several compilers, curation, validator equivalence checks — run the
    decision procedure once.  When a {!Exec.Store} is active the
    verdict also persists across processes.  Caching never changes a
    verdict (see {!solve_uncached} and the qcheck property in
    [test_exec]). *)

val solve_prepared : ?seed:int -> prepared -> verdict
(** {!solve} for an already-canonical conjunction (skips
    re-preparation; same counters, same caches, same verdicts). *)

val solve_uncached : ?seed:int -> Symbolic.Sym_expr.t list -> verdict
(** {!solve} bypassing the memo table and the store: always runs the
    decision procedure (after the same canonicalisation).  The
    determinism oracle for the caches. *)

val difference_refutes :
  bounds:(Symbolic.Sym_expr.t -> Interval.t option) ->
  (Symbolic.Sym_expr.cmp * Symbolic.Sym_expr.t * Symbolic.Sym_expr.t) list ->
  bool
(** [difference_refutes ~bounds cmps]: the comparisons [a ⋈ b] of the
    shape [±x + k ⋈ 0] or [x - y + k ⋈ 0] (each side at most two
    unit-coefficient atoms plus a constant, all within 56 bits), together
    with the atoms' [bounds], contain a negative cycle — so no
    assignment of the atoms inside [bounds] satisfies [cmps].  Other
    comparisons are ignored, which only weakens the check.  The decision
    procedure calls it with the propagated intervals before the witness
    search; when it holds, the search could only end in
    [Unknown "no witness found"], which is answered (with the same fuel
    charge) without running it. *)

val range_refutes :
  bounds:(Symbolic.Sym_expr.t -> Interval.t option) ->
  (Symbolic.Sym_expr.cmp * Symbolic.Sym_expr.t * Symbolic.Sym_expr.t) list ->
  bool
(** [range_refutes ~bounds cmps]: some comparison [a ⋈ b] cannot hold
    for any assignment of the atoms inside [bounds], judged by interval
    evaluation of both sides — linear terms, the division family
    ([//], [\\], [quo], [rem], with {!Interval.floor_div} and its
    siblings) and float exponents.  A side whose bounds could leave
    [±2^61] is left unbounded, which only weakens the check.  Like
    {!difference_refutes} it runs before the witness search, on the
    intervals every candidate stays inside, and a refutation is
    answered with the exhausted search's verdict and fuel charge. *)

type search_stats = {
  exhausted : int;  (** witness searches run to the end without a witness *)
  refuted : int;
      (** searches skipped because {!difference_refutes} or
          {!range_refutes} held *)
}

val search_stats : unit -> search_stats
(** Witness-search counters since the last {!reset_cache}.  Counted on
    the decision procedure's runs only (cache and store hits run
    none); never part of any report compared for byte identity. *)

val cache_stats : unit -> Exec.Memo.stats
(** Hit/miss counters of the solver memo since the last
    {!reset_cache}.  [hits + misses] = number of {!solve} calls. *)

val queries_posed : unit -> int
(** Number of {!solve} calls since the last {!reset_cache}, counted by
    an atomic independent of the memo's own accounting — the oracle for
    the [hits + misses = queries] consistency check in the bench
    harness and CI smoke. *)

val reset_cache : unit -> unit
(** Drop all cached verdicts and zero the counters (bench phases call
    this so each configuration is measured cold). *)
