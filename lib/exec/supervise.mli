(** Fault-tolerant unit supervisor for campaign/validate/mutate runs.

    Wraps each unit of a run — one (compiler × subject) cell, one
    mutant, one validation target — in an isolated, budgeted,
    retryable execution and returns a per-unit verdict from the
    lattice [Ok | Timed_out | Unit_crashed | Worker_died | Quarantined]
    instead of letting one misbehaving unit kill or hang the whole
    matrix.  [Worker_died] is produced by the {!Procpool} tier: the
    unit's disposable worker process was killed, crashed, or went
    silent past its heartbeat deadline, and re-dealing exhausted the
    retry budget.

    Everything is deterministic by construction so aggregate output
    stays byte-identical at any [-j] (and, via the procpool's
    stable-index merge, at any [--workers]):
    {ul
    {- timeouts come from the {!Budget} fuel watchdog, which counts
       work steps, not wall time (the optional deadline is a coarse
       safety net and should stay far above any real unit);}
    {- retry backoff is a seed-derived spin, not a wall-clock sleep;}
    {- the per-group circuit breaker (trips after [breaker_k]
       consecutive fatalities within one group, quarantining the rest
       of that group) is decided by {!breaker_postpass} over units in
       stable input order, never by completion order.  Workers may
       additionally skip a unit early when they can already {e prove}
       the breaker has tripped before it — [breaker_k] adjacent,
       completed fatalities at the immediately preceding group
       positions — which can only agree with the post-pass, so the
       advisory skip saves work without costing determinism.}} *)

type failure = { exn : string; backtrace : string }

type 'a verdict =
  | Ok of 'a
  | Timed_out of string  (** budget exhausted; payload is ["fuel"] or ["deadline"] *)
  | Unit_crashed of failure
  | Worker_died of string
      (** the unit's worker process died (payload: wait status such as
          ["sigkill"], ["exit 2"], or ["deadline sigkill"] for a
          preemptive kill) and re-dealing exhausted the retries *)
  | Quarantined of string
      (** skipped because the group's circuit breaker tripped (payload:
          the group key) or the run was interrupted (["interrupted"]) *)

type 'a outcome = { verdict : 'a verdict; attempts : int }
(** [attempts] is how many executions the unit consumed (0 for
    quarantined-without-running). *)

type counts = {
  c_ok : int;
  c_timed_out : int;
  c_crashed : int;
  c_worker_died : int;
  c_quarantined : int;
  c_retries : int;  (** extra attempts beyond the first, summed *)
}

type policy = {
  retries : int;  (** extra attempts after a failed first one *)
  fuel : int option;  (** per-attempt step budget (see {!Budget}) *)
  deadline_s : float option;  (** per-attempt monotonic deadline *)
  breaker_k : int;  (** consecutive fatalities tripping the breaker; 0 disables *)
  seed : int;  (** backoff derivation seed *)
}

val default_policy : policy
(** 1 retry, 50M fuel, no deadline, breaker at 4, seed 0.  The fuel
    default is orders of magnitude above any real unit (a full
    campaign unit charges a few hundred thousand steps at most), so
    pristine runs never time out, while an injected hang is contained
    in well under a second. *)

val run :
  ?jobs:int ->
  ?policy:policy ->
  ?chaos:(int -> Chaos.kind option) ->
  ?precomputed:(int -> 'b outcome option) ->
  ?record:(int -> 'b outcome -> unit) ->
  group:('u -> string) ->
  ('u -> 'b) ->
  'u array ->
  'b outcome array
(** [run ~group f units] supervises [f] over every unit and returns
    outcomes in stable input order.

    [chaos i] arms a {!Chaos} fault for every attempt of unit [i].
    [precomputed i] (resume path) supplies a journaled outcome; such
    units are not executed and not re-recorded.  [record i outcome] is
    the journal sink, called under an internal mutex as units complete
    (completion order — only aggregate results are [-j]-stable);
    quarantined units are not recorded so a resumed run re-derives
    quarantine from the same crash evidence.  [group u] keys the
    circuit breaker (typically the compiler short name).

    If {!Interrupt.requested} becomes true, units not yet started are
    given [Quarantined "interrupted"] (attempts 0, never recorded) and
    the run drains quickly instead of dying mid-journal-write. *)

val breaker_postpass :
  breaker_k:int -> group:('u -> string) -> 'u array -> 'b outcome array -> unit
(** Apply the deterministic circuit breaker to [outcomes] in place
    (stable input order per group, [Unit_crashed]/[Worker_died] feed
    the streak).  Exposed so the procpool merge applies exactly the
    in-process rule after collecting worker results. *)

val run_attempts :
  policy:policy ->
  idx:int ->
  first:int ->
  chaos:Chaos.kind option ->
  (unit -> 'b) ->
  'b outcome
(** The retry loop behind {!run} for one unit: run [f] under the
    [chaos] fault and a fresh {!Budget} per attempt, numbering attempts
    from [first]; after a crash or an exhausted budget, spin a
    seed-derived backoff (derived from [policy.seed], [idx] and the
    attempt) and retry while attempts [<= policy.retries].  The verdict
    is [Ok], [Timed_out] or [Unit_crashed].  Exported so worker
    processes, which continue the coordinator's deal count, replicate
    the in-process retries exactly. *)

val tally : 'a outcome array -> counts
(** Aggregate verdict counts over a slice of outcomes. *)

val verdict_name : 'a verdict -> string
(** ["ok" | "timed_out" | "crashed" | "worker_died" | "quarantined"] —
    stable names for tables, JSON, and journals. *)

val verdict_detail : 'a verdict -> string
(** Human-readable detail: exhaustion reason, exception text, wait
    status, or the quarantining group; [""] for [Ok]. *)
