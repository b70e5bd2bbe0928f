(** Multi-process worker pool for crash-only campaign execution.

    The coordinator fork/execs [workers] copies of the running binary
    (which must re-enter {!worker_main} when invoked with
    [worker_argv]), deals {!Unit_wire.t} units to each worker over
    pipes, and merges results by stable unit position so the caller's
    aggregate output is byte-identical at any worker count.  A worker
    holds at most two units, the one it runs and one queued behind it,
    so it never waits a round trip for its next unit.

    Robustness properties (each exercised by the {!Chaos} process
    faults and gated in CI):
    {ul
    {- a worker death (signal, nonzero exit) costs one attempt of the
       one unit it was running, the one it acked (or, before its first
       [Ack], the first one dealt); the unit is re-dealt while
       [retries] attempts remain and becomes [P_died] after that.  The
       unit queued behind it never started: it is dealt again with its
       attempt count restored and is not counted in [p_redeals];}
    {- a worker silent past [deadline_s] since its last frame is
       preemptively SIGKILLed (catches SIGSTOP freezes and native
       spins the cooperative {!Budget} watchdog cannot see) — its
       status string gains a ["deadline "] prefix;}
    {- [breaker_k] consecutive deaths on one slot without a completed
       unit retire the slot permanently (no respawn);}
    {- torn or garbage bytes on a result pipe are counted and resynced
       past by the {!Unit_wire} decoder, never fatal;}
    {- if {!Interrupt.requested} becomes true, all workers are killed
       and unfinished units, queued ones included, are returned as
       [P_not_run].}} *)

type outcome =
  | P_result of Unit_wire.verdict * int
      (** worker-reported verdict and the attempts it consumed *)
  | P_died of { status : string; attempts : int }
      (** the worker died with [status] (e.g. ["signal sigkill"],
          ["exit 2"], ["deadline signal sigkill"]) and the retry
          budget is exhausted *)
  | P_not_run  (** never dealt (interrupt, or every slot retired) *)

type stats = {
  p_workers : int;  (** effective pool size *)
  p_spawned : int;  (** processes launched, including respawns *)
  p_deaths : int;  (** unexpected worker deaths *)
  p_preempted : int;  (** deadline SIGKILLs issued *)
  p_redeals : int;  (** units re-dealt after a death *)
  p_garbage : int;  (** torn/garbage/stray frames discarded *)
  p_retired : int;  (** slots retired by the per-slot breaker *)
}
(** [p_deaths], [p_preempted], [p_redeals] and [p_garbage] are
    functions of the unit list and the fault plan, so they are safe to
    report in deterministic JSON; [p_spawned]/[p_retired] can vary with
    scheduling and belong in human-facing output only. *)

val run :
  workers:int ->
  ?deadline_s:float ->
  ?retries:int ->
  ?breaker_k:int ->
  ?worker_argv:string array ->
  hello:string ->
  ?on_final:(int -> outcome -> unit) ->
  Unit_wire.t array ->
  outcome array * stats
(** [run ~workers ~hello units] executes every unit in a disposable
    worker process and returns outcomes indexed like [units], plus
    pool statistics.  [hello] is the opaque configuration payload
    delivered to each worker before any unit (the campaign marshals
    its run configuration here).  [on_final i o] fires once per unit
    when its outcome is final — the journal sink.  [units.(i).w_index]
    values must be unique (they echo back in result frames);
    [w_attempt] is overwritten with the coordinator's deal count so
    worker-side retries continue the shared attempt budget. *)

val worker_main : (string -> Unit_wire.t -> Unit_wire.verdict * int) -> unit
(** Worker-process entry point; never returns.  [make] is applied once
    to the [Hello] configuration payload, and the resulting handler
    maps each dealt unit to [(verdict, attempts)].  Protocol frames
    travel on the process's original stdin/stdout; fd 1 is re-pointed
    at [/dev/null] before any unit runs so stray prints cannot corrupt
    the stream.  Calls {!Chaos.mark_worker} so process-level faults
    armed for the dealt units fire here, in the disposable process. *)

val status_string : Unix.process_status -> string
(** Stable rendering of a wait status (["exit 2"], ["signal sigkill"],
    ["stopped sigstop"]) — exported for tests. *)
