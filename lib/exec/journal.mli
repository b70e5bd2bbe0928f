(** Append-only JSONL checkpoint journal for supervised runs.

    One line per {e completed} unit (raw outcome, before the circuit
    breaker's post-pass — so a resumed run re-derives quarantines
    deterministically from the same inputs).  The first line is a
    header carrying the format version (2) and a configuration
    fingerprint; {!load} ignores a journal whose fingerprint does not
    match the resuming run.  Every entry carries the md5 of its
    payload, and {!load} skips unparseable lines and lines whose
    payload fails that checksum, so resuming from a truncated or
    damaged journal (a killed run's torn last write, a flipped digit)
    degrades to recomputing the affected units rather than failing or
    decoding corrupt bytes.

    Lines are written under the supervisor's journal mutex in
    completion order, which varies with [-j]; only the {e aggregate}
    output of a resumed run is byte-identical, never the journal
    itself. *)

type status = Ok | Timed_out | Crashed | Worker_died

type entry = {
  key : string;  (** stable unit key, e.g. ["s2r|dup"] *)
  status : status;
  attempts : int;
  detail : string;  (** exhaustion reason or exception text; [""] for Ok *)
  payload : string;
      (** unit result bytes (typically [Marshal] output), hex-armoured
          and checksummed on disk; [""] for non-Ok *)
}

val entry_of_outcome :
  key:string -> encode:('a -> string) -> 'a Supervise.outcome -> entry
(** The journal entry recording one unit's raw outcome, [Ok] results
    encoded by [encode].  Raises [Invalid_argument] on [Quarantined],
    which is never journaled. *)

val outcome_of_entry : decode:(string -> 'a) -> entry -> 'a Supervise.outcome
(** Inverse of {!entry_of_outcome} ([Unit_crashed] comes back without
    its backtrace).  [decode] may raise on a payload it cannot read. *)

val write_header : out_channel -> config:string -> unit
(** Emit the header line.  Call once when creating a fresh journal;
    appending to an existing journal keeps its header. *)

val open_append : config:string -> string -> out_channel
(** Open a journal for appending, writing the header only when the
    file is new or empty — appending to a half-written journal keeps
    its header, which is what lets [--journal F --resume F] continue a
    killed run. *)

val append : ?sync:bool -> out_channel -> entry -> unit
(** Emit one entry line and flush, so a killed run loses at most the
    line being written.  With [~sync:true] ([--journal-sync]) the line
    is also [fsync]ed to stable storage, extending the guarantee from
    process kills to power-cut-style machine kills; the default's
    weaker guarantee merely degrades resume to recomputing a lost
    tail. *)

val load : config:string -> string -> (string, entry) Hashtbl.t
(** Parse a journal back into a key-indexed table (last entry wins).
    Returns an empty table — after a warning on stderr — when the file
    is missing, has no parseable header (including one of another
    format version), or was written under a different configuration
    fingerprint. *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON double-quoted literal. *)
