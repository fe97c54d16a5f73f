(** Offline post-mortem analyzer ([cactis doctor]).

    Correlates a flight-recorder dump ({!Cactis_obs.Flight}) with the
    WAL tail of a persistence directory: reconstructs a merged event
    timeline across domains, reports the last durable version against
    the last commit the process attempted, and lists what each domain
    had in flight when the dump was taken.

    Versions in the verdict are relative to the WAL's checkpoint
    baseline: the snapshot holds everything up to the last checkpoint,
    and each intact WAL record is one more durable version on top —
    exactly what {!Persist.recover} will replay.  On a directory that
    has never checkpointed, "records since baseline" {e is} the
    database's version count. *)

module Flight = Cactis_obs.Flight

type wal_info = {
  dw_generation : int;  (** checkpoint generation stamped in the log header *)
  dw_schema_version : int;  (** schema version at log start *)
  dw_records : int;  (** intact records — what recovery will replay *)
  dw_torn : bool;  (** trailing bytes after the intact prefix *)
  dw_undecodable : int;  (** intact frames whose delta failed to decode *)
  dw_data_ops : int;  (** data ops across decodable records *)
  dw_schema_ops : int;  (** schema ops across decodable records *)
}

type report = {
  r_dump : Flight.dump;
  r_last_commit : int;  (** highest committed version in the dump (0 = none) *)
  r_last_attempt : int;  (** highest version a [txn_begin] aimed at (0 = none) *)
  r_open_txns : (string * int) list;
      (** domains holding a txn open at dump time (name, target version) *)
  r_wal : wal_info option;
  r_last_durable : int option;  (** intact WAL records since checkpoint baseline *)
}

(** [load path] — read and decode a [CFR1] dump file. *)
val load : string -> (Flight.dump, string) result

(** [analyze ?wal_dir dump] — correlate the dump with [wal_dir]'s WAL
    (omit [wal_dir] for a flight-only report). *)
val analyze : ?wal_dir:string -> Flight.dump -> report

(** One line for a single event (timeline formatting, no timestamp). *)
val describe_event : Flight.event -> string

(** Full human-readable report: merged timeline (all domains, by
    timestamp, relative ms) followed by the verdict.  [limit] keeps
    only the newest [limit] timeline lines (default unlimited). *)
val render : ?limit:int -> report -> string

(** The verdict as a JSON object (machine-readable [--json] output),
    plus every retained span, oldest first, as [spans]. *)
val render_json : report -> string
