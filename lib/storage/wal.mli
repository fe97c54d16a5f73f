(** Write-ahead log: append-only file of CRC-framed binary records.

    Payload-agnostic: the core library encodes transaction deltas into
    records; this module guarantees that after a crash the intact prefix
    of records can be identified exactly.  Each record is framed as
    [[u32 LE length][u32 LE CRC-32][payload]] after a fixed file header
    ([CWAL3] magic plus a u64 LE checkpoint {e generation} linking the
    log to the snapshot its records follow, plus a u64 LE
    {e schema version} — the number of schema deltas folded into that
    snapshot); {!read} stops at the first torn or corrupt frame and
    reports where the durable prefix ends, so recovery can truncate the
    tail and land on the last completed append.  Logs written by the
    previous [CWAL2] format (no schema version field) are still read,
    reporting schema version 0.

    Durability is batched ({e group commit}): a writer fsyncs after every
    [sync_every] appends (default 1 = every append durable immediately;
    0 = only on explicit {!sync}/{!close}). *)

(** {1 Reading / recovery} *)

type read_result = {
  records : string list;  (** intact records, oldest first *)
  valid_end : int;  (** byte offset where the intact prefix ends *)
  torn : bool;  (** true if trailing bytes were discarded *)
  generation : int;  (** checkpoint generation from the header (0 if unreadable) *)
  schema_version : int;
      (** schema version stamped at log start (0 for CWAL2 logs and
          unreadable headers) *)
  data_start : int;
      (** offset of the first record frame — the header length of the
          format actually read (CWAL2 headers are shorter) *)
}

(** [read path] scans the log (current [CWAL3] or legacy [CWAL2]
    format).  A missing file reads as empty; a file with a bad header
    reads as empty-and-torn with generation 0. *)
val read : string -> read_result

(** Size in bytes of the current-format file header
    (magic + generation + schema version).  For the header length of a
    specific file, use {!read}'s [data_start]. *)
val header_len : int

(** {1 Writing} *)

type writer

(** [open_writer ?sync_every ?generation ?schema_version ?truncate_at
    ?obs path] opens (creating if needed) a log for appending.
    [truncate_at] drops a torn tail identified by {!read} before the
    first append; [generation] and [schema_version] (default 0) are
    stamped into the header when one is freshly written (an existing
    intact header is left untouched — use {!reset} to restamp).  [obs]
    receives per-append and per-fsync latency histograms ([wal_append],
    [wal_fsync]). *)
val open_writer :
  ?sync_every:int ->
  ?generation:int ->
  ?schema_version:int ->
  ?truncate_at:int ->
  ?obs:Cactis_obs.Ctx.t ->
  string ->
  writer

(** [append w payload] appends one framed record (fsyncs if the group
    commit quota is reached). *)
val append : writer -> string -> unit

(** Flush and fsync everything appended so far. *)
val sync : writer -> unit

(** [reset w ~generation ~schema_version] truncates back to an empty
    log (checkpoint made the records redundant), restamps the header
    with the checkpoint's generation and schema version, and fsyncs. *)
val reset : writer -> generation:int -> schema_version:int -> unit

val close : writer -> unit
val path : writer -> string

(** Appends performed / frame bytes written through this writer (for the
    persistence experiments' O(delta) accounting). *)
val appends : writer -> int

val appended_bytes : writer -> int

(** Appends since this writer was opened or last {!reset} — the
    record-level cursor replication uses: combined with the records
    already on disk at open time it names "record [n] of generation
    [g]", the position a log-shipping follower resumes from. *)
val appends_since_reset : writer -> int

(** CRC-32 (IEEE) of a string — exposed for tests and tools. *)
val crc32 : string -> int32

(** [write_file_durable path contents] — write-to-temp, fsync, rename,
    fsync the parent directory: a crash leaves either the old file or
    the new one, never a torn mixture, and the rename itself is durable
    before the call returns.  Used for checkpoint snapshots. *)
val write_file_durable : string -> string -> unit
