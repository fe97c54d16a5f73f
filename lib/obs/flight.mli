(** Always-on flight recorder.

    A process-global, per-domain ring of compact structured events —
    the black box that explains a crash or a latency spike after the
    fact, and the one event stream behind every trace export.  The
    recorder is {e never off}: every instrumented point pays one
    flag-load-and-branch plus a handful of ring-slot stores and
    allocates nothing, cheap enough to leave in every hot path (E18
    measures the E13 workload, and a plan larger than the buffer pool
    where every pager miss records, within budget).

    Each domain records into its own fixed-size ring (no sharing, no
    locks on the hot path); rings hold the last {!capacity} events per
    domain and overwrite the oldest on wrap.  A slot is stored unboxed
    as parallel int arrays (timestamp, kind, [a], [b]) plus a shared
    detail string; {!snapshot} builds the {!event} records.  It reads
    every ring {e while other domains keep recording} and returns a
    {e consistent prefix} per domain without ever tearing a
    multi-word slot: the writer stores all of a slot's words before
    the atomic write-index bump that publishes it, and the reader,
    which reads the index before (w) and after (w2) copying, drops
    every copied entry e with e + {!capacity} <= w2 — exactly the
    entries whose slots a concurrent writer may have been rewriting.

    Dumps use a self-contained little-endian binary format
    ([CFR1]; see DESIGN.md §12) carrying a wall-clock / monotonic-clock
    correlation pair, so an offline tool ([cactis doctor]) can place
    every event in wall time. *)

(** What happened.  The two integer payloads [fe_a]/[fe_b] are
    per-kind (version stamps, byte counts, block numbers — see
    {!Doctor} rendering); [fe_detail] is a short string (truncated to
    255 bytes at record time), shared constants on hot paths. *)
type kind =
  | Txn_begin  (** [a] = version id this txn will commit as *)
  | Txn_commit  (** [a] = committed version id, [b] = ops in delta *)
  | Txn_abort  (** [a] = ops rolled back *)
  | Wal_append  (** [a] = frame bytes, [b] = appends so far *)
  | Wal_fsync  (** [a] = appends covered by this fsync *)
  | Checkpoint  (** [a] = generation, [b] = schema version *)
  | Pager_miss  (** [a] = block number *)
  | Pager_writeback  (** [a] = block number *)
  | Recluster_slice  (** [a] = instances moved *)
  | Net_accept  (** [a] = live connections after accept *)
  | Net_verb  (** [a] = service µs, [b] = req id; [detail] = verb *)
  | Net_error  (** [a] = req id; [detail] = error code name *)
  | Schema_delta  (** [a] = version stamp; [detail] = change name *)
  | Watchdog  (** [detail] = anomaly reason *)
  | Note  (** free-form marker ([detail]) *)
  | Span
      (** a timed site, recorded when it ends: [a] = duration ns, [b] =
          the site's main count; [detail] = site name *)

val kind_name : kind -> string

type event = {
  fe_ts_ns : int64;  (** monotonic clock reading at record time *)
  fe_kind : kind;
  fe_a : int;
  fe_b : int;
  fe_detail : string;
}

(** Events retained per domain (power of two). *)
val capacity : int

(** [record k ~a ~b] appends one event to the calling domain's ring.
    Safe from any domain, never raises, never blocks (the ring is
    created and registered on the domain's first record). *)
val record : kind -> a:int -> b:int -> unit

(** [record_s k ~a ~b detail] — like {!record} with a detail string
    (truncated to 255 bytes). *)
val record_s : kind -> a:int -> b:int -> string -> unit

(** [note msg] — a free-form {!Note} marker. *)
val note : string -> unit

(** [span name ~start_ns ~end_ns count] records a {!Span} stamped
    [end_ns] (both {!Clock.now_ns} readings); [name] should be a shared
    constant. *)
val span : string -> start_ns:int64 -> end_ns:int64 -> int -> unit

(** [name_domain name] labels the calling domain's section in dumps
    ("writer", "reader-0", …).  Default label is ["domain-N"]. *)
val name_domain : string -> unit

(** Measurement-only master switch (E18 baseline runs).  The recorder
    starts {e on}; suppressing it turns {!record} into the single
    flag-check — production code never calls this. *)
val set_recording : bool -> unit

val recording : unit -> bool

(** One domain's slice of a dump: a consistent, oldest-first prefix of
    its ring at snapshot time. *)
type section = {
  fs_domain : int;  (** domain id *)
  fs_name : string;
  fs_total : int;  (** events ever recorded by this domain *)
  fs_events : event list;
}

type dump = {
  d_wall_us : int64;  (** wall clock at snapshot, µs since epoch *)
  d_mono_ns : int64;  (** monotonic reading at snapshot *)
  d_sections : section list;  (** sorted by domain id; empty rings omitted *)
}

(** Snapshot every domain's ring (consistent prefix per domain; safe
    while other domains record). *)
val snapshot : unit -> dump

(** [CFR1] binary encoding (self-contained; no schema needed to read). *)
val encode : dump -> string

(** Decode a [CFR1] dump; [Error msg] on truncated or corrupt input. *)
val decode : string -> (dump, string) result

(** [dump_to_file ~dir ~reason] snapshots, encodes and writes a
    timestamped post-mortem file ([flight-<utc>-<pid>-<reason>.cfr])
    under [dir] (created, with parents, if missing); returns its
    path. *)
val dump_to_file : dir:string -> reason:string -> string

(** Forget all recorded events and domain labels (test isolation;
    call while no other domain is recording). *)
val reset : unit -> unit

(** JSON string-body escaping (quotes, backslashes, control bytes). *)
val json_escape : string -> string

(** Chrome trace-event JSON of a dump (a live {!snapshot} or a decoded
    post-mortem), loadable in Perfetto or chrome://tracing.  Each
    section is one named track.  {!Span} and {!Net_verb} events become
    complete (["X"]) events; each [Txn_begin] is paired with the same
    domain's next [Txn_commit] or [Txn_abort] into one ["txn"] span, so
    waves and WAL events nest inside their transaction; every other
    event (and an unpaired txn event) is an instant (["i"]) carrying
    [a], [b] and [detail] as args.  Timestamps are µs from the earliest
    start in the dump. *)
val to_chrome_json : dump -> string
