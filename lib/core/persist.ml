module Wal = Cactis_storage.Wal
module Counters = Cactis_util.Counters
module Clock = Cactis_obs.Clock
module Ctx = Cactis_obs.Ctx
module Histogram = Cactis_obs.Histogram

type t = {
  dir : string;
  db : Db.t;
  mutable wal : Wal.writer;
  sync_every : int;
  auto_checkpoint : int;  (* WAL bytes that trigger a checkpoint; 0 = never *)
  mutable generation : int;  (* checkpoint generation on disk *)
  mutable cp_base : int;  (* appended_bytes at the last checkpoint *)
  mutable wal_base : int;  (* records already in the log when the writer opened *)
  mutable replayed : int;
  mutable torn : bool;
  mutable closed : bool;
}

let snapshot_file dir = Filename.concat dir "snapshot.bin"
let wal_file dir = Filename.concat dir "wal.log"

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    Errors.type_error "persistence path %s exists and is not a directory" dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The snapshot file wraps Snapshot.save_binary in a small header
   carrying the checkpoint generation — the number that pairs the
   snapshot with the log that follows it (the same value lives in the
   WAL header, see Wal). *)
let snap_magic = "CSNP1\n"
let snap_header_len = String.length snap_magic + 8

let encode_snapshot generation data =
  let b = Bytes.create snap_header_len in
  Bytes.blit_string snap_magic 0 b 0 (String.length snap_magic);
  Bytes.set_int64_le b (String.length snap_magic) (Int64.of_int generation);
  Bytes.to_string b ^ data

let decode_snapshot path s =
  if
    String.length s < snap_header_len
    || not (String.equal (String.sub s 0 (String.length snap_magic)) snap_magic)
  then Errors.type_error "%s: not a Cactis checkpoint (bad header)" path;
  ( Int64.to_int (String.get_int64_le s (String.length snap_magic)),
    String.sub s snap_header_len (String.length s - snap_header_len) )

(* Generation and schema version of a checkpoint file, without loading
   it (the schema version is the count of schema deltas in the
   snapshot's schema section — no rule compiler needed). *)
let snapshot_versions path =
  let generation, payload = decode_snapshot path (read_file path) in
  (generation, Snapshot.binary_schema_version payload)

let db t = t.db
let dir t = t.dir
let replayed t = t.replayed
let recovered_torn t = t.torn
let generation t = t.generation
let snapshot_path t = snapshot_file t.dir
let wal_path t = wal_file t.dir

(* Records in the log since the last checkpoint: position [n] of
   generation [generation t] — the replication cursor.  [wal_base]
   covers records that predate this writer (recovery replayed them);
   [Wal.reset] zeroes the writer's own count, so checkpoint also
   clears the base. *)
let wal_records t = t.wal_base + Wal.appends_since_reset t.wal

(* The checkpoint currently on disk, decoded past its CSNP1 header:
   (generation, schema version, Snapshot.save_binary payload).  What a
   replication publisher serves to a bootstrapping follower — the file
   is only replaced atomically, so reading it races nothing. *)
let read_checkpoint t =
  let sf = snapshot_file t.dir in
  if not (Sys.file_exists sf) then None
  else
    let generation, payload = decode_snapshot sf (read_file sf) in
    Some (generation, Snapshot.binary_schema_version payload, payload)

(* WAL frame bytes appended since the last checkpoint — the O(delta)
   commit cost the experiments measure.  [cp_base] is negative right
   after attach/recover over a log that already held frames, so bytes
   that predate this writer still count toward [auto_checkpoint]. *)
let wal_bytes t = Wal.appended_bytes t.wal - t.cp_base

let checkpoint t =
  if Db.in_txn t.db then Errors.type_error "cannot checkpoint inside a transaction";
  let start_ns = Clock.now_ns () in
  let generation = t.generation + 1 in
  let data = Snapshot.save_binary t.db in
  (* Snapshot first (atomic replace + directory fsync), then the log
     reset stamped with the same fresh generation.  A crash between the
     two leaves the new snapshot over a log still stamped with the old
     generation; recover sees the mismatch and skips those records
     instead of double-applying deltas the snapshot already contains. *)
  Wal.write_file_durable (snapshot_file t.dir) (encode_snapshot generation data);
  (* The log header records the schema version at log start — the number
     of schema deltas folded into the snapshot it follows.  Appended
     schema deltas then move the live version past it; recovery replays
     them on top, exactly like data deltas. *)
  Wal.reset t.wal ~generation ~schema_version:(Db.schema_step_count t.db);
  t.generation <- generation;
  t.cp_base <- Wal.appended_bytes t.wal;
  t.wal_base <- 0;
  Cactis_obs.Flight.record Cactis_obs.Flight.Checkpoint ~a:generation
    ~b:(Db.schema_step_count t.db);
  Counters.incr (Db.counters t.db) "checkpoints";
  Histogram.observe_named (Db.obs t.db).Ctx.hists "checkpoint" (Clock.elapsed_s ~since:start_ns)

let install_hook t =
  Db.set_commit_hook t.db
    (Some
       (fun delta ->
         Wal.append t.wal (Codec.encode_delta delta);
         Counters.incr (Db.counters t.db) "wal_appends";
         if t.auto_checkpoint > 0 && wal_bytes t >= t.auto_checkpoint then checkpoint t))

let attach ?(sync_every = 1) ?(auto_checkpoint = 0) ~dir db =
  ensure_dir dir;
  let sf = snapshot_file dir in
  let snap_gen, snap_sv = if Sys.file_exists sf then snapshot_versions sf else (0, 0) in
  let existing = Wal.read (wal_file dir) in
  (* A same-generation log whose schema version is ahead of the snapshot
     holds schema deltas the snapshot does not know about — the snapshot
     file was deleted or replaced with an older one.  Re-baselining over
     it would silently destroy those deltas, so refuse (mirror of
     recover's log-ahead generation check). *)
  if existing.Wal.generation = snap_gen && existing.Wal.schema_version > snap_sv then
    Errors.type_error
      "cannot attach %s: log schema version %d is ahead of checkpoint schema version %d \
       (checkpoint file deleted or replaced?)"
      dir existing.Wal.schema_version snap_sv;
  let generation = max snap_gen existing.Wal.generation in
  let wal =
    Wal.open_writer ~sync_every ~generation ~schema_version:(Db.schema_step_count db)
      ~truncate_at:existing.Wal.valid_end ~obs:(Db.obs db) (wal_file dir)
  in
  let t =
    {
      dir;
      db;
      wal;
      sync_every;
      auto_checkpoint;
      generation;
      cp_base = 0;
      wal_base = List.length existing.Wal.records;
      replayed = 0;
      torn = false;
      closed = false;
    }
  in
  (* The log is only replayable against a baseline snapshot of this
     exact database.  Anything already in the directory — an old
     snapshot, leftover log records, a torn tail — was not loaded into
     [db], so force a checkpoint: it stamps a fresh baseline and resets
     the log, discarding the stale state.  (Use {!recover} to continue
     from a directory's contents instead of overriding them.) *)
  if
    Sys.file_exists sf || existing.Wal.records <> [] || existing.Wal.torn
    || Db.instance_ids db <> [] || Db.history db <> []
  then checkpoint t;
  install_hook t;
  t

let recover ?strategy ?sched ?block_capacity ?buffer_capacity ?(sync_every = 1)
    ?(auto_checkpoint = 0) ~dir schema =
  ensure_dir dir;
  let sf = snapshot_file dir in
  let snap_gen, db =
    if Sys.file_exists sf then begin
      let generation, payload = decode_snapshot sf (read_file sf) in
      ( generation,
        Snapshot.load_binary ?strategy ?sched ?block_capacity ?buffer_capacity schema payload )
    end
    else (0, Db.create ?strategy ?sched ?block_capacity ?buffer_capacity schema)
  in
  (* The snapshot's schema version is the count of baseline schema
     deltas it carried (zero for CACTISB1 snapshots and fresh dirs). *)
  let snap_sv = Db.schema_step_count db in
  let replay_start_ns = Clock.now_ns () in
  let { Wal.records; valid_end; torn; generation = wal_gen; schema_version = wal_sv; data_start }
      =
    Wal.read (wal_file dir)
  in
  if wal_gen > snap_gen then
    Errors.type_error
      "cannot recover %s: log generation %d is ahead of checkpoint generation %d (checkpoint \
       file deleted or replaced?)"
      dir wal_gen snap_gen;
  (* A log older than the checkpoint is the crash window between the two
     checkpoint steps: its records are already folded into the snapshot,
     so replaying them would double-apply.  Discard them and reset. *)
  let stale = wal_gen < snap_gen in
  if (not stale) && wal_sv <> snap_sv then
    Errors.type_error
      "cannot recover %s: log starts at schema version %d but the checkpoint is at schema \
       version %d (checkpoint file deleted or replaced?)"
      dir wal_sv snap_sv;
  let records = if stale then [] else records in
  List.iter (fun record -> Db.replay_delta db (Codec.decode_delta record)) records;
  Engine.propagate (Db.engine db);
  let obs = Db.obs db in
  Ctx.span ~h:(Histogram.cell obs.Ctx.hists "recovery_replay") "recovery_replay"
    ~start_ns:replay_start_ns (List.length records);
  let wal =
    Wal.open_writer ~sync_every ~generation:snap_gen ~schema_version:snap_sv
      ~truncate_at:valid_end ~obs (wal_file dir)
  in
  if stale then Wal.reset wal ~generation:snap_gen ~schema_version:snap_sv;
  let t =
    {
      dir;
      db;
      wal;
      sync_every;
      auto_checkpoint;
      generation = snap_gen;
      cp_base = (if stale then Wal.appended_bytes wal else -(max 0 (valid_end - data_start)));
      wal_base = List.length records;
      replayed = List.length records;
      torn = torn && not stale;
      closed = false;
    }
  in
  install_hook t;
  t

let sync t = Wal.sync t.wal

let close t =
  if not t.closed then begin
    t.closed <- true;
    Db.set_commit_hook t.db None;
    Wal.close t.wal
  end
