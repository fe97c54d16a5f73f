(* Write-ahead log: an append-only file of CRC-framed binary records.

   The log is payload-agnostic — Cactis commits encode transaction
   deltas into records upstream (lib/core), this module only guarantees
   that whatever prefix of records survives a crash can be identified
   exactly.  Framing per record:

     [u32 LE payload length][u32 LE CRC-32 of payload][payload bytes]

   preceded by a fixed file header: the magic plus a u64 LE generation
   number.  The generation links the log to the checkpoint it follows —
   a checkpoint stamps its snapshot and the reset log with the same
   fresh generation, so a crash between the two steps leaves a log whose
   generation no longer matches the snapshot and recovery can tell the
   records were already folded into the snapshot.

   A reader walks records until the file ends cleanly or a record is
   torn (truncated frame, impossible length, CRC mismatch); everything
   from the first bad frame on is discarded, so recovery lands on the
   last durably completed append. *)

let magic = "CWAL3\n"
let header_len = String.length magic + 16

(* The previous format: same framing, but the header carried only the
   generation (no schema version).  Still readable — old logs recover
   byte-identically, reporting schema version 0. *)
let magic_v2 = "CWAL2\n"
let header_len_v2 = String.length magic_v2 + 8

let header ~generation ~schema_version =
  let b = Bytes.create header_len in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  Bytes.set_int64_le b (String.length magic) (Int64.of_int generation);
  Bytes.set_int64_le b (String.length magic + 8) (Int64.of_int schema_version);
  Bytes.to_string b

(* Make a directory-entry change (create, rename) itself durable.
   Best-effort: some filesystems reject fsync on a directory fd. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320)                     *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let ix = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl) in
      c := Int32.logxor table.(ix) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

type read_result = {
  records : string list;  (** intact records, oldest first *)
  valid_end : int;  (** byte offset where the intact prefix ends *)
  torn : bool;  (** true if trailing bytes were discarded *)
  generation : int;  (** checkpoint generation from the header (0 if unreadable) *)
  schema_version : int;  (** schema version at log start (0 for CWAL2 / unreadable) *)
  data_start : int;  (** offset of the first record frame = header length of the format read *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let u32_le s pos =
  Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF

let has_magic s m = String.length s >= String.length m && String.equal (String.sub s 0 (String.length m)) m

let read path =
  if not (Sys.file_exists path) then
    { records = []; valid_end = 0; torn = false; generation = 0; schema_version = 0;
      data_start = header_len }
  else begin
    let s = read_file path in
    let len = String.length s in
    let hdr =
      if len >= header_len && has_magic s magic then
        Some
          ( Int64.to_int (String.get_int64_le s (String.length magic)),
            Int64.to_int (String.get_int64_le s (String.length magic + 8)),
            header_len )
      else if len >= header_len_v2 && has_magic s magic_v2 then
        Some (Int64.to_int (String.get_int64_le s (String.length magic_v2)), 0, header_len_v2)
      else None
    in
    match hdr with
    | None ->
      { records = []; valid_end = 0; torn = len > 0; generation = 0; schema_version = 0;
        data_start = header_len }
    | Some (generation, schema_version, data_start) ->
      let records = ref [] in
      let pos = ref data_start in
      let torn = ref false in
      let continue = ref true in
      while !continue do
        if !pos = len then continue := false
        else if len - !pos < 8 then begin
          torn := true;
          continue := false
        end
        else begin
          let plen = u32_le s !pos in
          let crc = Int32.of_int (u32_le s (!pos + 4)) in
          if plen > len - !pos - 8 then begin
            torn := true;
            continue := false
          end
          else begin
            let payload = String.sub s (!pos + 8) plen in
            if not (Int32.equal (crc32 payload) crc) then begin
              torn := true;
              continue := false
            end
            else begin
              records := payload :: !records;
              pos := !pos + 8 + plen
            end
          end
        end
      done;
      {
        records = List.rev !records;
        valid_end = !pos;
        torn = !torn;
        generation;
        schema_version;
        data_start;
      }
  end

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

type writer = {
  path : string;
  fd : Unix.file_descr;
  oc : out_channel;
  sync_every : int;  (* fsync after this many appends; 0 = only explicit *)
  mutable pending : int;  (* appends since the last fsync *)
  mutable appends : int;
  mutable since_reset : int;  (* appends since open or the last reset *)
  mutable appended_bytes : int;  (* frame bytes written through this writer *)
  h_append : Cactis_obs.Histogram.h;
  h_fsync : Cactis_obs.Histogram.h;
}

let fsync w =
  Cactis_obs.Flight.record Cactis_obs.Flight.Wal_fsync ~a:w.pending ~b:w.appends;
  let start_ns = Cactis_obs.Clock.now_ns () in
  flush w.oc;
  Unix.fsync w.fd;
  Cactis_obs.Histogram.observe w.h_fsync (Cactis_obs.Clock.elapsed_s ~since:start_ns)

let open_writer ?(sync_every = 1) ?(generation = 0) ?(schema_version = 0) ?truncate_at ?obs path =
  (* Without a caller-supplied observability context, appends/fsyncs are
     still timed — into a private, never-read registry (negligible cost
     next to the I/O being measured). *)
  let obs = match obs with Some o -> o | None -> Cactis_obs.Ctx.create () in
  let fresh = not (Sys.file_exists path) in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  (match truncate_at with
  | Some n when not fresh -> Unix.ftruncate fd n
  | Some _ | None -> ());
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_out oc true;
  let w =
    {
      path;
      fd;
      oc;
      sync_every;
      pending = 0;
      appends = 0;
      since_reset = 0;
      appended_bytes = 0;
      h_append = Cactis_obs.Histogram.cell obs.Cactis_obs.Ctx.hists "wal_append";
      h_fsync = Cactis_obs.Histogram.cell obs.Cactis_obs.Ctx.hists "wal_fsync";
    }
  in
  if fresh || Unix.lseek fd 0 Unix.SEEK_CUR = 0 then begin
    output_string oc (header ~generation ~schema_version);
    fsync w;
    fsync_dir (Filename.dirname path)
  end;
  w

let append w payload =
  let start_ns = Cactis_obs.Clock.now_ns () in
  let plen = String.length payload in
  let frame = Bytes.create 8 in
  Bytes.set_int32_le frame 0 (Int32.of_int plen);
  Bytes.set_int32_le frame 4 (crc32 payload);
  output_bytes w.oc frame;
  output_string w.oc payload;
  w.appends <- w.appends + 1;
  w.since_reset <- w.since_reset + 1;
  w.appended_bytes <- w.appended_bytes + 8 + plen;
  w.pending <- w.pending + 1;
  Cactis_obs.Flight.record Cactis_obs.Flight.Wal_append ~a:(8 + plen) ~b:w.appends;
  if w.sync_every > 0 && w.pending >= w.sync_every then begin
    fsync w;
    w.pending <- 0
  end;
  Cactis_obs.Histogram.observe w.h_append (Cactis_obs.Clock.elapsed_s ~since:start_ns)

let sync w =
  fsync w;
  w.pending <- 0

(* Truncate back to an empty log (after a checkpoint made the records
   redundant), stamping the header with the checkpoint's generation.  A
   crash mid-reset leaves a short/empty file, which [read] reports as
   generation 0 — older than any real checkpoint, so recovery treats it
   the same as an un-reset stale log. *)
let reset w ~generation ~schema_version =
  flush w.oc;
  Unix.ftruncate w.fd 0;
  seek_out w.oc 0;
  output_string w.oc (header ~generation ~schema_version);
  flush w.oc;
  Unix.fsync w.fd;
  w.pending <- 0;
  w.since_reset <- 0

let close w =
  fsync w;
  close_out w.oc

let path w = w.path
let appends w = w.appends
let appends_since_reset w = w.since_reset
let appended_bytes w = w.appended_bytes

(* ------------------------------------------------------------------ *)
(* Durable whole-file writes (checkpoints)                             *)

(* Write-to-temp, fsync, rename, fsync the directory: a crash leaves
   either the old file or the new one, never a torn mixture — and the
   directory fsync makes the rename itself durable, so nothing that
   runs after this call can become durable before the new file is. *)
let write_file_durable path contents =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_out oc true;
  (try
     output_string oc contents;
     flush oc;
     Unix.fsync fd;
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)
