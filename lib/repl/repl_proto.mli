(** The log-shipping wire protocol.

    One message per {!Cactis_net.Frame}; payloads reuse the
    {!Cactis.Codec} primitives, so the replication stream shares its
    byte-level vocabulary with the WAL and binary snapshots.  Every
    message is wrapped in a whole-message CRC-32 ([u32 LE] over the
    body), and every shipped record additionally carries its own
    CRC-32 — the same checksum the WAL frames it with on disk — so a
    flipped byte anywhere surfaces as a typed {!Corrupt} error, never
    as a silently divergent replica.

    Cursors, entries and the chain rules that make the stream
    self-verifying under truncation, duplication and reordering belong
    to {!Cactis.Replica}; they are rebound here for the wire format. *)

type cursor = Cactis.Replica.cursor = { gen : int; records : int }

val cursor_zero : cursor
val cursor_compare : cursor -> cursor -> int
val cursor_to_string : cursor -> string

(** One shipped WAL record. *)
type entry = Cactis.Replica.entry = {
  e_seq : int;
  e_prev : cursor;
  e_cursor : cursor;
  e_record : string;
}

(** Raised on any CRC, framing or tag violation while decoding; the
    {e same} exception as {!Cactis.Replica.Corrupt}. *)
exception Corrupt of { context : string; message : string }

(** Follower → writer. *)
type client_msg =
  | Hello of { cursor : cursor; schema_version : int }
      (** Session open: the durable position the follower resumes
          from.  [cursor_zero] for a fresh replica. *)
  | Ack of { seq : int; cursor : cursor; lag_us : int }
      (** Applied through [seq]; [lag_us] is receive-to-applied. *)

(** Writer → follower. *)
type server_msg =
  | Refuse of { code : string; message : string }
      (** Handshake rejected; see {!Repl_error} codes.  Fatal. *)
  | Snap_begin of { generation : int; schema_version : int; size : int }
      (** Bootstrap: a checkpoint snapshot follows in chunks. *)
  | Snap_chunk of { last : bool; data : string }
  | Batch of { sent_us : int; entries : entry list }
      (** Group-commit: every record drained since the last wake, in
          commit order. *)
  | Mark of { seq : int; prev : cursor; generation : int }
      (** Checkpoint notification: the state at [prev] now equals
          checkpoint [generation] — advance to [(generation, 0)]
          without applying anything. *)
  | Heartbeat of { head_seq : int; cursor : cursor; sent_us : int }
      (** Liveness + lag: the writer's stream head ([-1] before any
          item) and cursor. *)

val encode_client : client_msg -> string
val encode_server : server_msg -> string

(** @raise Corrupt on a CRC mismatch, bad tag, truncation or trailing
    bytes. *)
val decode_client : string -> client_msg

val decode_server : string -> server_msg

(** Chunk size for snapshot shipping (comfortably under
    {!Cactis_net.Frame.max_payload}). *)
val snap_chunk_bytes : int
