(* Log-shipping wire protocol: CRC-wrapped tagged messages over Codec
   primitives.  See the interface for the cursor/chain model. *)

module Codec = Cactis.Codec
module Replica = Cactis.Replica
module Wal = Cactis_storage.Wal

type cursor = Replica.cursor = { gen : int; records : int }

let cursor_zero = Replica.cursor_zero
let cursor_compare = Replica.cursor_compare
let cursor_to_string = Replica.cursor_to_string

type entry = Replica.entry = {
  e_seq : int;
  e_prev : cursor;
  e_cursor : cursor;
  e_record : string;
}

exception Corrupt = Replica.Corrupt

let corrupt context fmt = Printf.ksprintf (fun message -> raise (Corrupt { context; message })) fmt

type client_msg =
  | Hello of { cursor : cursor; schema_version : int }
  | Ack of { seq : int; cursor : cursor; lag_us : int }

type server_msg =
  | Refuse of { code : string; message : string }
  | Snap_begin of { generation : int; schema_version : int; size : int }
  | Snap_chunk of { last : bool; data : string }
  | Batch of { sent_us : int; entries : entry list }
  | Mark of { seq : int; prev : cursor; generation : int }
  | Heartbeat of { head_seq : int; cursor : cursor; sent_us : int }

let snap_chunk_bytes = 1 lsl 20

(* ------------------------------------------------------------------ *)
(* Body encoding (tag byte + Codec primitives)                         *)

let write_cursor b c =
  Codec.write_uint b c.gen;
  Codec.write_uint b c.records

let read_cursor r =
  let gen = Codec.read_uint r in
  let records = Codec.read_uint r in
  { gen; records }

let tag_hello = 1
let tag_ack = 2
let tag_refuse = 10
let tag_snap_begin = 11
let tag_snap_chunk = 12
let tag_batch = 13
let tag_mark = 14
let tag_heartbeat = 15

let encode_client_body m =
  let b = Buffer.create 32 in
  (match m with
  | Hello { cursor; schema_version } ->
    Buffer.add_char b (Char.chr tag_hello);
    write_cursor b cursor;
    Codec.write_uint b schema_version
  | Ack { seq; cursor; lag_us } ->
    Buffer.add_char b (Char.chr tag_ack);
    (* seq -1 means "nothing applied yet" (an ack sent before any data,
       e.g. for the handshake heartbeat): shift by one for the uint. *)
    Codec.write_uint b (seq + 1);
    write_cursor b cursor;
    Codec.write_uint b lag_us);
  Buffer.contents b

let encode_server_body m =
  let b = Buffer.create 64 in
  (match m with
  | Refuse { code; message } ->
    Buffer.add_char b (Char.chr tag_refuse);
    Codec.write_string b code;
    Codec.write_string b message
  | Snap_begin { generation; schema_version; size } ->
    Buffer.add_char b (Char.chr tag_snap_begin);
    Codec.write_uint b generation;
    Codec.write_uint b schema_version;
    Codec.write_uint b size
  | Snap_chunk { last; data } ->
    Buffer.add_char b (Char.chr tag_snap_chunk);
    Codec.write_uint b (if last then 1 else 0);
    Codec.write_string b data
  | Batch { sent_us; entries } ->
    Buffer.add_char b (Char.chr tag_batch);
    Codec.write_uint b sent_us;
    Codec.write_uint b (List.length entries);
    List.iter
      (fun e ->
        Codec.write_uint b e.e_seq;
        write_cursor b e.e_prev;
        write_cursor b e.e_cursor;
        (* The record travels with its own CRC — the same checksum the
           WAL frames it with — so a flip inside the payload is caught
           even if the outer message checksum were ever skipped. *)
        Codec.write_uint b (Int32.to_int (Wal.crc32 e.e_record) land 0xFFFFFFFF);
        Codec.write_string b e.e_record)
      entries
  | Mark { seq; prev; generation } ->
    Buffer.add_char b (Char.chr tag_mark);
    Codec.write_uint b seq;
    write_cursor b prev;
    Codec.write_uint b generation
  | Heartbeat { head_seq; cursor; sent_us } ->
    Buffer.add_char b (Char.chr tag_heartbeat);
    (* head_seq -1 means "nothing shipped yet" (a writer with an empty
       log): shifted by one like Ack's seq. *)
    Codec.write_uint b (head_seq + 1);
    write_cursor b cursor;
    Codec.write_uint b sent_us);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* CRC wrapper: [u32 LE crc32(body)][body].  Any bit flip or           *)
(* truncation anywhere in a frame decodes to a typed Corrupt.          *)

let wrap body =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Wal.crc32 body);
  Bytes.to_string b ^ body

let unwrap ~context s =
  if String.length s < 5 then corrupt context "frame too short (%d bytes)" (String.length s);
  let stored = String.get_int32_le s 0 in
  let body = String.sub s 4 (String.length s - 4) in
  if not (Int32.equal (Wal.crc32 body) stored) then
    corrupt context "message CRC mismatch (stored %08lx, computed %08lx)" stored
      (Wal.crc32 body);
  body

let encode_client m = wrap (encode_client_body m)
let encode_server m = wrap (encode_server_body m)

(* Decoding wraps every Codec failure — wrong varint, short string —
   into Corrupt, so a caller never has to know the primitives leaked. *)
let decoding context f =
  try
    let v = f () in
    v
  with
  | Codec.Error { offset; message } -> corrupt context "at byte %d: %s" offset message
  | Invalid_argument m -> corrupt context "%s" m

let finish ~context r v =
  if not (Codec.at_end r) then
    corrupt context "trailing bytes after message (at %d of %d)" r.Codec.pos
      (String.length r.Codec.src);
  v

let decode_client s =
  let context = "client" in
  let body = unwrap ~context s in
  decoding context (fun () ->
      let r = Codec.reader body in
      let tag = Codec.read_uint r in
      let m =
        if tag = tag_hello then begin
          let cursor = read_cursor r in
          let schema_version = Codec.read_uint r in
          Hello { cursor; schema_version }
        end
        else if tag = tag_ack then begin
          let seq = Codec.read_uint r - 1 in
          let cursor = read_cursor r in
          let lag_us = Codec.read_uint r in
          Ack { seq; cursor; lag_us }
        end
        else corrupt context "unknown client message tag %d" tag
      in
      finish ~context r m)

let decode_server s =
  let context = "server" in
  let body = unwrap ~context s in
  decoding context (fun () ->
      let r = Codec.reader body in
      let tag = Codec.read_uint r in
      let m =
        if tag = tag_refuse then begin
          let code = Codec.read_string r in
          let message = Codec.read_string r in
          Refuse { code; message }
        end
        else if tag = tag_snap_begin then begin
          let generation = Codec.read_uint r in
          let schema_version = Codec.read_uint r in
          let size = Codec.read_uint r in
          Snap_begin { generation; schema_version; size }
        end
        else if tag = tag_snap_chunk then begin
          let last = Codec.read_uint r <> 0 in
          let data = Codec.read_string r in
          Snap_chunk { last; data }
        end
        else if tag = tag_batch then begin
          let sent_us = Codec.read_uint r in
          let n = Codec.read_uint r in
          let entries = ref [] in
          for _ = 1 to n do
            let e_seq = Codec.read_uint r in
            let e_prev = read_cursor r in
            let e_cursor = read_cursor r in
            let crc = Codec.read_uint r in
            let e_record = Codec.read_string r in
            let actual = Int32.to_int (Wal.crc32 e_record) land 0xFFFFFFFF in
            if actual <> crc then
              corrupt context "record CRC mismatch at seq %d (stored %08x, computed %08x)"
                e_seq crc actual;
            entries := { e_seq; e_prev; e_cursor; e_record } :: !entries
          done;
          Batch { sent_us; entries = List.rev !entries }
        end
        else if tag = tag_mark then begin
          let seq = Codec.read_uint r in
          let prev = read_cursor r in
          let generation = Codec.read_uint r in
          Mark { seq; prev; generation }
        end
        else if tag = tag_heartbeat then begin
          let head_seq = Codec.read_uint r - 1 in
          let cursor = read_cursor r in
          let sent_us = Codec.read_uint r in
          Heartbeat { head_seq; cursor; sent_us }
        end
        else corrupt context "unknown server message tag %d" tag
      in
      finish ~context r m)
