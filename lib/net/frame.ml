let header_len = 4
let max_payload = 16 * 1024 * 1024

exception Too_large of int
exception Truncated of { expected : int; got : int }
exception Stalled of { sent : int; len : int }

let check_len n = if n > max_payload then raise (Too_large n)

let encode payload =
  let n = String.length payload in
  check_len n;
  let b = Bytes.create (header_len + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b header_len n;
  Bytes.unsafe_to_string b

(* The big-endian u32 length header at [off], checked against
   [max_payload] (so the Int32 round-trip is lossless). *)
let length_at b off =
  let v = Int32.to_int (Bytes.get_int32_be b off) in
  if v < 0 then raise (Too_large max_int);
  check_len v;
  v

(* ---- Sockets ---- *)

let send_deadline_s = 5.0
let listen_backlog = 64

(* A peer that closes mid-write must surface as EPIPE on that write,
   not as a process-killing SIGPIPE. *)
let ignore_sigpipe () = if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let listen ~port =
  ignore_sigpipe ();
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd listen_backlog;
    Unix.set_nonblock fd;
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> (fd, p)
    | Unix.ADDR_UNIX _ -> assert false
  with e ->
    Unix.close fd;
    raise e

let accept lfd =
  match Unix.accept ~cloexec:true lfd with
  | fd, _ ->
    Unix.set_nonblock fd;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    Some fd
  | exception Unix.Unix_error _ -> None

let connect ~host ~port =
  ignore_sigpipe ();
  let hints = [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] in
  let addr =
    match Unix.getaddrinfo host (string_of_int port) hints with
    | ai :: _ -> ai.Unix.ai_addr
    | [] -> raise (Unix.Unix_error (Unix.ENOENT, "getaddrinfo", host))
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd addr;
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    fd
  with e ->
    Unix.close fd;
    raise e

(* The one write loop.  A blocking descriptor blocks in [write]; on a
   non-blocking one EAGAIN waits for writability until the deadline, and
   a [select] that times out ends it even if a retried write would still
   squeeze in a few bytes: a peer whose closed window trickles open must
   not win each frame a fresh deadline. *)
let write_all fd s =
  let len = String.length s in
  let deadline = Unix.gettimeofday () +. send_deadline_s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
        let remaining = deadline -. Unix.gettimeofday () in
        match if remaining > 0.0 then Unix.select [] [ fd ] [] remaining else ([], [], []) with
        | _, [], _ -> raise (Stalled { sent = off; len })
        | _ -> go off
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off)
  in
  go 0

let send fd payload = write_all fd (encode payload)

(* Reads exactly [n] bytes; [None] on EOF before the first byte. *)
let read_exactly fd n =
  let b = Bytes.create n in
  let rec go got =
    if got = n then Some b
    else
      match Unix.read fd b got (n - got) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go got
      | 0 -> if got = 0 then None else raise (Truncated { expected = n; got })
      | r -> go (got + r)
  in
  go 0

let recv fd =
  match read_exactly fd header_len with
  | None -> None
  | Some hdr -> (
    let n = length_at hdr 0 in
    match read_exactly fd n with
    | Some payload -> Some (Bytes.unsafe_to_string payload)
    | None -> raise (Truncated { expected = n; got = 0 }))

(* ---- Incremental decoding ---- *)

(* Bytes [lo, hi) of [buf] are fed but not yet returned as frames. *)
type decoder = {
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
}

(* The least room a [fill] reads into. *)
let min_read = 4096

let decoder () = { buf = Bytes.create min_read; lo = 0; hi = 0 }
let buffered d = d.hi - d.lo

(* Make room for [n] more bytes after [hi]: slide the unconsumed bytes
   to the front of a buffer big enough for them. *)
let reserve d n =
  if d.hi + n > Bytes.length d.buf then begin
    let live = buffered d in
    let buf = if live + n > Bytes.length d.buf then Bytes.create (2 * (live + n)) else d.buf in
    Bytes.blit d.buf d.lo buf 0 live;
    d.buf <- buf;
    d.lo <- 0;
    d.hi <- live
  end

let feed d s =
  let n = String.length s in
  reserve d n;
  Bytes.blit_string s 0 d.buf d.hi n;
  d.hi <- d.hi + n

let fill d fd =
  reserve d min_read;
  let n = Unix.read fd d.buf d.hi (Bytes.length d.buf - d.hi) in
  d.hi <- d.hi + n;
  n

let next d =
  if buffered d < header_len then None
  else begin
    let n = length_at d.buf d.lo in
    if buffered d - header_len < n then None
    else begin
      let payload = Bytes.sub_string d.buf (d.lo + header_len) n in
      d.lo <- d.lo + header_len + n;
      Some payload
    end
  end
