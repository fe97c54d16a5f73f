(** Length-prefixed frames over TCP: the one place the system opens,
    reads and writes its sockets.

    Every message on the wire is a 4-byte big-endian unsigned length
    followed by that many payload bytes.  The payload is opaque here —
    {!Proto} and the replication protocol give it meaning.

    Two consumption styles:
    - {!recv}/{!send} move one whole frame (the client side, and every
      reply);
    - a {!decoder} is filled by {!fill} (or {!feed}) and yields complete
      frames as they form (the event loops, the follower, the torn-frame
      tests).

    Lengths above {!max_payload} (16 MiB) are rejected {e before} any
    allocation, so a corrupt or malicious header cannot make the
    receiver reserve gigabytes. *)

val max_payload : int

(** A header announced a payload larger than {!max_payload}. *)
exception Too_large of int

(** The stream ended mid-header or mid-payload. *)
exception Truncated of { expected : int; got : int }

(** A non-blocking peer left [len - sent] bytes of a write undrained
    for {!send_deadline_s}. *)
exception Stalled of { sent : int; len : int }

(** [encode payload] is the wire form: header + payload.
    @raise Too_large *)
val encode : string -> string

(** {1 Sockets} *)

(** 5 s: the most one write waits on a non-blocking peer that does not
    drain.  The writer then drops that peer instead of freezing. *)
val send_deadline_s : float

(** [listen ~port] — a loopback listener ([port = 0]: ephemeral),
    [SO_REUSEADDR], close-on-exec, non-blocking; with its bound port. *)
val listen : port:int -> Unix.file_descr * int

(** [accept lfd] — one pending connection, close-on-exec,
    non-blocking (so replies to it are deadlined) and [TCP_NODELAY];
    [None] if none is pending or the accept failed. *)
val accept : Unix.file_descr -> Unix.file_descr option

(** [connect ~host ~port] — a blocking, close-on-exec, [TCP_NODELAY]
    socket to [host] (an address or a name to resolve).
    @raise Unix.Unix_error, [ENOENT] when the name does not resolve *)
val connect : host:string -> port:int -> Unix.file_descr

(** [write_all fd bytes] — the one write loop: every byte, restarting
    on [EINTR]; on [EAGAIN] it waits for writability, within
    {!send_deadline_s} overall.
    @raise Stalled when the deadline passes first
    @raise Unix.Unix_error on any other failure ([EPIPE], ...) *)
val write_all : Unix.file_descr -> string -> unit

(** [send fd payload] is [write_all fd (encode payload)].
    @raise Too_large
    @raise Stalled *)
val send : Unix.file_descr -> string -> unit

(** [recv fd] reads one whole frame from a blocking [fd].  [None] on
    clean end-of-stream (EOF at a frame boundary).
    @raise Truncated on EOF mid-frame
    @raise Too_large *)
val recv : Unix.file_descr -> string option

(** {1 Incremental decoding} *)

type decoder

val decoder : unit -> decoder

(** [fill d fd] — the one read step: one [read] of [fd] straight into
    [d]'s own buffer; the bytes read, [0] at end of stream.
    [Unix_error]s ([EAGAIN], [EINTR], ...) are left to the caller. *)
val fill : decoder -> Unix.file_descr -> int

(** [feed d bytes] appends raw stream bytes (any split is fine, down to
    one byte at a time). *)
val feed : decoder -> string -> unit

(** [next d] pops the next complete frame, or [None] if more bytes are
    needed.
    @raise Too_large as soon as a bad header is visible *)
val next : decoder -> string option

(** Bytes fed but not yet returned as frames. *)
val buffered : decoder -> int
