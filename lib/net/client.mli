(** Blocking TCP client for {!Server}.

    One outstanding request per client; the request id in the envelope
    is still checked against the response, so a desynchronized stream
    is detected rather than mis-attributed.

    The client remembers the version of its own last commit and sends
    it as the default [min_version] on reads and traversals — {e
    read-your-writes by default}.  Pass [~min_version:0] to accept any
    snapshot (the fastest option under load). *)

type t

(** A typed error response from the server. *)
exception Remote of { code : Proto.error_code; message : string }

(** The stream broke or a response did not match its request. *)
exception Transport of string

(** [connect ~port ()] dials loopback (or [host], an address or a name)
    through {!Frame.connect}. *)
val connect : ?host:string -> port:int -> unit -> t

val close : t -> unit

(** Raw request/response (tests and tools).  [span] propagates a trace
    span id to the server. *)
val request : ?span:int -> t -> Proto.req -> Proto.resp

val ping : t -> unit

type session_info = { version : int; readers : int; instances : int }

val open_session : t -> session_info

(** [read t ~instance ~attr] — the attribute value and the snapshot
    version that served it. *)
val read :
  ?span:int -> ?min_version:int -> t -> instance:int -> attr:string -> Cactis.Value.t * int

(** [traverse t ~root ~rel ~attr] — (visited count, aggregate value,
    serving version).  [depth] bounds the descent in hops (default
    unbounded). *)
val traverse :
  ?span:int ->
  ?min_version:int ->
  ?depth:int ->
  t ->
  root:int ->
  rel:string ->
  attr:string ->
  int * Cactis.Value.t * int

(** [commit t updates] — (committed version, created instance ids).
    Updates the client's read-your-writes watermark. *)
val commit : ?span:int -> t -> Proto.update list -> int * int list

(** Version of this client's last commit (0 before any). *)
val last_commit : t -> int

val stats : t -> (string * int) list * Proto.latency list

(** The server's OpenMetrics text exposition (same body the HTTP
    [GET /metrics] endpoint serves). *)
val metrics : t -> string
