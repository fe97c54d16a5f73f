(** Typed replication failures.

    Every way a replica can stop matching its writer has a name here,
    so a follower either converges or fails with one of these — never a
    silently divergent replica.  The split mirrors what the follower
    should do next:

    - {!Refused} — the writer rejected the session at handshake
      (follower ahead of a stale writer, unknown protocol...).  Fatal:
      reconnecting cannot help, a human has to decide which timeline
      wins.
    - {!Corrupt} — bytes on the wire failed a CRC or framing check.
      The connection is poisoned but the replica state is intact:
      drop the connection and resync from the last applied cursor.
    - {!Gap} — a record arrived whose predecessor cursor is not the
      replica's cursor (reordered, dropped or duplicated-beyond-skip
      stream).  Same recovery as [Corrupt]: reconnect and resync.
    - {!Diverged} — the periodic {!Cactis.Integrity} drift check found
      structural violations in the replica.  Fatal for this replica:
      re-bootstrap from a fresh snapshot.
    - {!Transport} — the socket died or timed out (heartbeat silence).
      Reconnect with backoff. *)

(** Stable refusal codes carried on the wire. *)
val code_follower_ahead : string

val code_generation_mismatch : string
val code_protocol : string

exception Refused of { code : string; message : string }

(** {!Corrupt}, {!Gap} and {!Diverged} are the {e same} exceptions as
    {!Repl_proto.Corrupt}, {!Cactis.Replica.Gap} and
    {!Cactis.Replica.Diverged} (rebound, not redeclared): raised by the
    codec and the apply engine, caught through this module like every
    other replication failure. *)
exception Corrupt of { context : string; message : string }

exception Gap of { expected : Repl_proto.cursor; got : Repl_proto.cursor; seq : int }
exception Diverged of { violations : string list }
exception Transport of string

(** One line, machine-grepped by tests and log scrapers. *)
val to_string : exn -> string

(** Is this error worth reconnecting after?  [Refused] and [Diverged]
    are not — retrying cannot change the verdict. *)
val recoverable : exn -> bool
