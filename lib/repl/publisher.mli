(** Writer-side log shipping: stream the WAL to follower replicas.

    One domain owns a TCP listener plus every follower connection.  A
    commit hook (chained after the {!Cactis.Persist} WAL hook, so a
    record is shipped only once it is durable) captures each encoded
    delta together with its post-append cursor and queues it; the
    publisher domain drains the queue — {e group commit on the wire}:
    everything drained in one wake leaves as one [Batch] frame — into
    an in-memory backlog it serves resumes from, and pushes new items
    to every live follower.

    Bootstrap is snapshot + log catch-up: a follower whose cursor the
    backlog no longer covers is sent the on-disk checkpoint file
    (atomic-replaced by {!Cactis.Persist.checkpoint}, so reading it
    races nothing) in chunks, then streamed the records past it.  A
    follower {e ahead} of the writer — a stale writer restarted from
    an old checkpoint — is refused with a typed
    [follower-ahead] error rather than replayed backwards.

    The backlog retains the current and previous checkpoint
    generations (a reconnecting follower can resume across one
    checkpoint); older items are pruned once every connected follower
    has passed them.  A follower further behind than 262 144 items is
    evicted and re-bootstraps on reconnect, and one whose socket stays
    unwritable for 5 s is dropped; either reconnects and resyncs.

    Counters ([repl.ship_*], [repl.snapshots_served], [repl.refusals],
    ...) and the follower-lag histogram land in the database's own
    observability context, so they flow through the existing
    Stats/OpenMetrics path unchanged. *)

type config

(** [config ()] — ephemeral loopback port, 1 s heartbeats. *)
val config : ?port:int -> ?heartbeat_s:float -> unit -> config

type t

(** [start ?config persist] — install the shipping hook (chained after
    the WAL hook already installed by [persist]) and begin accepting
    followers.  Call before {!Cactis_net.Server.start} if the same
    database also serves clients, so the server's broadcast chains
    after the shipping hook. *)
val start : ?config:config -> Cactis.Persist.t -> t

(** The bound TCP port (useful with [port = 0]). *)
val port : t -> int

(** Currently connected followers. *)
val followers : t -> int

(** Sequence number of the last streamed item ([-1] before any). *)
val head_seq : t -> int

(** Stop accepting, drop every follower, join the domain.  The
    shipping hook stays chained but becomes a no-op.  Idempotent. *)
val stop : t -> unit
