(** Replica apply engine — pure state machine, no sockets.

    The one place an encoded delta is applied to a replica: it validates
    the cursor chain and replays records into a read-only replica
    database.  The WAL-shipping follower ({!Cactis_repl.Follower})
    drives it with decoded wire messages, every {!Cactis_net.Server}
    reader domain with its writer's in-process publish, and the property
    tests with captured histories — which is what makes "a follower
    replaying any prefix of the shipped log equals the writer at that
    version" checkable without a network.

    A replica's position is a {!cursor} [(generation, records)]: the
    state reached by loading checkpoint [generation] and applying
    [records] log records on top (a server's in-process chain stays in
    generation [0] and counts versions).  Cursors are totally ordered
    ({!cursor_compare}, lexicographic) because a checkpoint folds all
    prior records into the next generation's snapshot.  Apply rules, for
    an item tagged [prev -> after] against a replica at cursor [c]:
    - [after <= c]: skip (duplicate or pre-bootstrap record — the
      stream may legally repeat after a resume);
    - [prev = c]: apply, advance to [after];
    - anything else: typed {!Gap} — the stream was reordered or holed;
      never apply out of order.

    Schema deltas replay through the registered rule compiler — link
    the DDL front end and call
    [Cactis_ddl.Elaborate.install_rule_compiler ()] first, exactly as
    for {!Persist.recover}. *)

type cursor = { gen : int; records : int }

val cursor_zero : cursor
val cursor_compare : cursor -> cursor -> int
val cursor_to_string : cursor -> string

(** One record of the chain. *)
type entry = {
  e_seq : int;  (** absolute position in the stream *)
  e_prev : cursor;  (** state this record applies on top of *)
  e_cursor : cursor;  (** state after applying it *)
  e_record : string;  (** {!Codec.encode_delta} bytes *)
}

(** Bytes that do not decode (rebound by the wire codec). *)
exception Corrupt of { context : string; message : string }

(** [expected] is the replica's cursor, [got] the item's [prev], [seq]
    its stream position. *)
exception Gap of { expected : cursor; got : cursor; seq : int }

exception Diverged of { violations : string list }

type t

(** [create ?apply ~cursor db] — a replica positioned at [cursor].
    [apply] overrides how an encoded delta is applied (default
    {!default_apply}) — the read-only server mode routes it through the
    server's writer domain instead. *)
val create : ?apply:(string -> unit) -> cursor:cursor -> Db.t -> t

(** Decode the delta, {!Db.replay_delta} it into [db], propagate.
    @raise Corrupt if the record bytes do not decode. *)
val default_apply : Db.t -> string -> unit

val db : t -> Db.t
val cursor : t -> cursor

(** Highest stream sequence number applied or skipped ([-1] initially). *)
val seq : t -> int

val records_applied : t -> int

type outcome = Applied | Skipped

(** @raise Gap on a chain violation.
    @raise Corrupt if the record bytes do not decode. *)
val apply_entry : t -> entry -> outcome

(** Checkpoint mark: the replica's current state equals checkpoint
    [generation]; advance the cursor without touching data.
    @raise Gap when [prev] is not the replica's cursor. *)
val apply_mark : t -> seq:int -> prev:cursor -> generation:int -> outcome

(** Periodic drift detection: run {!Integrity.check} over the replica.
    @raise Diverged listing the violations, if any. *)
val drift_check : t -> unit
