(** Raw object store: instances over the simulated mass storage.

    The store performs {e mechanical} state changes only — no dependency
    propagation, no transaction logging, no constraint checking.  Those
    belong to {!Engine}, {!Txn} and {!Db}.  Every instance access is
    routed through the pager so that experiments observe the disk-access
    counts the paper reasons about, and through the usage statistics that
    drive re-clustering. *)

type t

(** [create ?block_capacity ?buffer_capacity ?disk_path ?disk_block_bytes
    schema] — when [disk_path] is given, the pager is backed by a real
    block file at that path (see {!Cactis_storage.Disk}); otherwise mass
    storage is simulated counters only. *)
val create :
  ?block_capacity:int ->
  ?buffer_capacity:int ->
  ?disk_path:string ->
  ?disk_block_bytes:int ->
  Schema.t ->
  t

val schema : t -> Schema.t
val pager : t -> Cactis_storage.Pager.t
val usage : t -> Cactis_storage.Usage.t
val counters : t -> Cactis_util.Counters.t

(** Observability context shared by every layer attached to this store:
    the always-on latency histogram registry. *)
val obs : t -> Cactis_obs.Ctx.t

(** Per-link decaying-average disk-cost tags (§2.3), keyed by
    (instance id, relationship).  Fresh tags start at the worst-case
    estimate of 1 block. *)
val link_tag : t -> int -> string -> Cactis_util.Decaying_avg.t

(** [link_tag_sym t id rel_sym] — {!link_tag} with the relationship
    already interned (engine hot path). *)
val link_tag_sym : t -> int -> int -> Cactis_util.Decaying_avg.t

(** {1 Instances} *)

(** [create_instance t type_name] allocates a fresh instance: intrinsic
    slots are initialized to their schema defaults (up to date), derived
    slots start out of date.
    @raise Errors.Unknown if the type is not declared. *)
val create_instance : t -> string -> Instance.t

(** [recreate_instance t ~id type_name] re-materializes a deleted
    instance under its original id (undo of a delete). *)
val recreate_instance : t -> id:int -> string -> Instance.t

(** The id the next {!create_instance} will allocate.  Ids are never
    reused, so histories holding undone creates leave holes; snapshots
    record this counter so a restored database keeps allocating above
    them. *)
val next_id : t -> int

(** [reserve_ids t n] raises the allocation counter to at least [n]
    (snapshot restore). *)
val reserve_ids : t -> int -> unit

(** @raise Errors.Unknown for dead or absent ids. *)
val get : t -> int -> Instance.t

val get_opt : t -> int -> Instance.t option
val mem : t -> int -> bool

(** [delete_instance t id] removes the instance.  All its links must have
    been broken first (checked). *)
val delete_instance : t -> int -> unit

(** Live instance ids, ascending. *)
val instance_ids : t -> int list

val instance_count : t -> int

(** Live instances of one type, ascending id. *)
val instances_of_type : t -> string -> int list

(** {1 Paged access} *)

(** [touch t id] charges one buffered access to the instance's block and
    bumps its usage count. *)
val touch : t -> int -> unit

(** [resident t id] — is the instance's block buffered? (free) *)
val resident : t -> int -> bool

(** {1 Links (both directions maintained)} *)

(** [link t ~from_id ~rel ~to_id] establishes a relationship instance.
    @raise Errors.Unknown on unknown rel/instances,
    @raise Errors.Type_error on target type mismatch,
    @raise Errors.Cardinality if a [One] end is already occupied. *)
val link : t -> from_id:int -> rel:string -> to_id:int -> unit

(** [unlink t ~from_id ~rel ~to_id] breaks it; returns whether the link
    existed. *)
val unlink : t -> from_id:int -> rel:string -> to_id:int -> bool

(** Related ids of [id] across [rel] (pager-charged); records one
    crossing on each link listed. *)
val linked : t -> int -> string -> int list

(** {1 Crossing counts (§2.3)}

    Each link end counts its own crossings ({!Instance.links}); these
    read them back.  The paper keeps one usage count per relationship
    link whatever the traversal direction, so the count of the link
    [a -rel-> b] is the sum of its two ends: crossings from [a] along
    [rel] and from [b] along [rel]'s inverse.  A link broken and made
    again counts from 0. *)

type crossing = {
  from_instance : int;
  rel : string;
  to_instance : int;
}

val crossing_count : t -> from_instance:int -> rel:string -> to_instance:int -> int

(** Every crossed link with its count, named from its lower id's side
    (a self-loop by the smaller of its two names), in no particular
    order. *)
val crossings : t -> (crossing * int) list

(** Crossing counts rolled up per relationship name, as traversed
    (each end under its own name) — the export the
    cost analyzer and [cactis analyze --db] consume to rank hot
    relationships.  Sorted by descending count, then name. *)
val rel_totals : t -> (string * int) list

(** The clustering input: every live instance with its access count,
    and every structural link (once, from its lower id) with its
    {!crossing_count}. *)
val usage_snapshot :
  t -> (int * int) list * Cactis_storage.Cluster.link list

(** {1 Slots (pager-charged)} *)

val read_slot : t -> int -> string -> Instance.slot

(** [write_value t id attr v] stores [v] and marks the slot up to date. *)
val write_value : t -> int -> string -> Value.t -> unit

(** [load_value_ix t inst ix v] — bulk-load write with a pre-resolved
    slot index and no pager/usage charge (binary snapshot loader). *)
val load_value_ix : t -> Instance.t -> int -> Value.t -> unit

(** [load_link_ix t a ix b] — bulk-load link with the slot pre-resolved
    against [a]'s layout and [b]'s type already checked against the
    declared target; keeps the cardinality invariants but skips the
    pager/usage charge of {!link}.
    @raise Errors.Cardinality on an occupied [One] side. *)
val load_link_ix : t -> Instance.t -> int -> Instance.t -> unit

(** {1 Observers}

    Lightweight notification hooks used by secondary structures (attribute
    indexes, statistics).  Callbacks must not mutate the database. *)

(** [subscribe_write t f] — [f id attr value] after every slot write
    (intrinsic sets, derived evaluations, undo replay). *)
val subscribe_write : t -> (int -> string -> Value.t -> unit) -> unit

(** [subscribe_create t f] — [f id] after an instance (re)appears. *)
val subscribe_create : t -> (int -> unit) -> unit

(** [subscribe_delete t f] — [f id] before an instance disappears. *)
val subscribe_delete : t -> (int -> unit) -> unit

(** [subscribe_mark t f] — [f id attr] when a derived slot is marked out
    of date (called by the engine's mark phase). *)
val subscribe_mark : t -> (int -> string -> unit) -> unit

(** [notify_mark t id attr] — invoked by the engine. *)
val notify_mark : t -> int -> string -> unit

(** [notify_write t id attr v] — invoked by the engine after writing a
    derived slot directly (bypassing {!write_value}). *)
val notify_write : t -> int -> string -> Value.t -> unit

(** {1 Re-clustering (§2.3)} *)

(** [recluster ?strategy t] packs instances into blocks with the chosen
    clustering strategy (default: the paper's greedy usage-count
    algorithm), installs the layout, cancels any in-flight incremental
    plan, and re-seeds the per-link cost tags.  Returns the number of
    blocks. *)
val recluster : ?strategy:Cactis_storage.Cluster.strategy -> t -> int

(** {2 Incremental re-clustering}

    [begin_recluster] computes the target placement from the current
    usage statistics but applies nothing; [recluster_step] then migrates
    a bounded number of instances at a time, so maintenance cost is
    amortized across quiet moments instead of one stop-the-world
    reorganization.  Target blocks live in a fresh region past the
    current maximum block (copying style), and the region is reserved
    up front so instances created mid-migration append beyond it: a
    half-migrated placement never overfills a block, and a crash
    mid-migration loses nothing —
    placement is rebuilt from snapshot + WAL replay at recovery.  When
    the last move lands, the link cost tags are reseeded exactly as
    after a full {!recluster}. *)

(** [begin_recluster ?strategy t] computes a migration plan and returns
    the number of pending moves.  Replaces any previous plan. *)
val begin_recluster : ?strategy:Cactis_storage.Cluster.strategy -> t -> int

(** [recluster_step t ~max_moves] applies up to [max_moves] moves of the
    pending plan and returns how many were applied (0 when no plan is in
    flight).  Bumps the [recluster_steps]/[recluster_moves] counters.
    @raise Invalid_argument if [max_moves < 1]. *)
val recluster_step : t -> max_moves:int -> int

(** Moves remaining in the in-flight plan (0 when idle). *)
val pending_moves : t -> int
