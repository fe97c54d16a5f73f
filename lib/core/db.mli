(** Public database facade.

    [Db] composes the raw object store, the incremental evaluation engine
    and the transaction log into the primitive interface the paper lists
    (§2.2): "operations for creating and deleting object type instances,
    establishing and breaking relationships between instances, defining
    predicates and subtypes, and primitives for retrieving and replacing
    attribute values … augmented by the meta-action {e Undo}."

    Every mutating primitive runs inside a transaction.  If no
    transaction is open, the primitive is wrapped in an automatic
    single-op transaction that commits (and hence propagates and checks
    constraints) immediately.  Committed transactions push their delta on
    a history chain supporting [undo_last] / [redo] and named version
    tags. *)

type t

(** [create ?block_capacity ?buffer_capacity ?disk_path ?disk_block_bytes
    ?strategy ?sched schema] — when [disk_path] is given, the pager is
    backed by a real block file (see {!Cactis_storage.Disk}); otherwise
    mass storage is simulated counters only. *)
val create :
  ?block_capacity:int ->
  ?buffer_capacity:int ->
  ?disk_path:string ->
  ?disk_block_bytes:int ->
  ?strategy:Engine.strategy ->
  ?sched:Sched.strategy ->
  Schema.t ->
  t

val schema : t -> Schema.t
val store : t -> Store.t
val engine : t -> Engine.t
val counters : t -> Cactis_util.Counters.t

(** {1 Observability}

    Latency histograms ([commit], [mark_wave], [eval_wave], [propagate],
    [wal_append], [wal_fsync], …) are always on — a handful of float
    operations per observation.  Timed sites also record
    {!Cactis_obs.Flight.Span} events into the always-on flight
    recorder (export with {!Cactis_obs.Flight.to_chrome_json}).  The
    per-commit propagation profile is off by default and costs one
    branch per observation site until enabled. *)

(** The observability context shared by the store, engine and (when
    attached) the persistence layer. *)
val obs : t -> Cactis_obs.Ctx.t

(** [set_fixed_point ?max_iters t true] arms the engine's bounded
    fixed-point evaluation of dependency cycles (see
    {!Engine.set_fixed_point}): reads that would raise
    {!Errors.Cycle} instead iterate on-cycle attributes that all carry
    bounded {!Schema.rule_shape}s to a proven fixed point, capped at
    [max_iters] sweeps (default 1000).  [false] disarms. *)
val set_fixed_point : ?max_iters:int -> t -> bool -> unit

(** Currently configured sweep cap; [None] when the mode is off. *)
val fixed_point : t -> int option

(** [set_profiling t true] arms a fresh propagation profile on every
    {!commit}; after the commit, {!last_profile} holds its snapshot:
    nodes marked, edges walked, cutoffs, evaluations, and the
    per-attribute evaluation high-water mark that checks the paper's
    evaluated-at-most-once claim. *)
val set_profiling : t -> bool -> unit

(** Snapshot of the most recent profiled commit (including one that
    rolled back), or [None] if profiling has never produced one. *)
val last_profile : t -> Cactis_obs.Profile.snapshot option

(** {1 Transactions} *)

(** @raise Errors.Type_error if a transaction is already open. *)
val begin_txn : t -> unit

val in_txn : t -> bool

(** Evaluates all pending important attributes (constraints and watched
    queries); on success appends the delta to the history.
    @raise Errors.Constraint_violation after rolling the transaction
    back, if a constraint fails and recovery does not repair it.
    @raise Errors.Cycle after rolling back, on circular dependencies. *)
val commit : t -> unit

(** Roll back the open transaction. *)
val abort : t -> unit

(** [with_txn t f] runs [f] in a transaction, committing on return and
    aborting if [f] (or the commit) raises. *)
val with_txn : t -> (unit -> 'a) -> 'a

(** {1 Primitives} *)

(** Returns the new instance's id. *)
val create_instance : t -> string -> int

(** Breaks all the instance's links (logged), then deletes it. *)
val delete_instance : t -> int -> unit

(** [set t id attr v] replaces an {e intrinsic} attribute value.  Setting
    an attribute to a value equal to its current one is a no-op.
    @raise Errors.Type_error when [attr] is derived. *)
val set : t -> int -> string -> Value.t -> unit

(** [get t id attr] retrieves the attribute value, evaluating it first if
    derived and out of date.  Querying makes the attribute important
    (paper semantics); pass [~watch:false] to read without promoting it.
    @raise Errors.Constraint_violation (after rolling back any open
    transaction) if evaluation trips an unrecoverable constraint. *)
val get : t -> ?watch:bool -> int -> string -> Value.t

(** [link t ~from_id ~rel ~to_id] / [unlink …] establish and break
    relationship instances (both directions maintained). *)
val link : t -> from_id:int -> rel:string -> to_id:int -> unit

val unlink : t -> from_id:int -> rel:string -> to_id:int -> unit

(** Ids related to [id] across [rel], in link order. *)
val related : t -> int -> string -> int list

val type_of : t -> int -> string
val instance_ids : t -> int list
val instances_of_type : t -> string -> int list

(** {1 Importance} *)

val watch : t -> int -> string -> unit
val unwatch : t -> int -> string -> unit

(** {1 Subtypes} *)

(** [in_subtype t id sub] — current membership (evaluated on demand). *)
val in_subtype : t -> int -> string -> bool

(** Members of a subtype among live instances of its parent type. *)
val subtype_members : t -> string -> int list

(** {1 Schema extension (dynamic, §3)}

    Schema changes are {e first-class transaction deltas}: each entry
    point applies the mutation and logs a {!Txn.Schema} op in the
    enclosing (or an automatic) transaction, so schema versions
    interleave with data versions in the history — undo retracts the
    declaration, redo/checkout re-applies it, and an attached WAL
    persists it.

    Derived rules are closures; to be serializable into the WAL they
    need their DDL expression source alongside ([~expr],
    [~predicate_expr], [~attr_exprs] — supplied automatically when
    declaring through [Cactis_ddl.Elaborate]).  When a durability hook
    is attached ({!set_commit_hook}), declaring a derived definition
    {e without} its source raises [Errors.Type_error] up front; purely
    in-memory databases accept opaque closures as before. *)

(** [add_type t name] declares a fresh object class. *)
val add_type : t -> string -> unit

(** [add_rel t ~type_name rel] declares one end of a relationship (see
    {!Schema.add_rel}). *)
val add_rel : t -> type_name:string -> Schema.rel_def -> unit

(** [add_export t ~type_name ~rel ~export ~attr] declares a transmission
    alias (see {!Schema.add_export}). *)
val add_export : t -> type_name:string -> rel:string -> export:string -> attr:string -> unit

(** [add_attr t ?expr ~type_name def] extends a type while instances
    exist: existing instances get the default (intrinsic) or an
    out-of-date slot (derived).  [expr] is the DDL source of a derived
    rule, required when a WAL is attached. *)
val add_attr : t -> ?expr:string -> type_name:string -> Schema.attr_def -> unit

(** [add_subtype t ?predicate_expr ?attr_exprs def] — dynamic subtype
    addition.  [attr_exprs] aligns positionally with
    [def.extra_attrs] (padded with [None] when shorter). *)
val add_subtype :
  t -> ?predicate_expr:string -> ?attr_exprs:string option list -> Schema.subtype_def -> unit

(** {1 Constraints} *)

(** [register_recovery t name action] installs a named recovery action
    referenced by constraint specs. *)
val register_recovery : t -> string -> Engine.recovery -> unit

(** {1 Undo, redo, versions (§2.2, §3)}

    Committed deltas form a {e version tree}: undoing back and committing
    again grows a sibling branch instead of discarding the old one, so
    every tagged state stays reachable forever — the paper's "retention,
    recall, and management of multiple related versions". *)

(** Depth of the current version node (number of deltas between the
    initial state and here). *)
val position : t -> int

(** Sizes (primitive-op counts) of the deltas on the path from the
    initial state to the current version, oldest first. *)
val delta_sizes : t -> int list

(** [undo_last t] reverses the most recent committed transaction on the
    current branch (the paper's {e Undo} meta-action).
    @raise Errors.Type_error if a transaction is open or the database is
    at its initial state. *)
val undo_last : t -> unit

(** [redo t] re-applies the most recently undone transaction.  The redo
    stack is cleared by a new commit (which starts a sibling branch) and
    by {!checkout}. *)
val redo : t -> unit

(** [tag t name] names the current version node. *)
val tag : t -> string -> unit

(** [checkout t name] moves the database to the named version by
    replaying deltas backwards to the lowest common ancestor and
    forwards along the target's branch.  Works across branches; tags
    never become unreachable.
    @raise Errors.Unknown for unknown tags.
    @raise Errors.Type_error if a transaction is open. *)
val checkout : t -> string -> unit

(** Tag names with the depth of the version they name. *)
val tags : t -> (string * int) list

(** The committed deltas on the path from the initial state to the
    current version, oldest first, with their version ids. *)
val history : t -> (int * Txn.delta) list

(** {1 Schema versions}

    The database's {e schema version} is the number of schema deltas
    folded into its current state: the baseline deltas loaded from a
    snapshot plus the {!Txn.Schema} ops on the root→head path.
    {!Persist} stamps this number into snapshot and WAL headers so
    recovery can refuse a snapshot/log pair whose schema states
    diverge. *)

(** [install_baseline_schema t ops] replays a snapshot's schema-delta
    section (oldest first — declarations and, for histories that
    linearized an undo, retractions) onto a freshly created database
    and records them as the baseline.
    @raise Errors.Type_error if the database already has history, an
    open transaction, or [ops] contains a non-schema op. *)
val install_baseline_schema : t -> Txn.op list -> unit

(** All schema ops in the current state, oldest first: the baseline,
    then those on the root→head path. *)
val schema_ops_on_path : t -> Txn.op list

(** [List.length (schema_ops_on_path t)] — the current schema version. *)
val schema_step_count : t -> int

(** {1 Durability (see {!Persist})} *)

(** [set_commit_hook t hook] installs (or clears, with [None]) the
    durability observer: it receives every delta the database state
    moves across — committed transactions, undos (as the inverse delta),
    redos and checkout steps — in application order, so appending each
    to a write-ahead log lets recovery replay to the same state. *)
val set_commit_hook : t -> (Txn.delta -> unit) option -> unit

(** The currently installed hook, if any.  A layer that needs to stack
    another observer on top (e.g. the server broadcasting deltas to
    reader replicas after {!Persist.attach} installed the WAL hook)
    reads the current hook and installs a wrapper that calls both. *)
val commit_hook : t -> (Txn.delta -> unit) option

(** [replay_delta t d] re-applies a logged delta during crash recovery:
    ops run unlogged (no hook — the log already holds this record) and
    the delta joins the version history so undo works across a restart.
    The caller propagates once after replaying the whole log tail.
    @raise Errors.Type_error if a transaction is open. *)
val replay_delta : t -> Txn.delta -> unit

(** {1 Storage management} *)

(** [recluster ?strategy t] re-clusters instances into blocks from usage
    statistics (§2.3) with the chosen strategy (default: the paper's
    greedy packer); returns the number of blocks.
    @raise Errors.Type_error inside a transaction. *)
val recluster : ?strategy:Cactis_storage.Cluster.strategy -> t -> int

(** [set_auto_recluster ?strategy ?drift_threshold ?max_moves t on]
    arms (or, with [on = false], disarms) incremental re-clustering
    maintenance: when instance touches since the last plan exceed
    [drift_threshold] (default 1024), a migration plan is cut from the
    current usage statistics, and each commit applies at most
    [max_moves] (default 16) moves until the plan drains — so
    reorganization cost is amortized across commits instead of one
    stop-the-world pass.  Each slice's latency lands in the
    [recluster_step] histogram and inside the commit's own [commit]
    histogram window; progress shows in the [recluster_steps] /
    [recluster_moves] counters. *)
val set_auto_recluster :
  ?strategy:Cactis_storage.Cluster.strategy ->
  ?drift_threshold:int ->
  ?max_moves:int ->
  t ->
  bool ->
  unit
