(** Maps instance ids to blocks and mediates block access through the
    buffer pool.

    New instances are appended to the current tail block (or into a
    reclaimed slot, see {!forget}); {!apply_clustering} installs a fresh
    placement computed by {!Cluster}; {!relocate} moves one instance at
    a time for incremental re-clustering.

    The pager tracks each block's member list and installs a render
    callback in the buffer pool, so on a real device (created with
    [?disk_path]) dirty evictions and flushes write genuine block
    images; see DESIGN.md §9 for the on-disk format and the fsync
    discipline relative to the WAL. *)

type t

(** [create ?block_capacity ?buffer_capacity ?disk_path ?disk_block_bytes ()]
    builds a pager whose blocks hold at most [block_capacity] instances
    (default 8) over a buffer pool of [buffer_capacity] blocks (default
    64).  When [disk_path] is given the pager is backed by a real block
    file at that path (size [disk_block_bytes], default 4096); otherwise
    I/O is simulated counters only.
    @raise Invalid_argument if [block_capacity < 1] or the block image
    of a full block cannot fit in [disk_block_bytes]. *)
val create :
  ?block_capacity:int ->
  ?buffer_capacity:int ->
  ?disk_path:string ->
  ?disk_block_bytes:int ->
  unit ->
  t

(** [register t id] places a new instance: into a reclaimed free slot if
    one is available, else the tail block.  No-op if already placed. *)
val register : t -> int -> unit

(** [forget t id] removes the instance from its block.  If the block is
    resident in the buffer pool (or is the tail block), its freed slot
    is remembered and reused by the next {!register} — so create/delete
    churn does not grow the block count.  Cold blocks' slack is instead
    recovered at the next re-clustering. *)
val forget : t -> int -> unit

(** [block_of t id] is the current block of [id], if registered. *)
val block_of : t -> int -> int option

(** [block t id] is {!block_of} without the option: [-1] when [id] is
    not registered (the chunk scheduler asks on every non-resident
    chunk). *)
val block : t -> int -> int

(** [touch ?dirty t id] charges one buffered access to [id]'s block;
    returns whether the block was already resident.  [dirty] (default
    false) marks the access as a write.  Unknown instances are
    registered first (defensive, keeps the engine total). *)
val touch : ?dirty:bool -> t -> int -> [ `Hit | `Miss ]

(** [mark_dirty t id] marks the instance's block dirty if resident,
    without touching recency or statistics. *)
val mark_dirty : t -> int -> unit

(** [resident t id] is true iff [id]'s block is buffered; used by the
    chunk scheduler's high-priority promotion.  Does not affect LRU
    order or statistics. *)
val resident : t -> int -> bool

(** [relocate t id ~block] moves one placed instance to [block],
    charging a dirty buffered access to both the source and destination
    blocks (the I/O cost of the move).  Used by incremental
    re-clustering; no-op if [id] is unplaced or already in [block]. *)
val relocate : t -> int -> block:int -> unit

(** [advance_tail t block] makes future appends land at or beyond
    [block] (no-op if the tail is already there).  The store calls it
    when cutting a migration plan — reserving the whole target region so
    mid-migration appends cannot overfill a planned block — and again
    when the migration completes. *)
val advance_tail : t -> int -> unit

(** [apply_clustering t assignment] replaces the whole placement.
    Buffered frames are dropped without write-back (their images are
    stale by construction); on a real device every block image of the
    new placement is written and the file synced — the reorganized
    database starts cold. *)
val apply_clustering : t -> Cluster.assignment -> unit

val disk : t -> Disk.t
val pool : t -> Buffer_pool.t
val block_capacity : t -> int

(** Instances currently registered. *)
val instances : t -> int list

(** Number of blocks currently holding at least one instance. *)
val blocks_in_use : t -> int

(** [members_of t block] is the sorted member list of [block]. *)
val members_of : t -> int -> int list

(** [reset_io t] flushes dirty frames (write-backs count toward the
    epoch being closed) and then zeroes the disk and pool counters;
    placement is kept.  Used between experiment phases. *)
val reset_io : t -> unit

(** [sync t] writes back all dirty frames and fsyncs the block file
    (no-op on a simulated device). *)
val sync : t -> unit

(** [close t] closes the backing file, if any. *)
val close : t -> unit
