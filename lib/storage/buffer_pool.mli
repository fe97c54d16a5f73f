(** LRU buffer pool over blocks.

    Touching a resident block is a hit; touching a non-resident block
    costs one disk read and may evict the least-recently-used block.
    The chunk scheduler also consults {!resident} to decide which pending
    traversal processes can run without disk access (the paper's
    "very high priority queue" of in-memory work).

    Frames carry a dirty bit.  Evicting or flushing a dirty frame writes
    the block's current image back to the device — rendered by the
    callback installed with {!set_render} (the pager supplies it), a
    bare counter bump otherwise.

    A pool created with [capacity = max_int] is resident: it can never
    evict, so it keeps no recency order and a hit only bumps the hit
    counter (no LRU relink, no allocation).  Hit, miss and block counts
    are the same as an LRU pool's would be. *)

type t

(** [create ~capacity disk] builds a pool holding at most [capacity]
    blocks. [capacity] must be at least 1. *)
val create : capacity:int -> Disk.t -> t

(** [set_render t f] installs the block-image renderer used for dirty
    write-back ([f block] must return at most one block's bytes). *)
val set_render : t -> (int -> bytes) -> unit

(** [touch ?dirty t block] brings [block] into the pool, counting a disk
    read on a miss, and returns whether it was a hit.  Eviction is LRU,
    writing back the victim's image first when it is dirty.  [dirty]
    (default false) marks the touched frame dirty (a write access). *)
val touch : ?dirty:bool -> t -> int -> [ `Hit | `Miss ]

(** [mark_dirty t block] sets the dirty bit of a resident block without
    affecting recency or statistics; no-op when not resident. *)
val mark_dirty : t -> int -> unit

(** [resident t block] is true iff [block] is currently buffered
    (does not affect recency). *)
val resident : t -> int -> bool

(** Blocks currently buffered, most recent first; unordered for a
    resident ([max_int]) pool. *)
val contents : t -> int list

val capacity : t -> int
val hits : t -> int
val misses : t -> int

(** Dirty frames written back so far (evictions + flushes). *)
val writebacks : t -> int

(** [flush t] writes back every dirty frame and empties the pool (e.g.
    between experiment runs) without resetting hit/miss statistics. *)
val flush : t -> unit

(** [drop_all t] empties the pool {e without} write-back — for when the
    placement underlying the render callback is about to be replaced and
    the buffered images are stale by construction. *)
val drop_all : t -> unit

(** [reset_stats t] zeroes the hit/miss/write-back counters. *)
val reset_stats : t -> unit
