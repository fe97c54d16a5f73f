(** Imperative binary-heap priority queue with float priorities and int
    payloads.

    Lower priority value = dequeued first.  Used by the chunk scheduler of
    the storage engine: runnable traversal processes are ordered by their
    expected disk I/O, and the process with the smallest expectation runs
    first (Section 2.3).  Its users (the scheduler, the clustering
    packer) queue entry and instance numbers, so payloads are ints.

    Layout: priorities live unboxed in a [float array] and payloads in a
    parallel [int array], so a push or pop allocates nothing once the
    arrays have grown to the queue's high-water mark (they grow by
    doubling and never shrink), and a swap never goes through the write
    barrier.  Ordering is a plain binary min-heap with strict [<]
    comparisons; among equal priorities the pop order is a deterministic
    function of the push/pop sequence (not FIFO).  The chunk scheduler's
    counters depend on that exact order, so the sift rules are part of
    the contract: sift-up swaps while strictly smaller than the parent,
    sift-down moves to the strictly smallest child, preferring the left
    one on ties. *)

type t

val create : unit -> t

val is_empty : t -> bool
val length : t -> int

(** [push t prio x] inserts [x] with priority [prio]. *)
val push : t -> float -> int -> unit

(** [pop t] removes and returns a minimum-priority element.
    @raise Not_found if empty. *)
val pop : t -> int

(** [pop_opt t] is [pop] returning an option. *)
val pop_opt : t -> int option

(** [peek_priority t] is the smallest priority currently queued. *)
val peek_priority : t -> float option

(** [clear t] empties the queue, keeping its arrays for reuse. *)
val clear : t -> unit
