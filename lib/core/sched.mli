(** Chunk scheduler for graph traversals (§2.3).

    The paper breaks the mark-out-of-date and evaluation traversals into
    {e chunks} scheduled as simulated concurrent processes, and chooses
    the next chunk to run so as to minimize disk access:

    - every pending process is associated with one instance;
    - processes whose instance's block is resident go on a very
      high-priority queue and always run first;
    - whenever a block is read into memory, all pending processes
      associated with instances on that block are promoted to the
      high-priority queue;
    - otherwise the runnable process with the lowest {e expected} disk
      I/O runs first (decaying-average relationship tags; worst-case
      statistics for marking).

    [Fifo] is the naive fixed-order baseline the experiments compare
    against. *)

type strategy =
  | Fifo
  | Cost_only
      (** ablation: order by expected cost but without the resident-first
          queue or block promotion *)
  | Greedy

(** A scheduler holds the pending chunks of one traversal wave.  Chunks
    are identified by {e entry numbers} 0, 1, 2, ... in schedule order;
    the caller keeps each chunk's payload in its own arrays indexed by
    entry number.  Entries, queues and per-block lists are
    struct-of-arrays kept across waves: {!reset} empties them, and a
    wave allocates nothing once the arrays have grown to its size. *)
type t

(** [create strategy store] builds an empty scheduler consulting [store]
    for residency and block placement. *)
val create : strategy -> Store.t -> t

val strategy : t -> strategy

(** [reset t] drops every pending chunk and restarts entry numbering at
    0, keeping the arrays for the next wave. *)
val reset : t -> unit

(** [schedule t ~instance ~cost] enqueues a chunk associated with
    [instance] and returns its entry number; [cost] is its expected
    disk I/O if the instance is not resident (ignored under [Fifo]). *)
val schedule : t -> instance:int -> cost:float -> int

(** [next t] pops the entry number of the chunk to run, or [-1] when
    drained.  Under [Greedy], popping a chunk for a non-resident
    instance promotes the other pending chunks that live on the same
    block (they will be free once the caller touches the instance and
    loads the block), newest first. *)
val next : t -> int

(** Chunks scheduled since the last {!reset} (the wave's size). *)
val scheduled : t -> int

val pending : t -> int
val is_empty : t -> bool
