(** Imperative binary-heap priority queue with float priorities.

    Lower priority value = dequeued first.  Used by the chunk scheduler of
    the storage engine: runnable traversal processes are ordered by their
    expected disk I/O, and the process with the smallest expectation runs
    first (Section 2.3).

    Layout: priorities live unboxed in a [float array] and payloads in a
    parallel array, so a push or pop allocates nothing once the arrays
    have grown to the queue's high-water mark (they grow by doubling and
    never shrink).  Ordering is a plain binary min-heap with strict [<]
    comparisons; among equal priorities the pop order is a deterministic
    function of the push/pop sequence (not FIFO).  The chunk scheduler's
    counters depend on that exact order, so the sift rules are part of
    the contract: sift-up swaps while strictly smaller than the parent,
    sift-down moves to the strictly smallest child, preferring the left
    one on ties. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool
val length : 'a t -> int

(** [push t prio x] inserts [x] with priority [prio]. *)
val push : 'a t -> float -> 'a -> unit

(** [pop t] removes and returns a minimum-priority element.
    @raise Not_found if empty. *)
val pop : 'a t -> 'a

(** [pop_opt t] is [pop] returning an option. *)
val pop_opt : 'a t -> 'a option

(** [peek_priority t] is the smallest priority currently queued. *)
val peek_priority : 'a t -> float option

(** [drain t f] pops every element in priority order, applying [f]. *)
val drain : 'a t -> ('a -> unit) -> unit

(** [clear t] empties the queue, keeping its arrays for reuse. *)
val clear : 'a t -> unit
