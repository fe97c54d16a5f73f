(** Self-adaptive usage statistics: instance access counts.

    Section 2.3: "we keep a count of the total number of times each
    instance in the database is accessed, as well as the number of times
    we cross a relationship between instances in the process of attribute
    evaluation or marking out of date", and these counts drive the
    periodic re-clustering.  This module keeps the first kind, in a flat
    array indexed by instance id: {!touch_instance} is one array bump.
    Relationship crossings are counted on the link they cross, beside
    its id vector ([Cactis.Instance.links]), and read back through
    [Cactis.Store.crossing_count]. *)

type t

val create : unit -> t

(** Record one access to an instance. *)
val touch_instance : t -> int -> unit

val instance_count : t -> int -> int

(** All instances ever touched, with counts. *)
val instances : t -> (int * int) list

(** [forget_instance t id] drops [id]'s count (instance deleted). *)
val forget_instance : t -> int -> unit

val reset : t -> unit
