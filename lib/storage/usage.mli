(** Self-adaptive usage statistics.

    Section 2.3: "we keep a count of the total number of times each
    instance in the database is accessed, as well as the number of times
    we cross a relationship between instances in the process of attribute
    evaluation or marking out of date", and these counts drive the
    periodic re-clustering.  Instances are identified by integers and
    relationship crossings by the unordered pair of instance ids plus the
    relationship name.

    Representation: instance ids are small dense ints, so counts live in
    flat arrays indexed by id.  A crossing is stored with its lower
    instance id, as an (interned relationship, higher id, count) triple
    in that id's growable int array.  {!touch_instance} is one array
    bump; {!cross_sym} is one index plus a scan of the lower id's
    crossings, and allocates nothing once the link has been crossed
    before.  {!forget_instance} scans the crossings of every smaller id;
    the whole-table exports ({!crossings}, {!rel_totals}) walk every
    triple. *)

type t

type crossing = {
  from_instance : int;
  rel : string;
  to_instance : int;
}

val create : unit -> t

(** Record one access to an instance. *)
val touch_instance : t -> int -> unit

(** Record one traversal across a relationship link. Crossings are
    accumulated on the unordered pair, matching the paper's "total usage
    count for the relationship". *)
val cross : t -> from_instance:int -> rel:string -> to_instance:int -> unit

(** [cross_sym] is {!cross} with the relationship already interned
    (see {!Cactis_util.Symbol}); the engine's hot paths use it to avoid
    re-hashing relationship names on every traversal. *)
val cross_sym : t -> from_instance:int -> rel_sym:int -> to_instance:int -> unit

val instance_count : t -> int -> int
val crossing_count : t -> from_instance:int -> rel:string -> to_instance:int -> int

(** All instances ever touched, with counts. *)
val instances : t -> (int * int) list

(** All crossings ever recorded, with counts. *)
val crossings : t -> (crossing * int) list

(** Crossing counts rolled up per relationship name — the export the
    cost analyzer and [cactis analyze --db] consume to rank hot
    relationships.  Sorted by descending count, then name. *)
val rel_totals : t -> (string * int) list

(** [forget_instance t id] drops statistics mentioning [id]
    (instance deleted). *)
val forget_instance : t -> int -> unit

val reset : t -> unit
