(** Int-to-int hash table for hot paths.

    Keys are non-negative ints (instance ids, block numbers,
    {!Symbol.pack}ed [(id, symbol)] pairs); values are ints.  Unlike the
    polymorphic [Hashtbl], a lookup hashes with one multiply and
    compares with [=] on ints, and nothing is allocated except when the
    table doubles: no bucket cells, no [Some] on lookup.

    Iteration order is unspecified; callers that need an order sort. *)

type t

(** [create n] — an empty table sized for about [n] keys. *)
val create : int -> t

val length : t -> int
val mem : t -> int -> bool

(** [find t k ~default] is [k]'s value, or [default] when absent. *)
val find : t -> int -> default:int -> int

(** [replace t k v] binds [k] to [v].
    @raise Invalid_argument if [k < 0]. *)
val replace : t -> int -> int -> unit

val remove : t -> int -> unit

(** [clear t] removes every binding, keeping the capacity (so a reused
    table stays bounded by its largest population). *)
val clear : t -> unit

(** [iter f t] / [fold f t acc] visit every binding; [f] must not
    modify [t]. *)
val iter : (int -> int -> unit) -> t -> unit

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
