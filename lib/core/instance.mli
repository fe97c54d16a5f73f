(** In-memory representation of one object instance: attribute slots
    (value + up-to-date state) in a flat array addressed by the type's
    compiled slot indexes, and relationship links in compact int
    vectors addressed by link indexes (see {!Schema.layout}).

    This module is deliberately dumb storage — all invariants
    (propagation, logging, inverse-link maintenance, paging) are enforced
    by {!Store}, {!Engine} and {!Db}.

    The string-keyed accessors resolve names through the layout once at
    the boundary; engine hot paths use the [_ix] variants with
    precompiled indexes.  After a DDL extension the arrays are grown
    lazily on first indexed access; grown slots start out of date and
    [Null] (intrinsics are patched to their schema default on first
    evaluation touch). *)

type state =
  | Up_to_date
  | Out_of_date
  | In_progress  (** being evaluated; reading it again means a data cycle *)

type slot = {
  mutable value : Value.t;
  mutable state : state;
}

(** Insertion-ordered id vector for one relationship (oldest first);
    appends are amortized O(1).  [uses] holds the link's crossing counts
    (§2.3's usage statistics), parallel to [ids]: [uses.(j)] counts the
    crossings from this instance to [ids.(j)] along this relationship.
    It stays [[||]] until the first crossing and may be shorter than
    [n]; missing positions count 0. *)
type links = {
  mutable ids : int array;
  mutable n : int;
  mutable uses : int array;
}

type t = {
  id : int;
  type_name : string;
  layout : Schema.layout;
  mutable slots : slot array;  (** by slot index *)
  mutable links : links array;  (** by link index *)
  mutable alive : bool;
}

(** [create ~id ~layout] materializes every declared slot: intrinsics at
    their schema default (up to date), derived slots out of date. *)
val create : id:int -> layout:Schema.layout -> t

(** {1 Name-resolving accessors (API boundary)} *)

(** [slot t a] returns the slot for attribute [a].
    @raise Errors.Unknown if the type does not declare [a]. *)
val slot : t -> string -> slot

val slot_opt : t -> string -> slot option

(** Related ids across one relationship (empty when never linked or
    undeclared). *)
val linked : t -> string -> int list

(** [add_link t rel id] appends; [remove_link t rel id] removes the first
    occurrence and returns whether it was present. *)
val add_link : t -> string -> int -> unit

val remove_link : t -> string -> int -> bool

(** All (rel, ids) pairs with at least one link. *)
val all_links : t -> (string * int list) list

(** Every declared slot with its attribute name (diagnostics). *)
val iter_slots : t -> (string -> slot -> unit) -> unit

(** {1 Index resolution} *)

val find_slot : t -> string -> int option
val find_slot_sym : t -> int -> int option
val find_link : t -> string -> int option

(** {1 Indexed accessors (hot paths; indexes come from the layout)} *)

val slot_ix : t -> int -> slot
val linked_ix : t -> int -> int list

(** [links_ix t ix] — the link vector itself (engine hot paths walk
    [ids.(0 .. n-1)] without building a list or a closure). *)
val links_ix : t -> int -> links
val iter_linked : t -> int -> (int -> unit) -> unit
val link_count_ix : t -> int -> int
val add_link_ix : t -> int -> int -> unit

(** [remove_link_ix t ix id] removes the first occurrence of [id] and
    its crossing count: a link broken and made again counts from 0. *)
val remove_link_ix : t -> int -> int -> bool

(** {1 Crossing counts} *)

(** An empty link vector, never crossed: the [via] of a dependency
    that crosses no relationship. *)
val no_links : links

(** [cross l j] records one crossing of [l]'s link at position [j]
    ([j < l.n]); allocation-free once the link has been crossed. *)
val cross : links -> int -> unit

(** [uses_to l id] — crossings recorded on [l]'s links to [id] (summed
    over duplicate links). *)
val uses_to : links -> int -> int
