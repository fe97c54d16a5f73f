(** Clustering strategies: the paper's greedy usage-based packer plus
    competitors from the Darmont & Gruenwald comparison study of OODB
    clustering techniques, behind one interface.

    The paper (Section 2.3) packs the database into blocks as follows:

    {v
    Repeat
      Choose the most referenced instance in the database that has not
      yet been assigned a block
      Place this instance in a new block
      Repeat
        Choose the relationship belonging to some instance assigned to
        the block such that
          (1) the relationship is connected to an unassigned instance
              outside the block, and
          (2) the total usage count for the relationship is the highest
        Assign the instance attached to this relationship to the block
      Until the block is full
    Until all instances are assigned blocks
    v}

    Ties are broken by smaller instance id so every strategy is
    deterministic. *)

type link = {
  a : int;
  b : int;
  rel : string;
  count : int;  (** total usage count for this relationship link *)
}

type assignment = {
  block_of : (int, int) Hashtbl.t;  (** instance id -> block id *)
  block_count : int;
}

(** The competing placement policies (see DESIGN.md §9):
    - [Sequential] — creation (id) order; the unclustered baseline.
    - [Greedy] — the paper's algorithm: hottest instance seeds a block,
      hottest frontier link fills it.
    - [Dstc] — DSTC-style dynamic statistics clustering: hottest links
      agglomerated into block-capped units, units laid out first-fit by
      descending heat.
    - [Bfs_affinity] — static placement-tree order: breadth-first over
      the structural graph, neighbours grouped by relationship name. *)
type strategy =
  | Sequential
  | Greedy
  | Dstc
  | Bfs_affinity

val all_strategies : strategy list
val strategy_name : strategy -> string
val strategy_of_string : string -> strategy option

(** [pack_with strategy ~block_capacity ~instances ~links] dispatches to
    the strategy's packer.  Every strategy assigns each instance of
    [instances] (given with its access count) to exactly one block of at
    most [block_capacity] instances.
    @raise Invalid_argument if [block_capacity < 1]. *)
val pack_with :
  strategy ->
  block_capacity:int ->
  instances:(int * int) list ->
  links:link list ->
  assignment

(** [pack ~block_capacity ~instances ~links] is the paper's greedy
    algorithm ([Greedy]).  [links] should include every structural
    relationship link, with its accumulated crossing count (0 for links
    never traversed) — an instance connected only by cold links is still
    pulled into its neighbour's block before a fresh block is opened for
    it, exactly as in the paper's inner loop.  Heap-based: packing is
    O((V + E) log E), tractable at 100k+ instances.  The instance ids
    must be distinct; links to ids not in [instances] are ignored.

    @raise Invalid_argument if [block_capacity < 1]. *)
val pack : block_capacity:int -> instances:(int * int) list -> links:link list -> assignment

(** [sequential ~block_capacity ~instances] is the non-clustered baseline:
    instances packed into blocks in id (creation) order.  This is the
    layout the database has before any re-clustering. *)
val sequential : block_capacity:int -> instances:int list -> assignment
