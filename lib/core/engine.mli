(** Incremental attribute evaluation (§2.2) over the chunk scheduler
    (§2.3).

    The engine implements the paper's two-phase algorithm:

    + {b mark out of date} — when an intrinsic attribute changes or a
      relationship is established/broken, the derived attributes that
      (transitively) depend on it are marked out of date.  The traversal
      cuts off at attributes already marked, which is what makes repeated
      changes O(1) and bounds the amortized overhead by the size of the
      reachable dependency subgraph;
    + {b demand-driven evaluation} — only {e important} attributes
      (constraint-carrying, or watched because the user queried them) are
      (re)evaluated, each at most once, pulling in exactly the out-of-date
      attributes they transitively need.

    Both traversals run as chunks on {!Sched}, so the traversal order —
    and hence the number of disk accesses — is chosen dynamically.

    Two baseline strategies are provided for the experiments:
    [Eager_triggers] recomputes dependents immediately and recursively on
    every change (the naive trigger mechanism the paper criticizes — with
    a fixed firing order it recomputes an exponential number of values on
    diamond-shaped graphs), and [Recompute_all] recomputes every derived
    attribute in the database on any change. *)

type strategy =
  | Cactis
  | Eager_triggers
  | Recompute_all

(** A recovery action: given the store and the violating instance,
    produce intrinsic assignments [(instance, attr, value)] that attempt
    to repair the constraint.  Assignments are applied through the
    logged/propagating primitive layer. *)
type recovery = Store.t -> int -> (int * string * Value.t) list

type t

val create : ?strategy:strategy -> ?sched:Sched.strategy -> Store.t -> t

val store : t -> Store.t
val strategy : t -> strategy
val set_strategy : t -> strategy -> unit
val sched_strategy : t -> Sched.strategy
val set_sched_strategy : t -> Sched.strategy -> unit

(** Wire the callback the engine uses to apply recovery assignments
    through the full primitive layer (set by {!Db} at construction). *)
val set_repair : t -> (int -> string -> Value.t -> unit) -> unit

val register_recovery : t -> string -> recovery -> unit

(** {1 Importance} *)

(** [watch t id attr] makes the attribute important: it will be
    re-evaluated during propagation instead of lazily. *)
val watch : t -> int -> string -> unit

val unwatch : t -> int -> string -> unit
val is_watched : t -> int -> string -> bool

(** {1 Change notification (called by {!Db} after raw mutations)} *)

val on_new_instance : t -> int -> unit
val on_delete_instance : t -> int -> unit
val after_intrinsic_set : t -> int -> string -> unit
val after_link_change : t -> from_id:int -> rel:string -> to_id:int -> unit

(** [after_attr_added t ~type_name ~attr] — a new attribute was added to
    the schema: existing instances of the type get an out-of-date slot
    for it (derived) or the default (intrinsic). *)
val after_attr_added : t -> type_name:string -> attr:string -> unit

(** [after_attr_retracted t ~type_name ~attr] — the attribute is being
    retracted (schema-delta undo): drops watch/pending bookkeeping keyed
    on it for every instance of the type, so propagation never chases a
    slot the layout no longer compiles. *)
val after_attr_retracted : t -> type_name:string -> attr:string -> unit

(** {1 Reading and propagation} *)

(** [read t ?watch id attr] returns the attribute's current value,
    evaluating it first if it is derived and out of date.  [watch]
    (default true, the paper's query semantics) promotes it to
    important.
    @raise Errors.Cycle on circular dependencies.
    @raise Errors.Constraint_violation if evaluation trips an
    unrecoverable constraint. *)
val read : t -> ?watch:bool -> int -> string -> Value.t

(** [read_ix t ~watch inst ix] is {!read} with the instance and its
    slot index already resolved. *)
val read_ix : t -> watch:bool -> Instance.t -> int -> Value.t

(** [peek t id attr] returns the stored value without evaluating
    (possibly stale); used by diagnostics and the undo machinery. *)
val peek : t -> int -> string -> Value.t

(** [is_out_of_date t id attr]. *)
val is_out_of_date : t -> int -> string -> bool

(** [propagate t] evaluates every pending important attribute (end of
    transaction). @raise Errors.Constraint_violation / Errors.Cycle. *)
val propagate : t -> unit

(** Number of important attributes currently awaiting evaluation. *)
val pending_important_count : t -> int

(** [invalidate_all t] marks every derived attribute of every instance
    out of date (bulk schema change, oracle resets). *)
val invalidate_all : t -> unit

(** {1 Fixed-point evaluation} *)

(** [set_fixed_point ?max_iters t true] arms bounded fixed-point
    evaluation of dependency cycles ([Far86]).  When armed, a stuck
    evaluation wave whose every on-cycle attribute carries a bounded
    {!Schema.rule_shape} is iterated Gauss-Seidel-style from its
    lattice bottoms instead of raising {!Errors.Cycle}; iteration stops
    at the first change-free sweep (a proven fixed point) and falls
    back to the cycle error after at most [max_iters] sweeps (default
    1000) or on any unbounded/undeclared on-cycle shape.  Sweep counts
    feed the [fixpoint_runs]/[fixpoint_sweeps] counters and the
    [fixpoint_iters] histogram. *)
val set_fixed_point : ?max_iters:int -> t -> bool -> unit

(** Currently configured sweep cap; [None] when the mode is off. *)
val fixed_point : t -> int option

(** {1 Observability}

    Mark waves, evaluation waves, propagation, recovery actions and
    fixed-point solves record {!Cactis_obs.Flight.Span} events. *)

(** [set_profile t (Some p)] arms per-commit propagation profiling: the
    mark and evaluation phases report nodes marked, edges walked,
    cutoffs and per-attribute evaluation counts into [p], which lets
    callers check the paper's evaluated-at-most-once invariant
    mechanically.  [None] (the default) disarms it. *)
val set_profile : t -> Cactis_obs.Profile.t option -> unit

val profile : t -> Cactis_obs.Profile.t option

(** {1 Testing support} *)

(** [oracle_value t id attr] computes the attribute's correct value from
    scratch, from intrinsic values and links only, without consulting or
    mutating any cached slot state and without touching the pager.  Used
    by property tests as the reference semantics. *)
val oracle_value : t -> int -> string -> Value.t
