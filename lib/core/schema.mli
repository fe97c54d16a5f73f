(** Database schema: object classes, attributes, relationships, attribute
    evaluation rules, constraints and predicate-defined subtypes (§2.1).

    The schema is {e extensible at run time} — new types, attributes and
    subtypes may be added while the database is live, which the paper
    treats as essential for software environments (adding new tools
    without disturbing existing ones, §3).

    A derived attribute's rule declares its {e sources}: the attributes
    of the same instance ([Self]) and the attributes whose values are
    transmitted across named relationships ([Rel]) that the rule reads.
    Declared sources give the engine the dependency edges of the
    attributed graph; the compute function then receives exactly those
    values through an {!env}. *)

type source =
  | Self of string  (** an attribute of this instance *)
  | Rel of string * string
      (** [Rel (r, a)]: attribute [a] transmitted across relationship [r]
          from every instance currently related through [r] *)

(** Evaluation environment handed to a rule's compute function. *)
type env = {
  self_value : string -> Value.t;  (** value of one of the declared [Self] sources *)
  related_values : string -> string -> Value.t list;
      (** [related_values r a]: one value per instance related via [r],
          in link order; the declared source must be [Rel (r, a)] *)
}

type rule = {
  sources : source list;
  compute : env -> Value.t;
}

(** Monotone-lattice shape of a derived rule — the input of the [Far86]
    convergence test.  A dependency cycle whose every rule is monotone
    over a bounded lattice converges under fixed-point iteration; the
    analyzer classifies each potential cycle with these shapes and the
    engine's opt-in fixed-point mode ({!Db.set_fixed_point}) trusts
    only cycles whose every member carries a bounded shape.  Compute
    functions are opaque closures, so shapes arrive separately: inferred
    syntactically from DDL expressions, or promised explicitly via
    {!declare_rule_shape}.  An undeclared shape means "assume
    divergent". *)
type rule_shape =
  | Shape_min  (** monotone decreasing toward the least contribution *)
  | Shape_max  (** monotone increasing toward the greatest contribution *)
  | Shape_bool  (** and/or/all/any closure over the two-point lattice *)
  | Shape_count  (** structure-only: fixed while links are fixed *)
  | Shape_lattice of { height : int; bottom : Value.t }
      (** monotone over a declared lattice of this height (e.g. subset
          lattices: height = universe size), iterated up from [bottom]
          (the value fixed-point mode seeds the slot with) *)
  | Shape_unbounded  (** e.g. sums: each iteration can keep growing *)

(** ["min"], ["lattice(12)"], ... — stable slugs for diagnostics and
    JSON. *)
val shape_name : rule_shape -> string

(** Every shape but [Shape_unbounded]. *)
val shape_bounded : rule_shape -> bool

type attr_kind =
  | Intrinsic of Value.t  (** payload = default value for new instances *)
  | Derived of rule

(** Constraint attached to a (boolean, derived) attribute: when the
    attribute evaluates to [false] the transaction fails, unless the
    named recovery action (registered on the database) repairs it. *)
type constraint_spec = {
  message : string;
  recovery : string option;  (** name of a registered recovery action *)
}

type attr_def = {
  attr_name : string;
  kind : attr_kind;
  constraint_ : constraint_spec option;
}

type cardinality = One | Multi

(** Plug/Socket is the paper's wiring vocabulary (Figure 1 declares
    [milestone_dep Multi Socket] / [Multi Plug]); it documents which side
    transmits values outward but both sides are navigable. *)
type polarity = Plug | Socket

type rel_def = {
  rel_name : string;
  target : string;  (** target type name *)
  inverse : string;  (** relationship on [target] pointing back *)
  card : cardinality;
  polarity : polarity;
}

(** Subtype defined by a predicate over the parent type's attributes
    (§2.1: "A Car Buff might be defined as the predicate which calculates
    all Persons who own more than three cars").  Membership is maintained
    incrementally as a hidden derived attribute; [extra_attrs] become
    available on members. *)
type subtype_def = {
  sub_name : string;
  parent : string;
  predicate : rule;  (** must compute a [Bool] *)
  extra_attrs : attr_def list;
}

type type_def

type t

(** {1 Compiled layouts}

    Every type compiles to a {!layout}: a dense assignment of attribute
    names to {e slot indexes} and relationship names to {e link indexes},
    plus dependency tables with every name resolved to indexes and
    interned symbols (see {!Cactis_util.Symbol}).  Instances store their
    slots in flat arrays addressed by these indexes, and the engine's
    mark/evaluate traversals run entirely on ints.

    Indexes are {e stable}: declaration orders grow at the head and
    shrink only by retracting the newest declaration (see
    {!retract_attr} and friends — the shape undo needs), so a DDL
    change never renumbers surviving slots — instances extend their
    arrays lazily and keep their layout pointer forever.  The layout
    record for a type is allocated once; its contents are recompiled in
    place when the schema version moves (checked by {!refresh_layout},
    a single int comparison when nothing changed).

    Layout contents are read-only outside this module. *)

type layout = {
  lay_schema : t;
  lay_type : string;
  mutable lay_slots : slot_info array;  (** indexed by slot index *)
  mutable lay_links : link_info array;  (** indexed by link index *)
  lay_slot_ix : (string, int) Hashtbl.t;
  lay_slot_ix_sym : (int, int) Hashtbl.t;  (** symbol -> slot index *)
  lay_link_ix : (string, int) Hashtbl.t;
}

and slot_info = {
  si_name : string;
  si_sym : int;  (** interned [si_name] *)
  si_def : attr_def;
  si_derived : bool;
  si_rule : compiled_rule option;  (** [Some] iff derived *)
  si_constrained : bool;
  si_self_deps : int array;
      (** slot indexes (same type) of attributes whose rules read this one *)
  si_cross_deps : cross_dep array;
      (** dependents across each relationship, in (rel, target-attr)
          declaration order *)
}

and cross_dep = {
  xd_link : int;  (** link index (this type) to traverse *)
  xd_slot : int;  (** dependent's slot index on the target type *)
  xd_sym : int;  (** dependent's interned attribute name *)
}

and link_info = {
  li_name : string;
  li_sym : int;
  li_def : rel_def;
  li_inverse_ix : int;
      (** link index of the inverse on the target type; -1 if undeclared *)
  li_rel_deps : int array;
      (** slot indexes (this type) of attributes reading across this rel *)
}

and compiled_rule = {
  cr_rule : rule;
  cr_sources : compiled_source array;  (** in declared source order *)
}

and compiled_source =
  | C_self of { s_name : string; s_slot : int }
  | C_rel of {
      r_rel : string;  (** declared relationship *)
      r_attr : string;  (** requested (pre-export-resolution) name *)
      r_link : int;  (** link index of [r_rel] *)
      r_rel_sym : int;
      r_target : string;  (** target type name *)
      r_slot : int;
          (** resolved slot index on the target; -1 when the target type
              does not (yet) declare the transmitted attribute *)
      r_sym : int;  (** interned resolved attribute name *)
    }

(** [layout t type_name] — the (up-to-date) compiled layout.
    @raise Errors.Unknown for unknown types. *)
val layout : t -> string -> layout

(** [refresh_layout lay] recompiles the layout's schema if any DDL
    happened since the last compile; a no-op (one int compare)
    otherwise. *)
val refresh_layout : layout -> unit

(** Name/symbol resolution against an (auto-refreshed) layout. *)
val slot_index : layout -> string -> int option

val slot_index_sym : layout -> int -> int option
val link_index : layout -> string -> int option

val create : unit -> t

(** {1 Declaration} *)

(** [add_type t name] declares a fresh empty object class.
    @raise Errors.Type_error if [name] already exists. *)
val add_type : t -> string -> unit

(** [add_attr t ~type_name def] adds an attribute to an existing type.
    @raise Errors.Unknown if the type does not exist.
    @raise Errors.Type_error if the attribute already exists, if a
    constraint is attached to an intrinsic attribute, or if a declared
    source names an unknown attribute/relationship. *)
val add_attr : t -> type_name:string -> attr_def -> unit

(** [add_rel t ~type_name def] declares one end of a relationship.  Both
    ends must be declared (see {!declare_relationship} for the common
    paired form).
    @raise Errors.Type_error if the relationship already exists. *)
val add_rel : t -> type_name:string -> rel_def -> unit

(** [declare_relationship t ~from_type ~rel ~to_type ~inverse ~card
    ~inverse_card] declares both ends at once, wiring the inverse names;
    the [from] end is the Plug side. *)
val declare_relationship :
  t ->
  from_type:string ->
  rel:string ->
  to_type:string ->
  inverse:string ->
  card:cardinality ->
  inverse_card:cardinality ->
  unit

(** [add_subtype t def] declares a predicate subtype of an existing
    parent type.  The membership attribute and the extra attributes are
    installed on the parent type (extra attributes are meaningful on
    members; see {!Db.in_subtype}). *)
val add_subtype : t -> subtype_def -> unit

(** [add_export t ~type_name ~rel ~export ~attr] declares that instances
    of [type_name] transmit their attribute [attr] across relationship
    [rel] under the name [export] — Figure 1's
    [consists_of exp_time = exp_compl].  Readers on the other side
    reference [Rel (inverse, export)].
    @raise Errors.Type_error on duplicates;
    @raise Errors.Unknown for unknown rel/attr. *)
val add_export : t -> type_name:string -> rel:string -> export:string -> attr:string -> unit

(** {1 Retraction}

    Schema deltas are undoable ({!Txn.schema_change}): the inverse of a
    declaration is a retraction.  Because undo/checkout replay deltas in
    exact reverse order, a declaration is only ever retracted while it
    is still the {e newest} of its kind; each retraction below enforces
    that with a typed error, which keeps surviving slot/link indexes
    stable.  Retracting a type requires all its instances to be gone —
    guaranteed by the same reverse-replay discipline. *)

(** @raise Errors.Type_error unless [name] is the newest declared type. *)
val retract_type : t -> string -> unit

(** @raise Errors.Type_error unless the attribute is the type's newest. *)
val retract_attr : t -> type_name:string -> string -> unit

(** @raise Errors.Type_error unless the relationship is the type's
    newest. *)
val retract_rel : t -> type_name:string -> string -> unit

(** @raise Errors.Type_error when the transmission is not declared. *)
val retract_export : t -> type_name:string -> rel:string -> export:string -> unit

(** Retracts the subtype plus its extra attributes and hidden membership
    attribute (reverse of {!add_subtype}).
    @raise Errors.Type_error unless it is the newest subtype. *)
val retract_subtype : t -> string -> unit

(** {1 Rule recompilation}

    Derived rules are closures; the WAL stores their DDL expression
    source.  The DDL front end registers a compiler here
    ([Elaborate.install_rule_compiler]) so decoded schema deltas can
    rebuild their closures without the core depending on the parser. *)

val set_rule_compiler : (string -> rule) -> unit

(** [compile_rule_repr src] compiles a stored rule expression with the
    registered compiler.
    @raise Errors.Type_error when no compiler is registered. *)
val compile_rule_repr : string -> rule

(** {1 Rule shapes}

    Convergence metadata for derived rules (see {!rule_shape}). *)

(** [declare_rule_shape t ~type_name ~attr shape] records the shape of a
    derived rule.  Pure metadata: never triggers a layout recompile. *)
val declare_rule_shape : t -> type_name:string -> attr:string -> rule_shape -> unit

val rule_shape : t -> type_name:string -> attr:string -> rule_shape option

(** The DDL front end registers a syntactic shape classifier here
    (expression source -> shape), mirroring {!set_rule_compiler}; used
    by {!Db.add_attr} to classify rules arriving as logged expression
    text. *)
val set_rule_classifier : (string -> rule_shape) -> unit

(** [None] when no classifier is registered (shapes stay undeclared,
    which downstream analysis treats as divergent). *)
val classify_rule_repr : string -> rule_shape option

(** [resolve_export t ~type_name ~rel name] — the attribute actually
    transmitted when [name] is requested across the transmitter's [rel];
    [name] itself when no alias is declared (direct attribute access). *)
val resolve_export : t -> type_name:string -> rel:string -> string -> string

(** All transmission aliases declared on a type, as [(rel, export, attr)]
    triples in deterministic (sorted) order. *)
val exports : t -> type_name:string -> (string * string * string) list

(** {1 Validation}

    The core stays analysis-agnostic: a validator — typically
    [Cactis_analysis.Analyze.install] — registers itself here, and the
    schema calls back into it on demand ({!validate}) or on every layout
    refresh when the schema is in strict mode ({!set_strict}). *)

(** [set_validator f] registers the (process-global) validator.  [f]
    returns one message per error-severity finding; [[]] means clean. *)
val set_validator : (t -> string list) -> unit

(** [validate t] runs the registered validator (no-op when none is
    registered).
    @raise Errors.Type_error listing the findings when the schema is
    rejected. *)
val validate : t -> unit

(** [set_strict t true] validates [t] immediately and re-validates after
    every subsequent schema mutation (piggy-backing on layout refresh):
    DDL that introduces an error-severity finding raises
    [Errors.Type_error] at the next schema access and keeps raising
    until repaired. *)
val set_strict : t -> bool -> unit

val strict : t -> bool

(** Incremental re-validation support.  [Some l]: every mutation since
    the last clean validation was an [add_attr] of the listed
    [(type, attr)] pairs (newest first) — a new attribute only adds
    dependency edges through its own node, so a validator that accepted
    the pre-mutation schema may restrict its cycle check to components
    containing a listed attribute.  [None]: arbitrary mutations
    happened (or the schema was never validated clean) — full pass
    required.  Cleared back to [Some []] by the next clean
    validation. *)
val touched_since_validation : t -> (string * string) list option

(** [refresh t] forces a layout recompile if any DDL happened since the
    last one (a no-op otherwise).  In strict mode this re-runs the
    registered validator — used by {!Db} to re-validate the schema at
    every version replayed by undo/redo/checkout/recovery.
    @raise Errors.Type_error when strict validation rejects the schema. *)
val refresh : t -> unit

(** {1 Lookup} *)

val has_type : t -> string -> bool
val type_names : t -> string list

(** @raise Errors.Unknown when absent. *)
val find_type : t -> string -> type_def

val attr : t -> type_name:string -> string -> attr_def
val attr_opt : t -> type_name:string -> string -> attr_def option
val attrs : t -> type_name:string -> attr_def list

val rel : t -> type_name:string -> string -> rel_def
val rel_opt : t -> type_name:string -> string -> rel_def option
val rels : t -> type_name:string -> rel_def list

val subtype : t -> string -> subtype_def
val subtypes_of : t -> parent:string -> subtype_def list
val subtype_names : t -> string list

(** Hidden membership attribute name for a subtype
    (installed on the parent type). *)
val membership_attr : string -> string

(** {1 Dependency queries (used by the mark phase)} *)

(** [self_dependents t ~type_name a] — attributes [b] of the same type
    whose rules declare [Self a]. *)
val self_dependents : t -> type_name:string -> string -> string list

(** [cross_dependents t ~type_name a] — pairs [(r, b)] such that when
    attribute [a] of an instance [i] of [type_name] changes, attribute
    [b] of every instance related to [i] through relationship [r] (of
    [i]'s type) depends on it: [b]'s rule declares [Rel (inverse r, a)]. *)
val cross_dependents : t -> type_name:string -> string -> (string * string) list

(** [rel_dependents t ~type_name r] — attributes of [type_name] whose
    rules read anything across relationship [r]; these must be marked
    when a link over [r] is established or broken. *)
val rel_dependents : t -> type_name:string -> string -> string list

(** Attributes of a type carrying constraints. *)
val constraint_attrs : t -> type_name:string -> attr_def list

(** Monotone counter bumped on every schema mutation (invalidates
    downstream caches). *)
val version : t -> int

(** Human-readable schema summary: every class with its attributes
    (intrinsic defaults, derived sources, constraints), relationships,
    transmissions and subtypes.  For diagnostics and the CLI. *)
val describe : t -> string
