module Symbol = Cactis_util.Symbol

type source =
  | Self of string
  | Rel of string * string

type env = {
  self_value : string -> Value.t;
  related_values : string -> string -> Value.t list;
}

type rule = {
  sources : source list;
  compute : env -> Value.t;
}

(* Monotone-lattice shape of a derived rule, the input of the [Far86]
   convergence test: a dependency cycle whose every rule is monotone
   over a bounded lattice reaches a fixed point under iteration.  The
   shape is declarative metadata — compute functions are opaque
   closures, so shapes are either inferred syntactically from DDL
   expressions (Elaborate) or promised explicitly by an application
   ([declare_rule_shape]).  An undeclared shape means "assume
   divergent". *)
type rule_shape =
  | Shape_min  (* monotone decreasing toward the least contribution *)
  | Shape_max  (* monotone increasing toward the greatest contribution *)
  | Shape_bool  (* and/or/all/any closure over the two-point lattice *)
  | Shape_count  (* structure-only: fixed while links are fixed *)
  | Shape_lattice of { height : int; bottom : Value.t }
      (* monotone over a declared lattice of this height, iterated up
         from the given bottom element *)
  | Shape_unbounded  (* e.g. sums: each iteration can keep growing *)

let shape_name = function
  | Shape_min -> "min"
  | Shape_max -> "max"
  | Shape_bool -> "bool"
  | Shape_count -> "count"
  | Shape_lattice { height; _ } -> Printf.sprintf "lattice(%d)" height
  | Shape_unbounded -> "unbounded"

let shape_bounded = function Shape_unbounded -> false | _ -> true

type attr_kind =
  | Intrinsic of Value.t
  | Derived of rule

type constraint_spec = {
  message : string;
  recovery : string option;
}

type attr_def = {
  attr_name : string;
  kind : attr_kind;
  constraint_ : constraint_spec option;
}

type cardinality = One | Multi
type polarity = Plug | Socket

type rel_def = {
  rel_name : string;
  target : string;
  inverse : string;
  card : cardinality;
  polarity : polarity;
}

type subtype_def = {
  sub_name : string;
  parent : string;
  predicate : rule;
  extra_attrs : attr_def list;
}

type type_def = {
  type_name : string;
  attr_tbl : (string, attr_def) Hashtbl.t;
  mutable attr_order : string list;  (* declaration order, reversed *)
  rel_tbl : (string, rel_def) Hashtbl.t;
  mutable rel_order : string list;
  mutable sub_names : string list;
  exports : (string * string, string) Hashtbl.t;  (* (rel, export name) -> attr *)
}

type t = {
  types : (string, type_def) Hashtbl.t;
  mutable type_order : string list;
  subs : (string, subtype_def) Hashtbl.t;
  mutable sub_order : string list;
  mutable schema_version : int;
  (* Memoized reverse-dependency tables, invalidated on mutation. *)
  mutable cache_version : int;
  self_dep_cache : (string * string, string list) Hashtbl.t;
  cross_dep_cache : (string * string, (string * string) list) Hashtbl.t;
  rel_dep_cache : (string * string, string list) Hashtbl.t;
  (* Compiled per-type layouts (slot/link index assignment plus resolved
     dependency tables), recompiled in place when [schema_version]
     moves.  The [layout] records themselves are allocated once per type
     and never replaced: instances hold direct pointers to them. *)
  layouts : (string, layout) Hashtbl.t;
  mutable layouts_version : int;
  mutable strict : bool;
  mutable validating : bool;  (* re-entrancy guard: the validator reads the schema *)
  (* Declared rule shapes, keyed (type, attr); see {!rule_shape}. *)
  shapes : (string * string, rule_shape) Hashtbl.t;
  (* Incremental re-validation support: [Some l] means every mutation
     since the last {e clean} validation was an [add_attr] of the listed
     attributes, so a validator may restrict itself to dependency cones
     through them; [None] demands a full pass.  Maintained by [bump]
     (reset) / [add_attr] (append) / [validation_errors] (clear). *)
  mutable touched : (string * string) list option;
}

and layout = {
  lay_schema : t;
  lay_type : string;
  mutable lay_slots : slot_info array;
  mutable lay_links : link_info array;
  lay_slot_ix : (string, int) Hashtbl.t;
  lay_slot_ix_sym : (int, int) Hashtbl.t;
  lay_link_ix : (string, int) Hashtbl.t;
}

and slot_info = {
  si_name : string;
  si_sym : int;
  si_def : attr_def;
  si_derived : bool;
  si_rule : compiled_rule option;
  si_constrained : bool;
  si_self_deps : int array;
  si_cross_deps : cross_dep array;
}

and cross_dep = {
  xd_link : int;
  xd_slot : int;
  xd_sym : int;
}

and link_info = {
  li_name : string;
  li_sym : int;
  li_def : rel_def;
  li_inverse_ix : int;
  li_rel_deps : int array;
}

and compiled_rule = {
  cr_rule : rule;
  cr_sources : compiled_source array;
}

and compiled_source =
  | C_self of { s_name : string; s_slot : int }
  | C_rel of {
      r_rel : string;
      r_attr : string;
      r_link : int;
      r_rel_sym : int;
      r_target : string;
      r_slot : int;
      r_sym : int;
    }

let create () =
  {
    types = Hashtbl.create 16;
    type_order = [];
    subs = Hashtbl.create 8;
    sub_order = [];
    schema_version = 0;
    cache_version = -1;
    self_dep_cache = Hashtbl.create 64;
    cross_dep_cache = Hashtbl.create 64;
    rel_dep_cache = Hashtbl.create 64;
    layouts = Hashtbl.create 16;
    layouts_version = -1;
    strict = false;
    validating = false;
    shapes = Hashtbl.create 16;
    touched = None;
  }

let bump t =
  t.schema_version <- t.schema_version + 1;
  (* Arbitrary mutation: incremental re-validation is no longer sound.
     [add_attr] restores its finer bookkeeping after calling us. *)
  t.touched <- None

let version t = t.schema_version

let has_type t name = Hashtbl.mem t.types name
let type_names t = List.rev t.type_order

let find_type t name =
  match Hashtbl.find_opt t.types name with
  | Some td -> td
  | None -> Errors.unknown "unknown type %s" name

let add_type t name =
  if has_type t name then Errors.type_error "type %s already declared" name;
  Hashtbl.add t.types name
    {
      type_name = name;
      attr_tbl = Hashtbl.create 8;
      attr_order = [];
      rel_tbl = Hashtbl.create 4;
      rel_order = [];
      sub_names = [];
      exports = Hashtbl.create 4;
    };
  t.type_order <- name :: t.type_order;
  bump t

let attr_opt t ~type_name a = Hashtbl.find_opt (find_type t type_name).attr_tbl a

let attr t ~type_name a =
  match attr_opt t ~type_name a with
  | Some d -> d
  | None -> Errors.unknown "type %s has no attribute %s" type_name a

let attrs t ~type_name =
  let td = find_type t type_name in
  List.rev_map (fun a -> Hashtbl.find td.attr_tbl a) td.attr_order

let rel_opt t ~type_name r = Hashtbl.find_opt (find_type t type_name).rel_tbl r

let rel t ~type_name r =
  match rel_opt t ~type_name r with
  | Some d -> d
  | None -> Errors.unknown "type %s has no relationship %s" type_name r

let rels t ~type_name =
  let td = find_type t type_name in
  List.rev_map (fun r -> Hashtbl.find td.rel_tbl r) td.rel_order

let validate_sources t ~type_name sources =
  List.iter
    (function
      | Self a ->
        if attr_opt t ~type_name a = None then
          Errors.type_error "rule on type %s reads unknown attribute %s" type_name a
      | Rel (r, _) ->
        (* The target attribute cannot be validated eagerly: the inverse
           type may legitimately gain it later (extensibility), and
           Figure 2's auxiliary connector objects rely on that.  The
           relationship itself must exist. *)
        if rel_opt t ~type_name r = None then
          Errors.type_error "rule on type %s reads unknown relationship %s" type_name r)
    sources

let add_attr t ~type_name (def : attr_def) =
  let td = find_type t type_name in
  if Hashtbl.mem td.attr_tbl def.attr_name then
    Errors.type_error "type %s already has attribute %s" type_name def.attr_name;
  (match (def.kind, def.constraint_) with
  | Intrinsic _, Some _ ->
    Errors.type_error "constraint on intrinsic attribute %s.%s (constraints are derived predicates)"
      type_name def.attr_name
  | Derived rule, _ -> validate_sources t ~type_name rule.sources
  | Intrinsic _, None -> ());
  let prev_touched = t.touched in
  Hashtbl.add td.attr_tbl def.attr_name def;
  td.attr_order <- def.attr_name :: td.attr_order;
  bump t;
  (* A fresh attribute only adds dependency edges through its own node:
     a validator that already accepted the rest of the schema need only
     re-examine cycles through the attributes added since. *)
  t.touched <-
    (match prev_touched with
    | Some l -> Some ((type_name, def.attr_name) :: l)
    | None -> None)

let add_rel t ~type_name (def : rel_def) =
  let td = find_type t type_name in
  if Hashtbl.mem td.rel_tbl def.rel_name then
    Errors.type_error "type %s already has relationship %s" type_name def.rel_name;
  if not (has_type t def.target) then
    Errors.unknown "relationship %s.%s targets unknown type %s" type_name def.rel_name def.target;
  Hashtbl.add td.rel_tbl def.rel_name def;
  td.rel_order <- def.rel_name :: td.rel_order;
  bump t

let declare_relationship t ~from_type ~rel ~to_type ~inverse ~card ~inverse_card =
  add_rel t ~type_name:from_type
    { rel_name = rel; target = to_type; inverse; card; polarity = Plug };
  add_rel t ~type_name:to_type
    { rel_name = inverse; target = from_type; inverse = rel; card = inverse_card; polarity = Socket }

let membership_attr sub_name = "$in:" ^ sub_name

let subtype t name =
  match Hashtbl.find_opt t.subs name with
  | Some d -> d
  | None -> Errors.unknown "unknown subtype %s" name

let subtypes_of t ~parent =
  let td = find_type t parent in
  List.rev_map (fun s -> Hashtbl.find t.subs s) td.sub_names

let subtype_names t = List.rev t.sub_order

let add_subtype t (def : subtype_def) =
  if Hashtbl.mem t.subs def.sub_name then
    Errors.type_error "subtype %s already declared" def.sub_name;
  let td = find_type t def.parent in
  (* Membership is an ordinary derived attribute, so the incremental
     engine maintains it like any other functionally-defined value
     ("it is possible to use values such as the very_late attribute to
     change subtype membership of an object dynamically", §4). *)
  add_attr t ~type_name:def.parent
    {
      attr_name = membership_attr def.sub_name;
      kind = Derived def.predicate;
      constraint_ = None;
    };
  List.iter (fun a -> add_attr t ~type_name:def.parent a) def.extra_attrs;
  Hashtbl.add t.subs def.sub_name def;
  t.sub_order <- def.sub_name :: t.sub_order;
  td.sub_names <- def.sub_name :: td.sub_names;
  bump t

let constraint_attrs t ~type_name =
  List.filter (fun (d : attr_def) -> d.constraint_ <> None) (attrs t ~type_name)

let add_export t ~type_name ~rel:r ~export ~attr:a =
  let td = find_type t type_name in
  ignore (rel t ~type_name r);
  ignore (attr t ~type_name a);
  if Hashtbl.mem td.exports (r, export) then
    Errors.type_error "type %s already transmits %s across %s" type_name export r;
  Hashtbl.add td.exports (r, export) a;
  bump t

(* ------------------------------------------------------------------ *)
(* Retraction (the inverse of declaration).

   Undo and checkout replay deltas in exact reverse order, so a schema
   declaration is only ever retracted while it is still the {e newest}
   of its kind — which is why every retraction below head-checks the
   declaration-order list (stored reversed, newest first).  Popping the
   head keeps all surviving slot/link indexes stable: a retraction
   followed by a re-declaration (redo) reassigns the same indexes. *)

let retract_order what name order =
  match order with
  | n :: rest when String.equal n name -> rest
  | _ -> Errors.type_error "cannot retract %s: it is not the most recently declared" what

let retract_attr t ~type_name name =
  let td = find_type t type_name in
  td.attr_order <-
    retract_order (Printf.sprintf "attribute %s.%s" type_name name) name td.attr_order;
  Hashtbl.remove td.attr_tbl name;
  Hashtbl.remove t.shapes (type_name, name);
  bump t

let retract_rel t ~type_name name =
  let td = find_type t type_name in
  td.rel_order <-
    retract_order (Printf.sprintf "relationship %s.%s" type_name name) name td.rel_order;
  Hashtbl.remove td.rel_tbl name;
  bump t

let retract_export t ~type_name ~rel:r ~export =
  let td = find_type t type_name in
  if not (Hashtbl.mem td.exports (r, export)) then
    Errors.type_error "cannot retract transmission %s.%s: type %s does not declare it" r export
      type_name;
  Hashtbl.remove td.exports (r, export);
  bump t

let retract_type t name =
  t.type_order <- retract_order ("type " ^ name) name t.type_order;
  Hashtbl.remove t.types name;
  Hashtbl.fold (fun ((tn, _) as k) _ acc -> if String.equal tn name then k :: acc else acc)
    t.shapes []
  |> List.iter (Hashtbl.remove t.shapes);
  (* The compiled layout must go too: [refresh_layouts] only recompiles
     layouts of declared types, so a stale survivor would keep serving
     lookups for a type that no longer exists.  A later re-declaration
     (redo) allocates a fresh layout record; that is safe because
     retraction is only reachable once every instance of the type has
     been deleted (undo replays the instance deletions first). *)
  Hashtbl.remove t.layouts name;
  bump t

let retract_subtype t name =
  let def = subtype t name in
  t.sub_order <- retract_order ("subtype " ^ name) name t.sub_order;
  let td = find_type t def.parent in
  td.sub_names <- retract_order ("subtype " ^ name) name td.sub_names;
  (* Reverse of add_subtype: extra attributes (newest first), then the
     hidden membership attribute. *)
  List.iter
    (fun (a : attr_def) -> retract_attr t ~type_name:def.parent a.attr_name)
    (List.rev def.extra_attrs);
  retract_attr t ~type_name:def.parent (membership_attr name);
  Hashtbl.remove t.subs name;
  bump t

(* ------------------------------------------------------------------ *)
(* Rule recompilation hook.

   Derived rules are closures; the WAL stores their DDL expression
   source instead.  The DDL front end (which the core does not depend
   on) registers a compiler here so {!Codec} can rebuild the closure
   when a schema delta is decoded. *)

let rule_compiler : (string -> rule) option ref = ref None

let set_rule_compiler f = rule_compiler := Some f

let compile_rule_repr src =
  match !rule_compiler with
  | Some f -> f src
  | None ->
    Errors.type_error
      "no rule compiler registered: cannot rebuild derived rule from %S (link the DDL front end \
       and call Elaborate.install_rule_compiler)"
      src

(* ------------------------------------------------------------------ *)
(* Rule shapes (convergence metadata).                                  *)

let declare_rule_shape t ~type_name ~attr shape =
  (* Metadata only: layouts do not depend on shapes, so no [bump]. *)
  Hashtbl.replace t.shapes (type_name, attr) shape

let rule_shape t ~type_name ~attr = Hashtbl.find_opt t.shapes (type_name, attr)

(* Like the rule compiler, the shape classifier is registered by the DDL
   front end (it inspects expression syntax).  Unlike the compiler it is
   optional everywhere: an unclassifiable or unregistered rule simply
   stays shapeless, which the convergence pass treats as divergent. *)
let rule_classifier : (string -> rule_shape) option ref = ref None

let set_rule_classifier f = rule_classifier := Some f

let classify_rule_repr src = Option.map (fun f -> f src) !rule_classifier

let resolve_export t ~type_name ~rel:r name =
  let td = find_type t type_name in
  match Hashtbl.find_opt td.exports (r, name) with
  | Some a -> a
  | None -> name

let exports t ~type_name =
  let td = find_type t type_name in
  Hashtbl.fold (fun (r, e) a acc -> (r, e, a) :: acc) td.exports []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Validator hook.                                                     *)

let validator : (t -> string list) option ref = ref None

let set_validator f = validator := Some f

let validation_errors t =
  match !validator with
  | None -> []
  | Some f ->
    if t.validating then []
    else begin
      t.validating <- true;
      let msgs = Fun.protect ~finally:(fun () -> t.validating <- false) (fun () -> f t) in
      (* A clean validation re-arms incremental re-validation: until the
         next non-add_attr mutation, only cycles through newly added
         attributes can appear. *)
      if msgs = [] then t.touched <- Some [];
      msgs
    end

let touched_since_validation t = t.touched

let validate t =
  match validation_errors t with
  | [] -> ()
  | msgs -> Errors.type_error "schema rejected by validator:\n%s" (String.concat "\n" msgs)

(* ------------------------------------------------------------------ *)
(* Reverse-dependency tables.                                          *)

let refresh_caches t =
  if t.cache_version <> t.schema_version then begin
    Hashtbl.reset t.self_dep_cache;
    Hashtbl.reset t.cross_dep_cache;
    Hashtbl.reset t.rel_dep_cache;
    t.cache_version <- t.schema_version
  end

let derived_sources (d : attr_def) =
  match d.kind with Derived rule -> rule.sources | Intrinsic _ -> []

let compute_self_dependents t ~type_name a =
  attrs t ~type_name
  |> List.filter_map (fun (d : attr_def) ->
         if List.exists (function Self x -> String.equal x a | Rel _ -> false) (derived_sources d)
         then Some d.attr_name
         else None)

let compute_cross_dependents t ~type_name a =
  (* For every relationship r of this type (target U, inverse r'), the
     attributes b of U reading [Rel (r', name)] depend on our a whenever
     the requested name resolves to a — directly, or through a
     transmission alias declared on our side of r. *)
  rels t ~type_name
  |> List.concat_map (fun (r : rel_def) ->
         if not (has_type t r.target) then []
         else
           attrs t ~type_name:r.target
           |> List.filter_map (fun (d : attr_def) ->
                  if
                    List.exists
                      (function
                        | Rel (r', name) ->
                          String.equal r' r.inverse
                          && String.equal (resolve_export t ~type_name ~rel:r.rel_name name) a
                        | Self _ -> false)
                      (derived_sources d)
                  then Some (r.rel_name, d.attr_name)
                  else None))

let compute_rel_dependents t ~type_name r =
  attrs t ~type_name
  |> List.filter_map (fun (d : attr_def) ->
         if List.exists (function Rel (r', _) -> String.equal r' r | Self _ -> false)
              (derived_sources d)
         then Some d.attr_name
         else None)

let memo cache compute key =
  match Hashtbl.find_opt cache key with
  | Some v -> v
  | None ->
    let v = compute () in
    Hashtbl.add cache key v;
    v

let self_dependents t ~type_name a =
  refresh_caches t;
  memo t.self_dep_cache (fun () -> compute_self_dependents t ~type_name a) (type_name, a)

let cross_dependents t ~type_name a =
  refresh_caches t;
  memo t.cross_dep_cache (fun () -> compute_cross_dependents t ~type_name a) (type_name, a)

let rel_dependents t ~type_name r =
  refresh_caches t;
  memo t.rel_dep_cache (fun () -> compute_rel_dependents t ~type_name r) (type_name, r)

(* ------------------------------------------------------------------ *)
(* Compiled layouts                                                    *)

(* Slot and link indexes are {e stable}: [attr_order] / [rel_order] grow
   at the head and shrink only by popping the head (retraction is
   restricted to the newest declaration, see above), so a recompile
   after a DDL change assigns every surviving name the same index and
   instances only ever need to {e extend} their slot arrays, never remap
   them.  A retracted slot's index is reused by the next declaration,
   which re-initializes it (Engine.after_attr_added). *)

let empty_layout t tn =
  {
    lay_schema = t;
    lay_type = tn;
    lay_slots = [||];
    lay_links = [||];
    lay_slot_ix = Hashtbl.create 8;
    lay_slot_ix_sym = Hashtbl.create 8;
    lay_link_ix = Hashtbl.create 4;
  }

let slot_ix_of t tn a = Hashtbl.find (Hashtbl.find t.layouts tn).lay_slot_ix a

let compile_rule t (td : type_def) lay (r : rule) =
  let compile_source = function
    | Self a -> C_self { s_name = a; s_slot = Hashtbl.find lay.lay_slot_ix a }
    | Rel (rl, name) ->
      let rd = Hashtbl.find td.rel_tbl rl in
      (* The attribute actually transmitted may be aliased by an export
         declared on the target side (Figure 1's [exp_time = exp_compl]);
         it may also legitimately not exist yet — flagged as slot -1 and
         reported only if a link is ever traversed (extensibility, §3). *)
      let resolved = resolve_export t ~type_name:rd.target ~rel:rd.inverse name in
      let r_slot =
        match Hashtbl.find_opt (Hashtbl.find t.layouts rd.target).lay_slot_ix resolved with
        | Some ix -> ix
        | None -> -1
      in
      C_rel
        {
          r_rel = rl;
          r_attr = name;
          r_link = Hashtbl.find lay.lay_link_ix rl;
          r_rel_sym = Symbol.intern rl;
          r_target = rd.target;
          r_slot;
          r_sym = Symbol.intern resolved;
        }
  in
  { cr_rule = r; cr_sources = Array.of_list (List.map compile_source r.sources) }

let compile_layout t lay =
  let tn = lay.lay_type in
  let td = find_type t tn in
  let slots =
    List.rev td.attr_order
    |> List.map (fun a ->
           let def = Hashtbl.find td.attr_tbl a in
           let rule =
             match def.kind with
             | Derived r -> Some (compile_rule t td lay r)
             | Intrinsic _ -> None
           in
           let self_deps =
             compute_self_dependents t ~type_name:tn a
             |> List.map (Hashtbl.find lay.lay_slot_ix)
             |> Array.of_list
           in
           let cross_deps =
             compute_cross_dependents t ~type_name:tn a
             |> List.map (fun (r, b) ->
                    let rd = Hashtbl.find td.rel_tbl r in
                    {
                      xd_link = Hashtbl.find lay.lay_link_ix r;
                      xd_slot = slot_ix_of t rd.target b;
                      xd_sym = Symbol.intern b;
                    })
             |> Array.of_list
           in
           {
             si_name = a;
             si_sym = Symbol.intern a;
             si_def = def;
             si_derived = rule <> None;
             si_rule = rule;
             si_constrained = def.constraint_ <> None;
             si_self_deps = self_deps;
             si_cross_deps = cross_deps;
           })
    |> Array.of_list
  in
  let links =
    List.rev td.rel_order
    |> List.map (fun r ->
           let rd = Hashtbl.find td.rel_tbl r in
           let inverse_ix =
             match Hashtbl.find_opt t.layouts rd.target with
             | None -> -1
             | Some tl -> (
               match Hashtbl.find_opt tl.lay_link_ix rd.inverse with
               | Some ix -> ix
               | None -> -1)
           in
           let rel_deps =
             compute_rel_dependents t ~type_name:tn r
             |> List.map (Hashtbl.find lay.lay_slot_ix)
             |> Array.of_list
           in
           {
             li_name = r;
             li_sym = Symbol.intern r;
             li_def = rd;
             li_inverse_ix = inverse_ix;
             li_rel_deps = rel_deps;
           })
    |> Array.of_list
  in
  lay.lay_slots <- slots;
  lay.lay_links <- links

let refresh_layouts t =
  if t.layouts_version <> t.schema_version then begin
    t.layouts_version <- t.schema_version;
    let tns = type_names t in
    (* Pass 1: (re)assign name -> index maps for every type, so pass 2
       can resolve cross-type references in any declaration order. *)
    List.iter
      (fun tn ->
        let lay =
          match Hashtbl.find_opt t.layouts tn with
          | Some l -> l
          | None ->
            let l = empty_layout t tn in
            Hashtbl.add t.layouts tn l;
            l
        in
        let td = find_type t tn in
        Hashtbl.reset lay.lay_slot_ix;
        Hashtbl.reset lay.lay_slot_ix_sym;
        Hashtbl.reset lay.lay_link_ix;
        List.iteri
          (fun ix a ->
            Hashtbl.replace lay.lay_slot_ix a ix;
            Hashtbl.replace lay.lay_slot_ix_sym (Symbol.intern a) ix)
          (List.rev td.attr_order);
        List.iteri (fun ix r -> Hashtbl.replace lay.lay_link_ix r ix) (List.rev td.rel_order))
      tns;
    (* Pass 2: compile slot/link infos against the fresh index maps. *)
    List.iter (fun tn -> compile_layout t (Hashtbl.find t.layouts tn)) tns;
    if t.strict && not t.validating then begin
      match validation_errors t with
      | [] -> ()
      | msgs ->
        (* Stay dirty: every access keeps failing until the schema is
           fixed, not just the first one after the bad mutation. *)
        t.layouts_version <- -1;
        Errors.type_error "schema rejected by validator:\n%s" (String.concat "\n" msgs)
    end
  end

let refresh t = refresh_layouts t

let set_strict t flag =
  t.strict <- flag;
  if flag then begin
    t.layouts_version <- -1;
    refresh_layouts t
  end

let strict t = t.strict

let layout t tn =
  refresh_layouts t;
  match Hashtbl.find_opt t.layouts tn with
  | Some l -> l
  | None -> Errors.unknown "unknown type %s" tn

let refresh_layout lay = refresh_layouts lay.lay_schema

let slot_index lay a =
  refresh_layouts lay.lay_schema;
  Hashtbl.find_opt lay.lay_slot_ix a

let slot_index_sym lay sym =
  refresh_layouts lay.lay_schema;
  Hashtbl.find_opt lay.lay_slot_ix_sym sym

let link_index lay r =
  refresh_layouts lay.lay_schema;
  Hashtbl.find_opt lay.lay_link_ix r

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let describe t =
  let buf = Buffer.create 512 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun tn ->
      let td = find_type t tn in
      out "class %s\n" tn;
      List.iter
        (fun (r : rel_def) ->
          out "  rel  %-18s -> %s (%s, inverse %s)\n" r.rel_name r.target
            (match r.card with One -> "one" | Multi -> "multi")
            r.inverse)
        (rels t ~type_name:tn);
      List.iter
        (fun (d : attr_def) ->
          match d.kind with
          | Intrinsic default ->
            out "  attr %-18s intrinsic := %s\n" d.attr_name (Value.to_string default)
          | Derived rule ->
            let srcs =
              rule.sources
              |> List.map (function
                   | Self a -> a
                   | Rel (r, a) -> r ^ "." ^ a)
              |> String.concat ", "
            in
            out "  attr %-18s derived <- {%s}%s\n" d.attr_name srcs
              (match d.constraint_ with
              | Some c -> Printf.sprintf "  CONSTRAINT %S" c.message
              | None -> ""))
        (attrs t ~type_name:tn);
      Hashtbl.iter
        (fun (r, export) a -> out "  send %s.%s = %s\n" r export a)
        td.exports;
      List.iter (fun s -> out "  subtype %s\n" s) (List.rev td.sub_names))
    (type_names t);
  Buffer.contents buf
