module Counters = Cactis_util.Counters
module Clock = Cactis_obs.Clock
module Ctx = Cactis_obs.Ctx
module Histogram = Cactis_obs.Histogram
module Profile = Cactis_obs.Profile
module Flight = Cactis_obs.Flight

(* Committed deltas form a tree: undoing back and committing again grows
   a sibling branch instead of discarding the old one ("the ability to
   manipulate versions and version streams as objects", §3).  [head] is
   the node whose state the database currently holds; the root (None
   parent chain terminator) is the initial empty database. *)
type vnode = {
  vid : int;
  delta : Txn.delta;
  parent : vnode option;
  depth : int;
}

(* Incremental re-clustering maintenance, armed by
   [set_auto_recluster]: when usage drift since the last plan crosses
   [drift_threshold], a migration plan is computed, and every commit
   thereafter applies at most [max_moves] moves until it drains. *)
type auto_recluster = {
  ar_strategy : Cactis_storage.Cluster.strategy;
  drift_threshold : int;
  max_moves : int;
  mutable last_touches : int;  (* instance_touches when the last plan was cut *)
}

(* Reusable state of {!traverse}: a node is visited when its stamp is
   the current epoch, so clearing the visited set is one increment, and
   the frontiers and the visited values live in arrays kept at their
   high-water mark. *)
type walk = {
  mutable stamp : int array;
  mutable epoch : int;
  mutable cur : int array;
  mutable next : int array;
  mutable vals : Value.t array;
}

type t = {
  sch : Schema.t;
  st : Store.t;
  eng : Engine.t;
  walk : walk;
  mutable current : Txn.op list option;  (* open txn log, newest op first *)
  mutable head : vnode option;  (* None = initial state *)
  mutable redo_stack : vnode list;  (* nodes stepped back from, nearest first *)
  mutable next_vid : int;
  tag_tbl : (string, vnode option) Hashtbl.t;
  h_commit : Histogram.h;
  h_recluster_step : Histogram.h;
  h_recluster_plan : Histogram.h;
  mutable auto : auto_recluster option;
  mutable profiling : bool;  (* arm a fresh propagation profile per commit *)
  mutable last_profile : Profile.snapshot option;
  mutable commit_hook : (Txn.delta -> unit) option;
      (* durability observer (see Persist): called with every delta the
         database state moves across — commits, undos (inverted), redos
         and checkout steps — so a write-ahead log replays to the same
         state. *)
  mutable baseline_schema_ops : Txn.op list;
      (* schema deltas already folded into the code-supplied schema this
         database was created with (loaded from a snapshot's schema
         section, oldest first).  The database's schema version is the
         count of these plus the schema ops on the root->head path. *)
}

let create ?block_capacity ?buffer_capacity ?disk_path ?disk_block_bytes ?strategy ?sched sch =
  let st = Store.create ?block_capacity ?buffer_capacity ?disk_path ?disk_block_bytes sch in
  let eng = Engine.create ?strategy ?sched st in
  let t =
    {
      sch;
      st;
      eng;
      walk = { stamp = [||]; epoch = 0; cur = Array.make 16 0; next = Array.make 16 0; vals = [||] };
      current = None;
      head = None;
      redo_stack = [];
      next_vid = 1;
      tag_tbl = Hashtbl.create 8;
      h_commit = Histogram.cell (Store.obs st).Cactis_obs.Ctx.hists "commit";
      h_recluster_step = Histogram.cell (Store.obs st).Cactis_obs.Ctx.hists "recluster_step";
      h_recluster_plan = Histogram.cell (Store.obs st).Cactis_obs.Ctx.hists "recluster_plan";
      auto = None;
      profiling = false;
      last_profile = None;
      commit_hook = None;
      baseline_schema_ops = [];
    }
  in
  (* Recovery actions repair constraints through the logged primitive
     layer so their effects participate in rollback. *)
  Engine.set_repair eng (fun id attr v ->
      let def = Schema.attr sch ~type_name:(Store.get st id).Instance.type_name attr in
      match def.Schema.kind with
      | Schema.Intrinsic _ ->
        let slot = Store.read_slot st id attr in
        let old = slot.Instance.value in
        if not (Value.equal old v) then begin
          Store.write_value st id attr v;
          (match t.current with
          | Some ops -> t.current <- Some (Txn.Set_intrinsic { id; attr; old_value = old; new_value = v } :: ops)
          | None -> ());
          Engine.after_intrinsic_set eng id attr
        end
      | Schema.Derived _ ->
        Errors.type_error "recovery action writes derived attribute %s of %d" attr id);
  t

let schema t = t.sch
let store t = t.st
let engine t = t.eng
let counters t = Store.counters t.st
let obs t = Store.obs t.st

let set_fixed_point ?max_iters t on = Engine.set_fixed_point ?max_iters t.eng on
let fixed_point t = Engine.fixed_point t.eng

let set_profiling t on =
  t.profiling <- on;
  if not on then Engine.set_profile t.eng None

let last_profile t = t.last_profile

(* Capture and disarm the per-commit profile (both commit outcomes). *)
let harvest_profile t =
  match Engine.profile t.eng with
  | Some p ->
    t.last_profile <- Some (Profile.snapshot p);
    Engine.set_profile t.eng None
  | None -> ()

let set_commit_hook t hook = t.commit_hook <- hook
let commit_hook t = t.commit_hook

let notify_hook t delta =
  match t.commit_hook with None -> () | Some f -> f delta

(* ------------------------------------------------------------------ *)
(* Schema deltas

   A schema mutation is an ordinary transaction op: applying it mutates
   the live schema and initializes fresh slots on existing instances;
   retracting it (the inverse, reached through undo/checkout) purges the
   engine's per-attribute bookkeeping and pops the declaration.  Because
   deltas replay in exact reverse order, a retraction always targets the
   newest declaration of its kind (Schema enforces this), so slot/link
   indexes of surviving attributes never move. *)

let apply_schema_change t (c : Txn.schema_change) =
  match c with
  | Txn.Schema_add_type { type_name } -> Schema.add_type t.sch type_name
  | Txn.Schema_add_rel { type_name; rel } -> Schema.add_rel t.sch ~type_name rel
  | Txn.Schema_add_export { type_name; rel; export; attr } ->
    Schema.add_export t.sch ~type_name ~rel ~export ~attr
  | Txn.Schema_add_attr { type_name; def; repr = _ } ->
    Schema.add_attr t.sch ~type_name def;
    Engine.after_attr_added t.eng ~type_name ~attr:def.Schema.attr_name
  | Txn.Schema_add_subtype { def; _ } ->
    Schema.add_subtype t.sch def;
    Engine.after_attr_added t.eng ~type_name:def.Schema.parent
      ~attr:(Schema.membership_attr def.Schema.sub_name);
    List.iter
      (fun (a : Schema.attr_def) ->
        Engine.after_attr_added t.eng ~type_name:def.Schema.parent ~attr:a.Schema.attr_name)
      def.Schema.extra_attrs

let retract_schema_change t (c : Txn.schema_change) =
  match c with
  | Txn.Schema_add_type { type_name } -> Schema.retract_type t.sch type_name
  | Txn.Schema_add_rel { type_name; rel } ->
    Schema.retract_rel t.sch ~type_name rel.Schema.rel_name
  | Txn.Schema_add_export { type_name; rel; export; attr = _ } ->
    Schema.retract_export t.sch ~type_name ~rel ~export
  | Txn.Schema_add_attr { type_name; def; repr = _ } ->
    Engine.after_attr_retracted t.eng ~type_name ~attr:def.Schema.attr_name;
    Schema.retract_attr t.sch ~type_name def.Schema.attr_name
  | Txn.Schema_add_subtype { def; _ } ->
    List.iter
      (fun (a : Schema.attr_def) ->
        Engine.after_attr_retracted t.eng ~type_name:def.Schema.parent ~attr:a.Schema.attr_name)
      (List.rev def.Schema.extra_attrs);
    Engine.after_attr_retracted t.eng ~type_name:def.Schema.parent
      ~attr:(Schema.membership_attr def.Schema.sub_name);
    Schema.retract_subtype t.sch def.Schema.sub_name

(* ------------------------------------------------------------------ *)
(* Unlogged replay (undo / redo)                                       *)

let exec_forward_unlogged t op =
  match op with
  | Txn.Set_intrinsic { id; attr; new_value; old_value = _ } ->
    Store.write_value t.st id attr new_value;
    Engine.after_intrinsic_set t.eng id attr
  | Txn.Link { from_id; rel; to_id } ->
    Store.link t.st ~from_id ~rel ~to_id;
    Engine.after_link_change t.eng ~from_id ~rel ~to_id
  | Txn.Unlink { from_id; rel; to_id } ->
    if Store.unlink t.st ~from_id ~rel ~to_id then
      Engine.after_link_change t.eng ~from_id ~rel ~to_id
  | Txn.Create { id; type_name } ->
    ignore (Store.recreate_instance t.st ~id type_name);
    Engine.on_new_instance t.eng id
  | Txn.Delete { id; _ } ->
    Engine.on_delete_instance t.eng id;
    Store.delete_instance t.st id
  | Txn.Schema { change; retract } ->
    if retract then retract_schema_change t change else apply_schema_change t change;
    (* Strict mode re-validates the schema at every replayed version
       (undo/redo/checkout/recovery), so a walk across a version whose
       schema the analyzer rejects raises at that version. *)
    if Schema.strict t.sch then Schema.refresh t.sch

let undo_one_op t op =
  match op with
  | Txn.Delete { id; type_name; intrinsics } ->
    (* The inverse of a delete restores the recorded intrinsic snapshot;
       links are restored by the inverses of the Unlink ops that preceded
       the delete. *)
    ignore (Store.recreate_instance t.st ~id type_name);
    List.iter (fun (a, v) -> Store.write_value t.st id a v) intrinsics;
    Engine.on_new_instance t.eng id;
    List.iter (fun (a, _) -> Engine.after_intrinsic_set t.eng id a) intrinsics
  | op -> exec_forward_unlogged t (Txn.inverse_op op)

(* [ops] newest-first (either an open-txn log, or a committed delta
   reversed by the caller). *)
let apply_inverse_newest_first t ops = List.iter (undo_one_op t) ops

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)

let in_txn t = t.current <> None

let begin_txn t =
  if in_txn t then Errors.type_error "transaction already open";
  Counters.incr (counters t) "txns_started";
  Flight.record Flight.Txn_begin ~a:t.next_vid ~b:0;
  (* The propagation window opens here: mark waves run as the
     transaction mutates, so the profile must be armed before them, not
     at commit. *)
  if t.profiling then Engine.set_profile t.eng (Some (Profile.create ()));
  t.current <- Some []

let rollback_current t =
  match t.current with
  | None -> ()
  | Some ops ->
    t.current <- None;
    Flight.record Flight.Txn_abort ~a:(List.length ops) ~b:0;
    apply_inverse_newest_first t ops;
    Counters.incr (counters t) "txns_aborted";
    (* The restored state satisfied all constraints when it was current;
       propagate to settle watched attributes. *)
    Engine.propagate t.eng;
    harvest_profile t

let abort t =
  if not (in_txn t) then Errors.type_error "no open transaction to abort";
  rollback_current t

(* One bounded slice of incremental re-clustering maintenance, run at
   commit time (inside the commit latency window, so the disruption is
   visible in the [commit] histogram and bounded by [max_moves]).  A
   plan in flight is drained first; otherwise a new plan is cut when
   instance touches since the last plan exceed the drift threshold. *)
let maintenance_step t =
  match t.auto with
  | None -> ()
  | Some a ->
    let ready =
      Store.pending_moves t.st > 0
      ||
      let touches = Counters.get (counters t) "instance_touches" in
      touches - a.last_touches >= a.drift_threshold
      && begin
           a.last_touches <- touches;
           (* The plan cut (a full pack over the usage statistics) is
              the one slice whose cost scales with database size rather
              than [max_moves]; it gets its own histogram so the bounded
              migration slices are measured apart from it. *)
           let plan_ns = Clock.now_ns () in
           let pending = Store.begin_recluster ~strategy:a.ar_strategy t.st in
           Histogram.observe t.h_recluster_plan (Clock.elapsed_s ~since:plan_ns);
           pending > 0
         end
    in
    if ready then begin
      let start_ns = Clock.now_ns () in
      let moved = Store.recluster_step t.st ~max_moves:a.max_moves in
      if moved > 0 then begin
        Flight.record Flight.Recluster_slice ~a:moved ~b:0;
        Histogram.observe t.h_recluster_step (Clock.elapsed_s ~since:start_ns)
      end
    end

let set_auto_recluster ?(strategy = Cactis_storage.Cluster.Greedy) ?(drift_threshold = 1024)
    ?(max_moves = 16) t on =
  if on then begin
    if drift_threshold < 1 then
      Errors.type_error "auto recluster: drift_threshold must be >= 1";
    if max_moves < 1 then Errors.type_error "auto recluster: max_moves must be >= 1";
    t.auto <-
      Some
        {
          ar_strategy = strategy;
          drift_threshold;
          max_moves;
          last_touches = Counters.get (counters t) "instance_touches";
        }
  end
  else t.auto <- None

let commit t =
  match t.current with
  | None -> Errors.type_error "no open transaction to commit"
  | Some ops ->
    let start_ns = Clock.now_ns () in
    (* Normally armed by [begin_txn]; covers profiling enabled mid-txn. *)
    (match Engine.profile t.eng with
    | None when t.profiling -> Engine.set_profile t.eng (Some (Profile.create ()))
    | _ -> ());
    (try Engine.propagate t.eng
     with e ->
       harvest_profile t;
       rollback_current t;
       raise e);
    harvest_profile t;
    t.current <- None;
    Counters.incr (counters t) "txns_committed";
    let ops = List.rev ops in
    if ops <> [] then begin
      (* Committing after an undo grows a sibling branch; the abandoned
         branch stays in the tree, reachable through its tags. *)
      t.redo_stack <- [];
      let delta = { Txn.ops; label = None } in
      let depth = match t.head with Some n -> n.depth + 1 | None -> 1 in
      t.head <- Some { vid = t.next_vid; delta; parent = t.head; depth };
      Flight.record Flight.Txn_commit ~a:t.next_vid ~b:(List.length ops);
      t.next_vid <- t.next_vid + 1;
      notify_hook t delta
    end;
    maintenance_step t;
    Histogram.observe t.h_commit (Clock.elapsed_s ~since:start_ns)

let with_txn t f =
  begin_txn t;
  match f () with
  | v ->
    commit t;
    v
  | exception e ->
    if in_txn t then rollback_current t;
    raise e

let with_auto t f =
  if in_txn t then f ()
  else with_txn t f

let log t op =
  match t.current with
  | Some ops -> t.current <- Some (op :: ops)
  | None -> assert false

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)

let create_instance t type_name =
  with_auto t (fun () ->
      let inst = Store.create_instance t.st type_name in
      log t (Txn.Create { id = inst.Instance.id; type_name });
      Engine.on_new_instance t.eng inst.Instance.id;
      inst.Instance.id)

let set t id attr v =
  with_auto t (fun () ->
      let inst = Store.get t.st id in
      let def = Schema.attr t.sch ~type_name:inst.Instance.type_name attr in
      match def.Schema.kind with
      | Schema.Derived _ ->
        Errors.type_error "cannot set derived attribute %s.%s directly" inst.Instance.type_name attr
      | Schema.Intrinsic _ ->
        let slot = Store.read_slot t.st id attr in
        let old = slot.Instance.value in
        if not (Value.equal old v) then begin
          Store.write_value t.st id attr v;
          log t (Txn.Set_intrinsic { id; attr; old_value = old; new_value = v });
          Engine.after_intrinsic_set t.eng id attr
        end)

let get t ?watch id attr =
  try Engine.read t.eng ?watch id attr
  with Errors.Constraint_violation _ as e ->
    if in_txn t then rollback_current t;
    raise e

let link t ~from_id ~rel ~to_id =
  with_auto t (fun () ->
      Store.link t.st ~from_id ~rel ~to_id;
      log t (Txn.Link { from_id; rel; to_id });
      Engine.after_link_change t.eng ~from_id ~rel ~to_id)

let unlink t ~from_id ~rel ~to_id =
  with_auto t (fun () ->
      if not (Store.unlink t.st ~from_id ~rel ~to_id) then
        Errors.unknown "no link %d -[%s]-> %d" from_id rel to_id;
      log t (Txn.Unlink { from_id; rel; to_id });
      Engine.after_link_change t.eng ~from_id ~rel ~to_id)

let delete_instance t id =
  with_auto t (fun () ->
      let inst = Store.get t.st id in
      let links = Instance.all_links inst in
      List.iter
        (fun (rel, ids) ->
          List.iter
            (fun other ->
              (* Both directions appear in all_links; the second sight of
                 a pair finds the link already gone. *)
              if Store.unlink t.st ~from_id:id ~rel ~to_id:other then begin
                log t (Txn.Unlink { from_id = id; rel; to_id = other });
                Engine.after_link_change t.eng ~from_id:id ~rel ~to_id:other
              end)
            ids)
        links;
      let intrinsics =
        Schema.attrs t.sch ~type_name:inst.Instance.type_name
        |> List.filter_map (fun (d : Schema.attr_def) ->
               match d.Schema.kind with
               | Schema.Intrinsic _ ->
                 Some (d.Schema.attr_name, (Instance.slot inst d.Schema.attr_name).Instance.value)
               | Schema.Derived _ -> None)
      in
      log t (Txn.Delete { id; type_name = inst.Instance.type_name; intrinsics });
      Engine.on_delete_instance t.eng id;
      Store.delete_instance t.st id)

let related t id rel = Store.linked t.st id rel

(* [Value.sum] of [vals.(n - 1)], ..., [vals.(0)], in that order, with
   the partial sum unboxed while it is an int or a float. *)
let sum_down vals n =
  let kind = ref 0 (* 0 int, 1 float, 2 any *) and si = ref 0 and sf = ref 0.0 in
  let acc = ref (Value.Int 0) in
  for i = n - 1 downto 0 do
    match (!kind, vals.(i)) with
    | 0, Value.Int x -> si := !si + x
    | 0, Value.Float x ->
      sf := float_of_int !si +. x;
      kind := 1
    | 1, Value.Float x -> sf := !sf +. x
    | 1, Value.Int x -> sf := !sf +. float_of_int x
    | 2, v -> acc := Value.add !acc v
    | k, v ->
      acc := Value.add (if k = 0 then Value.Int !si else Value.Float !sf) v;
      kind := 2
  done;
  match !kind with 0 -> Value.Int !si | 1 -> Value.Float !sf | _ -> !acc

let grow_ints a n =
  let bigger = Array.make (max n (2 * Array.length a)) 0 in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

(* Breadth-first, each level in the order the [Db.get]/[Db.related]
   walk over lists took it: that walk gathered level d + 1 as the
   reverse of its related lists, so ids are appended to [next] as
   related and every level is read from its last entry down.  Each
   node costs what [get ~watch:false] and [related] charge it: two
   touches and one crossing per link. *)
let traverse_walk t ~root ~rel ~attr ~depth =
  let w = t.walk in
  w.epoch <- w.epoch + 1;
  let epoch = w.epoch in
  (* The arrays are held in locals while the walk runs (a store into a
     record field would pay the write barrier) and put back at the end. *)
  let cur = ref w.cur and next = ref w.next and stamp = ref w.stamp and vals = ref w.vals in
  !cur.(0) <- root;
  let ncur = ref 1 and nvals = ref 0 and d = ref 0 in
  let lay = ref None and slot = ref (-1) and link = ref (-1) in
  while !ncur > 0 && (depth < 0 || !d <= depth) do
    let nnext = ref 0 in
    for k = !ncur - 1 downto 0 do
      let id = !cur.(k) in
      if id < 0 || id >= Array.length !stamp || !stamp.(id) <> epoch then begin
        (* [Store.get] rejects an id that names no live instance (a
           client's root arrives unchecked) before the stamps grow to
           cover it, so they stay within twice [Store.next_id]. *)
        let inst = Store.get t.st id in
        if id >= Array.length !stamp then stamp := grow_ints !stamp (max (id + 1) (Store.next_id t.st));
        !stamp.(id) <- epoch;
        (match !lay with
        | Some l when l == inst.Instance.layout -> ()
        | _ ->
          lay := Some inst.Instance.layout;
          slot := (match Instance.find_slot inst attr with Some ix -> ix | None -> -1);
          link := (match Instance.find_link inst rel with Some ix -> ix | None -> -1));
        if !slot < 0 then
          Errors.unknown "type %s has no attribute %s" inst.Instance.type_name attr;
        let v = Engine.read_ix t.eng ~watch:false inst !slot in
        if !nvals = Array.length !vals then begin
          let bigger = Array.make (max 16 (2 * !nvals)) Value.Null in
          Array.blit !vals 0 bigger 0 !nvals;
          vals := bigger
        end;
        !vals.(!nvals) <- v;
        incr nvals;
        Store.touch t.st id;
        if !link < 0 then
          Errors.unknown "type %s has no relationship %s" inst.Instance.type_name rel;
        let l = Instance.links_ix inst !link in
        if !nnext + l.Instance.n > Array.length !next then
          next := grow_ints !next (!nnext + l.Instance.n);
        for j = 0 to l.Instance.n - 1 do
          Instance.cross l j;
          !next.(!nnext + j) <- l.Instance.ids.(j)
        done;
        nnext := !nnext + l.Instance.n
      end
    done;
    let c = !cur in
    cur := !next;
    next := c;
    ncur := !nnext;
    incr d
  done;
  w.cur <- !cur;
  w.next <- !next;
  w.stamp <- !stamp;
  w.vals <- !vals;
  (!nvals, sum_down !vals !nvals)

let traverse t ~root ~rel ~attr ~depth =
  try traverse_walk t ~root ~rel ~attr ~depth
  with Errors.Constraint_violation _ as e ->
    if in_txn t then rollback_current t;
    raise e

let type_of t id = (Store.get t.st id).Instance.type_name
let instance_ids t = Store.instance_ids t.st
let instances_of_type t type_name = Store.instances_of_type t.st type_name

let watch t id attr = Engine.watch t.eng id attr
let unwatch t id attr = Engine.unwatch t.eng id attr

(* ------------------------------------------------------------------ *)
(* Subtypes                                                            *)

let in_subtype t id sub_name =
  let def = Schema.subtype t.sch sub_name in
  let inst = Store.get t.st id in
  if not (String.equal inst.Instance.type_name def.Schema.parent) then
    Errors.type_error "instance %d is a %s, not a %s (parent of subtype %s)" id
      inst.Instance.type_name def.Schema.parent sub_name;
  Value.as_bool (get t id (Schema.membership_attr sub_name))

let subtype_members t sub_name =
  let def = Schema.subtype t.sch sub_name in
  instances_of_type t def.Schema.parent |> List.filter (fun id -> in_subtype t id sub_name)

(* ------------------------------------------------------------------ *)
(* Schema extension

   Schema changes are first-class transaction deltas: each entry point
   applies the mutation and logs a {!Txn.Schema} op in the enclosing
   (or an automatic) transaction, so undo/redo/checkout traverse schema
   versions in order with data deltas and an attached WAL persists
   them. *)

(* The name of a derived definition in [change] that carries no DDL
   expression source, if any — such a change cannot be encoded into the
   WAL (rules are closures at run time). *)
let serializability_gap (change : Txn.schema_change) =
  let derived_without_repr (def : Schema.attr_def) repr =
    match (def.Schema.kind, repr) with
    | Schema.Derived _, None -> Some def.Schema.attr_name
    | _ -> None
  in
  match change with
  | Txn.Schema_add_attr { type_name; def; repr } ->
    Option.map (fun a -> type_name ^ "." ^ a) (derived_without_repr def repr)
  | Txn.Schema_add_subtype { def; predicate_repr; attr_reprs } ->
    if predicate_repr = None then Some ("the predicate of subtype " ^ def.Schema.sub_name)
    else
      List.fold_left2
        (fun acc a repr ->
          match acc with
          | Some _ -> acc
          | None -> Option.map (fun n -> def.Schema.parent ^ "." ^ n) (derived_without_repr a repr))
        None def.Schema.extra_attrs attr_reprs
  | Txn.Schema_add_type _ | Txn.Schema_add_rel _ | Txn.Schema_add_export _ -> None

let run_schema_change t change =
  (* Fail fast when a durability hook is attached: the hook encodes this
     delta at commit, and Codec raising mid-hook on an opaque closure
     would be too late.  Without a hook (in-memory databases), opaque
     closures remain allowed. *)
  (match t.commit_hook with
  | None -> ()
  | Some _ -> (
    match serializability_gap change with
    | None -> ()
    | Some what ->
      Errors.type_error
        "cannot log schema change: %s has no serializable rule expression (declare it through \
         the DDL front end, or pass ~expr / ~predicate_expr / ~attr_exprs)"
        what));
  let change_name =
    match change with
    | Txn.Schema_add_type _ -> "add_type"
    | Txn.Schema_add_rel _ -> "add_rel"
    | Txn.Schema_add_export _ -> "add_export"
    | Txn.Schema_add_attr _ -> "add_attr"
    | Txn.Schema_add_subtype _ -> "add_subtype"
  in
  with_auto t (fun () ->
      apply_schema_change t change;
      log t (Txn.Schema { change; retract = false });
      Flight.record_s Flight.Schema_delta ~a:t.next_vid ~b:0 change_name;
      if Schema.strict t.sch then Schema.refresh t.sch)

let add_type t type_name = run_schema_change t (Txn.Schema_add_type { type_name })

let add_rel t ~type_name rel = run_schema_change t (Txn.Schema_add_rel { type_name; rel })

let add_export t ~type_name ~rel ~export ~attr =
  run_schema_change t (Txn.Schema_add_export { type_name; rel; export; attr })

let add_attr t ?expr ~type_name def =
  run_schema_change t (Txn.Schema_add_attr { type_name; def; repr = expr });
  (* A DDL-sourced rule carries its convergence shape into the schema's
     shape registry (pure metadata: not part of the logged delta). *)
  match (def.Schema.kind, expr) with
  | Schema.Derived _, Some src -> (
    match Schema.classify_rule_repr src with
    | Some shape -> Schema.declare_rule_shape t.sch ~type_name ~attr:def.Schema.attr_name shape
    | None -> ())
  | _ -> ()

let add_subtype t ?predicate_expr ?(attr_exprs = []) (def : Schema.subtype_def) =
  (* [attr_exprs] aligns positionally with [extra_attrs]; pad with None
     so partial annotation stays legal on in-memory databases. *)
  let rec pad reprs attrs =
    match (reprs, attrs) with
    | _, [] -> []
    | [], _ :: rest -> None :: pad [] rest
    | r :: rrest, _ :: arest -> r :: pad rrest arest
  in
  run_schema_change t
    (Txn.Schema_add_subtype
       { def; predicate_repr = predicate_expr; attr_reprs = pad attr_exprs def.Schema.extra_attrs })

let register_recovery t name action = Engine.register_recovery t.eng name action

(* ------------------------------------------------------------------ *)
(* Schema versions                                                     *)

let install_baseline_schema t ops =
  if t.head <> None || in_txn t then
    Errors.type_error "baseline schema deltas must be installed on a fresh database";
  (* Retractions are legal here: a database recovered from a log
     linearizes undo into forward deltas, so its path — and hence the
     schema section of a checkpoint taken from it — can carry
     add/retract pairs.  Replayed in order they reproduce the same
     schema state. *)
  List.iter
    (function
      | Txn.Schema { change; retract } ->
        if retract then retract_schema_change t change else apply_schema_change t change
      | op ->
        Errors.type_error "baseline schema delta contains a non-schema op: %s"
          (Format.asprintf "%a" Txn.pp_op op))
    ops;
  t.baseline_schema_ops <- t.baseline_schema_ops @ ops

let schema_ops_on_path t =
  let rec collect acc = function
    | None -> acc
    | Some n -> collect (List.filter Txn.is_schema_op n.delta.Txn.ops @ acc) n.parent
  in
  t.baseline_schema_ops @ collect [] t.head

let schema_step_count t = List.length (schema_ops_on_path t)

(* ------------------------------------------------------------------ *)
(* Undo / redo / versions                                              *)

let position t = match t.head with Some n -> n.depth | None -> 0

let delta_sizes t =
  let rec collect acc = function
    | None -> acc
    | Some n -> collect (Txn.size n.delta :: acc) n.parent
  in
  collect [] t.head

let history t =
  let rec collect acc = function
    | None -> acc
    | Some n -> collect ((n.vid, n.delta) :: acc) n.parent
  in
  collect [] t.head

(* Move one step toward the root. *)
let step_back t =
  match t.head with
  | None -> Errors.type_error "nothing to undo"
  | Some n ->
    apply_inverse_newest_first t (List.rev n.delta.Txn.ops);
    Engine.propagate t.eng;
    t.head <- n.parent;
    notify_hook t (Txn.inverse n.delta);
    n

(* Move forward onto a known child node. *)
let step_forward t (n : vnode) =
  List.iter (exec_forward_unlogged t) n.delta.Txn.ops;
  Engine.propagate t.eng;
  t.head <- Some n;
  notify_hook t n.delta

let undo_last t =
  if in_txn t then Errors.type_error "cannot undo while a transaction is open";
  let start_ns = Clock.now_ns () in
  let n = step_back t in
  t.redo_stack <- n :: t.redo_stack;
  Counters.incr (counters t) "undos";
  Ctx.span "undo" ~start_ns n.vid

let redo t =
  if in_txn t then Errors.type_error "cannot redo while a transaction is open";
  match t.redo_stack with
  | [] -> Errors.type_error "nothing to redo"
  | n :: rest ->
    let start_ns = Clock.now_ns () in
    step_forward t n;
    t.redo_stack <- rest;
    Counters.incr (counters t) "redos";
    Ctx.span "redo" ~start_ns n.vid

let tag t name = Hashtbl.replace t.tag_tbl name t.head

let tags t =
  Hashtbl.fold
    (fun name node acc -> (name, (match node with Some n -> n.depth | None -> 0)) :: acc)
    t.tag_tbl []
  |> List.sort compare

(* Checkout walks from head up to the lowest common ancestor, then down
   to the target along recorded parent pointers. *)
let checkout t name =
  if in_txn t then Errors.type_error "cannot checkout while a transaction is open";
  let start_ns = Clock.now_ns () in
  let target =
    match Hashtbl.find_opt t.tag_tbl name with
    | Some node -> node
    | None -> Errors.unknown "unknown version tag %s" name
  in
  (* Ancestors of the target (by vid), for LCA detection. *)
  let target_ancestors = Hashtbl.create 16 in
  let rec mark = function
    | None -> ()
    | Some n ->
      Hashtbl.replace target_ancestors n.vid n;
      mark n.parent
  in
  mark target;
  let is_target_ancestor = function
    | None -> true  (* the root is an ancestor of everything *)
    | Some n -> Hashtbl.mem target_ancestors n.vid
  in
  (* Phase 1: walk head back to the LCA. *)
  while not (is_target_ancestor t.head) do
    ignore (step_back t)
  done;
  (* Phase 2: path from the LCA down to the target. *)
  let lca_vid = match t.head with Some n -> Some n.vid | None -> None in
  let rec path acc = function
    | None -> acc
    | Some n -> if Some n.vid = lca_vid then acc else path (n :: acc) n.parent
  in
  List.iter (step_forward t) (path [] target);
  t.redo_stack <- [];
  Ctx.span "checkout" ~start_ns (match target with Some n -> n.vid | None -> 0)

(* ------------------------------------------------------------------ *)
(* Recovery replay                                                     *)

(* Re-apply one logged delta during crash recovery: ops run through the
   unlogged forward path (no open transaction, no hook — the log already
   holds this record) and the delta joins the version history so undo
   works across a restart.  Propagation is the caller's job once the
   whole log tail is replayed. *)
let replay_delta t (d : Txn.delta) =
  if in_txn t then Errors.type_error "cannot replay while a transaction is open";
  List.iter (exec_forward_unlogged t) d.Txn.ops;
  if d.Txn.ops <> [] then begin
    let depth = match t.head with Some n -> n.depth + 1 | None -> 1 in
    t.head <- Some { vid = t.next_vid; delta = d; parent = t.head; depth };
    t.next_vid <- t.next_vid + 1
  end

(* ------------------------------------------------------------------ *)
(* Storage management                                                  *)

let recluster ?strategy t =
  if in_txn t then Errors.type_error "cannot re-cluster inside a transaction";
  Store.recluster ?strategy t.st
