module Pager = Cactis_storage.Pager
module Usage = Cactis_storage.Usage
module Cluster = Cactis_storage.Cluster
module Counters = Cactis_util.Counters
module Decaying_avg = Cactis_util.Decaying_avg
module Symbol = Cactis_util.Symbol
module Itbl = Cactis_util.Itbl

type t = {
  schema : Schema.t;
  (* Dense instance table indexed by id (ids are allocated densely and
     never reused, as [Pager]'s placement array already assumes).  Each
     live entry holds the [Some] cell allocated once at creation, so
     [get_opt] is a bounds check plus a load and allocates nothing. *)
  mutable instances : Instance.t option array;
  mutable live : int;
  mutable next_id : int;
  mutable ids_cache : int list option;  (* ascending live ids, invalidated on create/delete *)
  pager : Pager.t;
  usage : Usage.t;
  counters : Counters.t;
  obs : Cactis_obs.Ctx.t;
  c_touches : int ref;
  c_misses : int ref;
  c_slot_writes : int ref;
  c_links : int ref;
  (* Per-link cost tags, created lazily: packed (id, rel symbol) ->
     index into [tags]. *)
  link_tags : Itbl.t;
  mutable tags : Decaying_avg.t array;
  (* Incremental re-clustering plan: (id, target block) moves not yet
     applied.  [plan_pos] is the cursor; the plan is drained by
     {!recluster_step}. *)
  mutable plan : (int * int) array;
  mutable plan_pos : int;
  mutable write_observers : (int -> string -> Value.t -> unit) list;
  mutable create_observers : (int -> unit) list;
  mutable delete_observers : (int -> unit) list;
  mutable mark_observers : (int -> string -> unit) list;
}

let create ?block_capacity ?buffer_capacity ?disk_path ?disk_block_bytes schema =
  let counters = Counters.create () in
  {
    schema;
    instances = Array.make 256 None;
    live = 0;
    next_id = 1;
    ids_cache = Some [];
    pager = Pager.create ?block_capacity ?buffer_capacity ?disk_path ?disk_block_bytes ();
    usage = Usage.create ();
    counters;
    obs = Cactis_obs.Ctx.create ();
    c_touches = Counters.cell counters "instance_touches";
    c_misses = Counters.cell counters "block_misses";
    c_slot_writes = Counters.cell counters "slot_writes";
    c_links = Counters.cell counters "links_established";
    link_tags = Itbl.create 256;
    tags = [||];
    plan = [||];
    plan_pos = 0;
    write_observers = [];
    create_observers = [];
    delete_observers = [];
    mark_observers = [];
  }

let subscribe_write t f = t.write_observers <- f :: t.write_observers
let subscribe_create t f = t.create_observers <- f :: t.create_observers
let subscribe_delete t f = t.delete_observers <- f :: t.delete_observers
let subscribe_mark t f = t.mark_observers <- f :: t.mark_observers
(* The closures are built only when someone listens: the engine calls
   these once per mark visit and per evaluation. *)
let notify_mark t id attr =
  match t.mark_observers with [] -> () | fs -> List.iter (fun f -> f id attr) fs

let notify_write t id attr v =
  match t.write_observers with [] -> () | fs -> List.iter (fun f -> f id attr v) fs

let schema t = t.schema
let pager t = t.pager
let usage t = t.usage
let counters t = t.counters
let obs t = t.obs

let link_tag_sym t id rel_sym =
  let key = Symbol.pack id rel_sym in
  let i = Itbl.find t.link_tags key ~default:(-1) in
  if i >= 0 then t.tags.(i)
  else begin
    (* Worst-case initial estimate: one block per crossing. *)
    let tag = Decaying_avg.create ~initial:1.0 () in
    let i = Itbl.length t.link_tags in
    if i = Array.length t.tags then begin
      let bigger = Array.make (max 64 (2 * i)) tag in
      Array.blit t.tags 0 bigger 0 i;
      t.tags <- bigger
    end;
    t.tags.(i) <- tag;
    Itbl.replace t.link_tags key i;
    tag
  end

let link_tag t id rel = link_tag_sym t id (Symbol.intern rel)

let get_opt t id =
  if id < 0 || id >= Array.length t.instances then None
  else
    match t.instances.(id) with
    | Some inst as found when inst.Instance.alive -> found
    | Some _ | None -> None

let get t id =
  match get_opt t id with
  | Some inst -> inst
  | None -> Errors.unknown "no live instance %d" id

let mem t id = get_opt t id <> None

let install t id inst =
  let n = Array.length t.instances in
  if id >= n then begin
    let bigger = Array.make (max (id + 1) (2 * n)) None in
    Array.blit t.instances 0 bigger 0 n;
    t.instances <- bigger
  end;
  t.instances.(id) <- Some inst;
  t.live <- t.live + 1;
  t.ids_cache <- None

let create_instance t type_name =
  let layout = Schema.layout t.schema type_name in
  let id = t.next_id in
  t.next_id <- id + 1;
  let inst = Instance.create ~id ~layout in
  install t id inst;
  Pager.register t.pager id;
  Counters.incr t.counters "instances_created";
  List.iter (fun f -> f id) t.create_observers;
  inst

let next_id t = t.next_id
let reserve_ids t n = if n > t.next_id then t.next_id <- n

let recreate_instance t ~id type_name =
  if mem t id then Errors.type_error "instance %d already live" id;
  let layout = Schema.layout t.schema type_name in
  let inst = Instance.create ~id ~layout in
  install t id inst;
  Pager.register t.pager id;
  if id >= t.next_id then t.next_id <- id + 1;
  List.iter (fun f -> f id) t.create_observers;
  inst

let delete_instance t id =
  let inst = get t id in
  if Instance.all_links inst <> [] then
    Errors.type_error "instance %d still has links; break them before deleting" id;
  List.iter (fun f -> f id) t.delete_observers;
  inst.Instance.alive <- false;
  t.instances.(id) <- None;
  t.live <- t.live - 1;
  t.ids_cache <- None;
  Pager.forget t.pager id;
  Usage.forget_instance t.usage id;
  Counters.incr t.counters "instances_deleted"

(* Live ids satisfying [keep], ascending: a walk down the dense table. *)
let ids_where t keep =
  let acc = ref [] in
  for id = Array.length t.instances - 1 downto 0 do
    match t.instances.(id) with Some inst when keep inst -> acc := id :: !acc | Some _ | None -> ()
  done;
  !acc

let instance_ids t =
  match t.ids_cache with
  | Some ids -> ids
  | None ->
    let ids = ids_where t (fun _ -> true) in
    t.ids_cache <- Some ids;
    ids

let instance_count t = t.live

let instances_of_type t type_name =
  ids_where t (fun (inst : Instance.t) -> String.equal inst.Instance.type_name type_name)

let touch t id =
  Usage.touch_instance t.usage id;
  incr t.c_touches;
  match Pager.touch t.pager id with
  | `Hit -> ()
  | `Miss -> incr t.c_misses

let resident t id = Pager.resident t.pager id

let link t ~from_id ~rel ~to_id =
  let a = get t from_id and b = get t to_id in
  match Instance.find_link a rel with
  | None -> Errors.unknown "type %s has no relationship %s" a.Instance.type_name rel
  | Some ix ->
    let li = a.Instance.layout.Schema.lay_links.(ix) in
    let rd = li.Schema.li_def in
    if not (String.equal b.Instance.type_name rd.Schema.target) then
      Errors.type_error "relationship %s.%s targets %s, not %s" a.Instance.type_name rel
        rd.Schema.target b.Instance.type_name;
    let inv_ix = li.Schema.li_inverse_ix in
    if inv_ix < 0 then
      Errors.unknown "type %s has no relationship %s" b.Instance.type_name rd.Schema.inverse;
    if rd.Schema.card = Schema.One && Instance.link_count_ix a ix > 0 then
      Errors.cardinality "instance %d: relationship %s already occupied" from_id rel;
    let ird = b.Instance.layout.Schema.lay_links.(inv_ix).Schema.li_def in
    if ird.Schema.card = Schema.One && Instance.link_count_ix b inv_ix > 0 then
      Errors.cardinality "instance %d: relationship %s already occupied" to_id rd.Schema.inverse;
    touch t from_id;
    touch t to_id;
    Instance.add_link_ix a ix to_id;
    Instance.add_link_ix b inv_ix from_id;
    Counters.incr t.counters "links_established"

let unlink t ~from_id ~rel ~to_id =
  let a = get t from_id and b = get t to_id in
  match Instance.find_link a rel with
  | None -> Errors.unknown "type %s has no relationship %s" a.Instance.type_name rel
  | Some ix ->
    let li = a.Instance.layout.Schema.lay_links.(ix) in
    touch t from_id;
    touch t to_id;
    let removed = Instance.remove_link_ix a ix to_id in
    if removed then begin
      if li.Schema.li_inverse_ix >= 0 then
        ignore (Instance.remove_link_ix b li.Schema.li_inverse_ix from_id);
      Counters.incr t.counters "links_broken"
    end;
    removed

let linked t id rel =
  let inst = get t id in
  touch t id;
  match Instance.find_link inst rel with
  | Some ix ->
    (* Listing a relationship traverses it: record one crossing per
       related instance (§2.3's self-adaptive statistics), so plain
       structural traversals — not just dependency propagation — feed
       the clustering strategies.  Each count sits on the link it
       crosses. *)
    let l = Instance.links_ix inst ix in
    for j = 0 to l.Instance.n - 1 do
      Instance.cross l j
    done;
    Instance.linked_ix inst ix
  | None -> Errors.unknown "type %s has no relationship %s" inst.Instance.type_name rel

let read_slot t id attr =
  let inst = get t id in
  touch t id;
  Instance.slot inst attr

let write_value t id attr v =
  let s = read_slot t id attr in
  s.Instance.value <- v;
  s.Instance.state <- Instance.Up_to_date;
  Counters.incr t.counters "slot_writes";
  notify_write t id attr v

(* Bulk-load write used by the binary snapshot loader: the slot index is
   already resolved against the instance's layout, and the pager/usage
   charge is skipped — a snapshot load streams every instance exactly
   once, so per-slot residency accounting would only measure the loader
   itself. *)
let load_value_ix t (inst : Instance.t) ix v =
  let s = Instance.slot_ix inst ix in
  s.Instance.value <- v;
  s.Instance.state <- Instance.Up_to_date;
  incr t.c_slot_writes;
  if t.write_observers <> [] then
    notify_write t inst.Instance.id inst.Instance.layout.Schema.lay_slots.(ix).Schema.si_name v

(* Bulk-load link used by the binary snapshot loader: the caller has
   resolved the link slot against [a]'s layout and checked that [b]'s
   type matches the declared target, so only the cardinality invariants
   remain; like [load_value_ix] it skips the pager/usage charge. *)
let load_link_ix t (a : Instance.t) ix (b : Instance.t) =
  let li = a.Instance.layout.Schema.lay_links.(ix) in
  let rd = li.Schema.li_def in
  let inv_ix = li.Schema.li_inverse_ix in
  if inv_ix < 0 then
    Errors.unknown "type %s has no relationship %s" rd.Schema.target rd.Schema.inverse;
  if rd.Schema.card = Schema.One && Instance.link_count_ix a ix > 0 then
    Errors.cardinality "instance %d: relationship %s already occupied" a.Instance.id
      li.Schema.li_name;
  let ird = b.Instance.layout.Schema.lay_links.(inv_ix).Schema.li_def in
  if ird.Schema.card = Schema.One && Instance.link_count_ix b inv_ix > 0 then
    Errors.cardinality "instance %d: relationship %s already occupied" b.Instance.id
      rd.Schema.inverse;
  Instance.add_link_ix a ix b.Instance.id;
  Instance.add_link_ix b inv_ix a.Instance.id;
  incr t.c_links

(* ---- Crossing counts, read off the links ---- *)

type crossing = {
  from_instance : int;
  rel : string;
  to_instance : int;
}

(* A link is crossed from either end: [a -rel-> b] counts on [a]'s
   [rel] vector and on [b]'s inverse vector, and its usage count is the
   sum of the two (§2.3's "total usage count for the relationship").
   [inverse_end t a ix li b] is [b]'s end of the link from [a]'s link
   vector [ix] (described by [li]), if [b] is of the link's target
   type; a self-loop of a relationship that is its own inverse has one
   end. *)
let inverse_end t a ix (li : Schema.link_info) b =
  match get_opt t b with
  | Some binst
    when li.Schema.li_inverse_ix >= 0
         && String.equal binst.Instance.type_name li.Schema.li_def.Schema.target
         && not (a = b && li.Schema.li_inverse_ix = ix) ->
    Some (Instance.links_ix binst li.Schema.li_inverse_ix)
  | Some _ | None -> None

let link_count t (ainst : Instance.t) ix b =
  let a = ainst.Instance.id in
  let here = Instance.uses_to (Instance.links_ix ainst ix) b in
  match inverse_end t a ix ainst.Instance.layout.Schema.lay_links.(ix) b with
  | Some l -> here + Instance.uses_to l a
  | None -> here

let crossing_count t ~from_instance:a ~rel ~to_instance:b =
  match get_opt t a with
  | None -> 0
  | Some ainst -> (
    match Instance.find_link ainst rel with Some ix -> link_count t ainst ix b | None -> 0)

(* [f from link_info to count] for every link end crossed at least once. *)
let iter_uses t f =
  Array.iter
    (function
      | None -> ()
      | Some (inst : Instance.t) ->
        let lay = inst.Instance.layout.Schema.lay_links in
        Array.iteri
          (fun ix (l : Instance.links) ->
            for j = 0 to min l.Instance.n (Array.length l.Instance.uses) - 1 do
              let c = l.Instance.uses.(j) in
              if c > 0 then f inst.Instance.id lay.(ix) l.Instance.ids.(j) c
            done)
          inst.Instance.links)
    t.instances

let add_count tbl key c = Hashtbl.replace tbl key (c + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* A link is named from its lower id's side; a self-loop by the smaller
   of its two names. *)
let crossings t =
  let tbl = Hashtbl.create 64 in
  iter_uses t (fun a (li : Schema.link_info) b c ->
      let name = li.Schema.li_name and inverse = li.Schema.li_def.Schema.inverse in
      let key =
        if a < b then (a, name, b) else if a > b then (b, inverse, a) else (a, min name inverse, a)
      in
      add_count tbl key c);
  Hashtbl.fold
    (fun (lo, rel, hi) c acc -> ({ from_instance = lo; rel; to_instance = hi }, c) :: acc)
    tbl []

let rel_totals t =
  let totals = Hashtbl.create 16 in
  iter_uses t (fun _ (li : Schema.link_info) _ c -> add_count totals li.Schema.li_name c);
  Hashtbl.fold (fun rel c acc -> (rel, c) :: acc) totals []
  |> List.sort (fun (a, ca) (b, cb) -> match compare cb ca with 0 -> compare a b | c -> c)

(* Usage statistics snapshot for the clustering strategies: every live
   instance with its access count, and every structural link with its
   accumulated crossing count (0 for never-traversed links) — the greedy
   inner loop can then pull cold neighbours into a hot block before
   opening a new one. *)
let usage_snapshot t =
  let instances =
    instance_ids t |> List.map (fun id -> (id, Usage.instance_count t.usage id))
  in
  let links =
    instance_ids t
    |> List.concat_map (fun id ->
           let inst = get t id in
           Instance.all_links inst
           |> List.concat_map (fun (rel, ids) ->
                  List.filter_map
                    (fun other ->
                      if id < other then
                        Some
                          {
                            Cluster.a = id;
                            b = other;
                            rel;
                            count = crossing_count t ~from_instance:id ~rel ~to_instance:other;
                          }
                      else None)
                    ids))
  in
  (instances, links)

(* Cluster time refreshes the worst-case statistics used as initial
   estimates for the decaying averages (§2.3): a link whose two ends now
   share a block costs 0 extra blocks in the worst case, 1 otherwise. *)
let reseed_link_tags t =
  Itbl.iter
    (fun key i ->
      let tag = t.tags.(i) in
      let id = Symbol.pack_id key in
      let rel = Symbol.name (Symbol.pack_sym key) in
      match get_opt t id with
      | None -> ()
      | Some inst ->
        let same_block other =
          Pager.block t.pager id >= 0
          && Pager.block t.pager id = Pager.block t.pager other
        in
        let neighbours = Instance.linked inst rel in
        let worst =
          List.fold_left (fun acc o -> if same_block o then acc else acc +. 1.0) 0.0 neighbours
        in
        Decaying_avg.reset tag ~initial:worst)
    t.link_tags

let pack_current t strategy =
  let instances, links = usage_snapshot t in
  Cluster.pack_with strategy ~block_capacity:(Pager.block_capacity t.pager) ~instances ~links

let recluster ?(strategy = Cluster.Greedy) t =
  let assignment = pack_current t strategy in
  Pager.apply_clustering t.pager assignment;
  (* A wholesale reorganization supersedes any in-flight migration. *)
  t.plan <- [||];
  t.plan_pos <- 0;
  reseed_link_tags t;
  Counters.incr t.counters "reclusterings";
  assignment.Cluster.block_count

(* Incremental re-clustering: compute the target placement now, move a
   bounded number of instances per {!recluster_step}.  Target blocks are
   laid out in a fresh region past the current maximum block (copying
   style), so half-migrated states never overfill a block: plan moves
   are the only writers of target blocks, and new instances keep
   appending to the old region until the plan completes. *)
let begin_recluster ?(strategy = Cluster.Greedy) t =
  let assignment = pack_current t strategy in
  let base =
    1
    + List.fold_left
        (fun acc id -> max acc (Pager.block t.pager id))
        (-1) (instance_ids t)
  in
  let moves =
    Hashtbl.fold (fun id block acc -> (id, base + block) :: acc) assignment.Cluster.block_of []
    (* Fill one target block at a time: moves sorted by destination keep
       the dirty working set of a step small and deterministic. *)
    |> List.sort (fun (id1, b1) (id2, b2) ->
           match compare b1 b2 with 0 -> compare id1 id2 | c -> c)
  in
  t.plan <- Array.of_list moves;
  t.plan_pos <- 0;
  (* Reserve the whole target region up front: appends while the
     migration is in flight land beyond it, so plan moves stay the only
     writers of target blocks and their capacity bound holds even when
     instances are created mid-migration. *)
  if moves <> [] then Pager.advance_tail t.pager (base + assignment.Cluster.block_count);
  Array.length t.plan

let pending_moves t = Array.length t.plan - t.plan_pos

let recluster_step t ~max_moves =
  if max_moves < 1 then invalid_arg "Store.recluster_step: max_moves must be >= 1";
  let remaining = pending_moves t in
  if remaining = 0 then 0
  else begin
    let n = min max_moves remaining in
    let max_target = ref (-1) in
    for i = t.plan_pos to t.plan_pos + n - 1 do
      let id, block = t.plan.(i) in
      (* Instances deleted since the plan was computed are skipped;
         relocate is a no-op for unplaced ids. *)
      Pager.relocate t.pager id ~block;
      if block > !max_target then max_target := block
    done;
    t.plan_pos <- t.plan_pos + n;
    Counters.add t.counters "recluster_moves" n;
    Counters.incr t.counters "recluster_steps";
    if pending_moves t = 0 then begin
      (* Migration complete: future appends join the migrated region,
         and the link cost tags are reseeded exactly as after a full
         re-clustering. *)
      Pager.advance_tail t.pager (!max_target + 1);
      t.plan <- [||];
      t.plan_pos <- 0;
      reseed_link_tags t;
      Counters.incr t.counters "reclusterings"
    end;
    n
  end
