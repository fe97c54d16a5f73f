(* Workload generators for the experiment harness.  Every generator is
   deterministic (seeded Rng where randomness is involved) so the tables
   in EXPERIMENTS.md are reproducible. *)

module Value = Cactis.Value
module Schema = Cactis.Schema
module Rule = Cactis.Rule
module Db = Cactis.Db
module Engine = Cactis.Engine
module Sched = Cactis.Sched
module Rng = Cactis_util.Rng

let int n = Value.Int n

(* The standard node class: intrinsic [local]; derived
   [total] = local + sum over deps' totals. *)
let node_schema () =
  let sch = Schema.create () in
  Schema.add_type sch "node";
  Schema.declare_relationship sch ~from_type:"node" ~rel:"deps" ~to_type:"node" ~inverse:"rdeps"
    ~card:Schema.Multi ~inverse_card:Schema.Multi;
  Schema.add_attr sch ~type_name:"node" (Rule.intrinsic "local" (int 1));
  Schema.add_attr sch ~type_name:"node"
    (Rule.derived "total"
       (Rule.combine_self_rel "local" "deps" "total" ~f:(fun own totals ->
            Value.add own (Value.sum totals))));
  sch

let make_db ?strategy ?sched ?block_capacity ?buffer_capacity () =
  Db.create ?strategy ?sched ?block_capacity ?buffer_capacity (node_schema ())

(* Chain: node i depends on node i+1; returns ids head..tail. *)
let chain db n =
  let ids = Array.init n (fun _ -> Db.create_instance db "node") in
  for i = 0 to n - 2 do
    Db.link db ~from_id:ids.(i) ~rel:"deps" ~to_id:ids.(i + 1)
  done;
  ids

(* A chain with its head's [total] watched and evaluated once. *)
let watched_chain ?strategy n =
  let db = make_db ?strategy () in
  let ids = chain db n in
  Db.watch db ids.(0) "total";
  ignore (Db.get db ids.(0) "total");
  (db, ids)

(* Diamond ladder of depth d: t_i depends on m1_i and m2_i, both of which
   depend on t_{i+1}.  A naive eager trigger fires the subtree below each
   diamond twice -> 2^d rule executions; the two-phase algorithm touches
   each attribute once.  Returns (top, bottom). *)
let diamond_ladder db d =
  let bottom = Db.create_instance db "node" in
  let rec build depth lower =
    if depth = 0 then lower
    else begin
      let m1 = Db.create_instance db "node" in
      let m2 = Db.create_instance db "node" in
      let top = Db.create_instance db "node" in
      Db.link db ~from_id:m1 ~rel:"deps" ~to_id:lower;
      Db.link db ~from_id:m2 ~rel:"deps" ~to_id:lower;
      Db.link db ~from_id:top ~rel:"deps" ~to_id:m1;
      Db.link db ~from_id:top ~rel:"deps" ~to_id:m2;
      build (depth - 1) top
    end
  in
  let top = build d bottom in
  (top, bottom)

(* A diamond ladder with [top]'s total watched and evaluated, then
   evaluated again under [strategy].  Returns (db, top, bottom). *)
let watched_ladder strategy d =
  let db = make_db () in
  let top, bottom = diamond_ladder db d in
  Db.watch db top "total";
  ignore (Db.get db top "total");
  Engine.set_strategy (Db.engine db) strategy;
  ignore (Db.get db top "total");
  (db, top, bottom)

(* Star: [fan] nodes each depending on one hub.  A hub change affects
   every point; laziness means only watched points are re-evaluated. *)
let star db fan =
  let hub = Db.create_instance db "node" in
  let points = Array.init fan (fun _ -> Db.create_instance db "node") in
  Array.iter (fun p -> Db.link db ~from_id:p ~rel:"deps" ~to_id:hub) points;
  (hub, points)

(* Random DAG over n nodes: node i may depend on up to [max_deps] nodes
   with larger index (no cycles).  Returns the id array. *)
let random_dag db rng n ~max_deps =
  let ids = Array.init n (fun _ -> Db.create_instance db "node") in
  for i = 0 to n - 2 do
    let deps = Rng.int rng (max_deps + 1) in
    for _ = 1 to deps do
      let j = Rng.int_in rng (i + 1) (n - 1) in
      if not (List.mem ids.(j) (Db.related db ids.(i) "deps")) then
        Db.link db ~from_id:ids.(i) ~rel:"deps" ~to_id:ids.(j)
    done
  done;
  ids

(* K separate chains of length L, plus one root depending on every
   chain's head.  Chains are created contiguously so each lives in its
   own range of blocks: a breadth-first (FIFO) evaluation order cycles
   across all K block ranges, while the greedy scheduler drains
   same-block work first. *)
let comb db ~chains ~length =
  let heads =
    Array.init chains (fun _ ->
        let ids = chain db length in
        ids.(0))
  in
  let root = Db.create_instance db "node" in
  Array.iter (fun h -> Db.link db ~from_id:root ~rel:"deps" ~to_id:h) heads;
  root

(* Inverted comb: K chains whose tails all depend on one shared node, so
   a single change to the shared node's intrinsic marks out-of-date
   attributes up every chain in one traversal.  Exercises the marking
   phase's scheduling (binary worst-case costs, where block promotion is
   the discriminating mechanism).  Returns (shared, chain heads). *)
let inverted_comb db ~chains ~length =
  let shared = Db.create_instance db "node" in
  let heads =
    Array.init chains (fun _ ->
        let ids = chain db length in
        Db.link db ~from_id:ids.(length - 1) ~rel:"deps" ~to_id:shared;
        ids.(0))
  in
  (shared, heads)

(* ------------------------------------------------------------------ *)
(* Plan-edit workload (E13, E18): the paper's milestone manager under a
   stream of slips and dashboard queries.                              *)

module M = Cactis_apps.Milestone

type plan = { m : M.t; rng : Rng.t; ship : int; milestones : int array }

(* Layered DAG of [layers] x [width] milestones under one "ship"
   milestone that depends on the whole first layer; each node of a
   layer depends on 1-2 nodes of the layer below it.  The ship date is
   evaluated once, so the edits start from an up-to-date plan. *)
let plan ~strategy ~layers ~width =
  let m = M.create ~strategy () in
  let rng = Rng.create 17 in
  let prev = ref [] in
  let ship = M.add m ~name:"ship" ~scheduled:(float_of_int (10 * layers)) ~local_work:1.0 in
  for l = 1 to layers do
    let layer =
      List.init width (fun i ->
          M.add m
            ~name:(Printf.sprintf "t%d_%d" l i)
            ~scheduled:(float_of_int (10 * (layers - l)))
            ~local_work:(1.0 +. Rng.float rng 3.0))
    in
    (match !prev with
    | [] -> List.iter (fun id -> M.depends_on m ship id) layer
    | above ->
      List.iter
        (fun upper ->
          let deps = 1 + Rng.int rng 2 in
          for _ = 1 to deps do
            let lower = Rng.pick_list rng layer in
            if not (List.mem lower (Db.related (M.db m) upper "depends_on")) then
              M.depends_on m upper lower
          done)
        above);
    prev := layer
  done;
  ignore (M.expected m ship);
  { m; rng; ship; milestones = Array.of_list (Db.instances_of_type (M.db m) "milestone") }

let plan_victim p = p.milestones.(Rng.int p.rng (Array.length p.milestones))

(* [rounds] edit rounds: a slip somewhere in the plan, the dashboard
   polling the ship date, and every tenth round the full report. *)
let plan_edits p ~rounds =
  for round = 1 to rounds do
    let victim = plan_victim p in
    M.slip p.m victim (Rng.float p.rng 2.0);
    ignore (M.expected p.m p.ship);
    ignore (M.is_late p.m p.ship);
    if round mod 10 = 0 then ignore (M.report p.m)
  done

(* ------------------------------------------------------------------ *)
(* Persistence workloads (E14)                                         *)

(* Document class with mixed-type intrinsics (strings, ints, floats) so
   the snapshot codecs face realistic payloads, plus a derived summary
   attribute proving snapshots stay intrinsics-only. *)
let doc_schema () =
  let sch = Schema.create () in
  Schema.add_type sch "doc";
  Schema.declare_relationship sch ~from_type:"doc" ~rel:"refs" ~to_type:"doc" ~inverse:"cited_by"
    ~card:Schema.Multi ~inverse_card:Schema.Multi;
  Schema.add_attr sch ~type_name:"doc" (Rule.intrinsic "name" (Value.Str ""));
  Schema.add_attr sch ~type_name:"doc" (Rule.intrinsic "body" (Value.Str ""));
  Schema.add_attr sch ~type_name:"doc" (Rule.intrinsic "size" (int 0));
  Schema.add_attr sch ~type_name:"doc" (Rule.intrinsic "weight" (Value.Float 0.0));
  Schema.add_attr sch ~type_name:"doc"
    (Rule.derived "cited_weight" (Rule.sum_rel "cited_by" "size"));
  sch

let make_doc_db () = Db.create (doc_schema ())

(* Module-sized text payloads (the paper's documents are source modules,
   not one-liners); mixed printable chars including quotes/backslashes so
   the text codec pays its real escaping cost. *)
let random_body rng =
  String.init (256 + Rng.int rng 512) (fun _ -> Char.chr (32 + Rng.int rng 95))

(* Populate [n] documents (batched transactions) with a chain plus a
   random extra reference per ~2 docs; returns the id array. *)
let docs db ~n ~rng =
  let ids = Array.make n 0 in
  let i = ref 0 in
  while !i < n do
    Db.begin_txn db;
    let stop = min n (!i + 500) in
    while !i < stop do
      let id = Db.create_instance db "doc" in
      Db.set db id "name" (Value.Str (Printf.sprintf "doc-%06d" !i));
      Db.set db id "body" (Value.Str (random_body rng));
      Db.set db id "size" (int (Rng.int rng 100_000));
      Db.set db id "weight" (Value.Float (Rng.float rng 1.0));
      ids.(!i) <- id;
      incr i
    done;
    Db.commit db
  done;
  let j = ref 1 in
  while !j < n do
    Db.begin_txn db;
    let stop = min n (!j + 500) in
    while !j < stop do
      Db.link db ~from_id:ids.(!j) ~rel:"refs" ~to_id:ids.(!j - 1);
      if Rng.chance rng 0.5 then begin
        let other = Rng.int rng !j in
        if other <> !j - 1 then Db.link db ~from_id:ids.(!j) ~rel:"refs" ~to_id:ids.(other)
      end;
      incr j
    done;
    Db.commit db
  done;
  ids

(* One editing transaction touching [ops] random documents. *)
let doc_edit_txn db ids ~ops ~rng =
  Db.with_txn db (fun () ->
      for _ = 1 to ops do
        let id = ids.(Rng.int rng (Array.length ids)) in
        match Rng.int rng 3 with
        | 0 -> Db.set db id "size" (int (Rng.int rng 100_000))
        | 1 -> Db.set db id "weight" (Value.Float (Rng.float rng 1.0))
        | _ -> Db.set db id "body" (Value.Str (random_body rng))
      done)

(* ------------------------------------------------------------------ *)
(* OCB-style synthetic workload (E16)

   After Darmont, Petit & Schneider's Object Clustering Benchmark: a
   random object base whose objects carry a payload and reference a few
   other objects, exercised by stochastic depth-first traversals from
   Zipf-distributed roots.  Traversals build genuine usage locality (hot
   paths through an otherwise scattered graph), which is exactly what
   the clustering strategies compete on.  All randomness is seeded, so
   replaying a trace after re-clustering traverses the same edges. *)

(* Objects are all intrinsic (payload only): OCB graphs are arbitrary
   digraphs, and derived attributes over a cyclic reference graph would
   trip the evaluator's cycle check. *)
let ocb_schema () =
  let sch = Schema.create () in
  Schema.add_type sch "obj";
  Schema.declare_relationship sch ~from_type:"obj" ~rel:"refs" ~to_type:"obj" ~inverse:"rrefs"
    ~card:Schema.Multi ~inverse_card:Schema.Multi;
  Schema.add_attr sch ~type_name:"obj" (Rule.intrinsic "payload" (int 0));
  sch

let make_ocb_db ?block_capacity ?buffer_capacity ?disk_path ?disk_block_bytes () =
  Db.create ?block_capacity ?buffer_capacity ?disk_path ?disk_block_bytes (ocb_schema ())

(* Populate [objects] instances, each referencing [fanout] distinct
   others (self-references skipped).  Per OCB's reference-locality
   model, references mostly stay inside the object's {e module} — a
   random group of [module_size] objects (membership is a shuffled
   permutation, so modules are invisible to the sequential id-order
   layout) — with a [1 - locality] chance of escaping to a uniformly
   random object.  Batched transactions keep the version-history deltas
   reasonably sized. *)
let ocb_populate ?(module_size = 64) ?(locality = 0.9) db rng ~objects ~fanout =
  let ids = Array.make objects 0 in
  let i = ref 0 in
  while !i < objects do
    Db.begin_txn db;
    let stop = min objects (!i + 500) in
    while !i < stop do
      let id = Db.create_instance db "obj" in
      Db.set db id "payload" (int !i);
      ids.(!i) <- id;
      incr i
    done;
    Db.commit db
  done;
  (* module_of.(j) = position of object j in a shuffled permutation;
     objects sharing position / module_size are module-mates. *)
  let perm = Array.init objects (fun k -> k) in
  Rng.shuffle rng perm;
  let inv = Array.make objects 0 in
  Array.iteri (fun pos k -> inv.(k) <- pos) perm;
  let pick_target j =
    if Rng.chance rng locality then begin
      let base = inv.(j) / module_size * module_size in
      let span = min module_size (objects - base) in
      perm.(base + Rng.int rng span)
    end
    else Rng.int rng objects
  in
  let j = ref 0 in
  while !j < objects do
    Db.begin_txn db;
    let stop = min objects (!j + 500) in
    while !j < stop do
      for _ = 1 to fanout do
        let other = pick_target !j in
        if
          other <> !j
          && not (List.mem ids.(other) (Db.related db ids.(!j) "refs"))
        then Db.link db ~from_id:ids.(!j) ~rel:"refs" ~to_id:ids.(other)
      done;
      incr j
    done;
    Db.commit db
  done;
  ids

(* One hierarchy traversal (OCB's deterministic depth-first): read the
   payload, then recurse into {e all} of the object's references,
   [depth] levels deep.  A given root always touches the same subgraph,
   so repeated traversals of hot roots build exactly the usage locality
   a clustering strategy can exploit. *)
let rec ocb_descend db id ~depth =
  ignore (Db.get db id "payload");
  if depth > 0 then
    List.iter (fun r -> ocb_descend db r ~depth:(depth - 1)) (Db.related db id "refs")

(* [ocb_traversals db rng ids ~rounds ~depth] runs [rounds] hierarchy
   traversals whose roots are Zipf-distributed over the object base — a
   hot head of popular roots and a long cold tail, per OCB. *)
let ocb_traversals db rng ids ~rounds ~depth =
  let n = Array.length ids in
  for _ = 1 to rounds do
    ocb_descend db ids.(Rng.zipf rng n 1.1) ~depth
  done

(* Commit-heavy edit workload over the object base: [txns] transactions
   of [ops] payload updates each, targets Zipf-skewed.  Used to measure
   commit-latency disruption from incremental re-clustering
   maintenance. *)
let ocb_edit_txns db rng ids ~txns ~ops =
  let n = Array.length ids in
  for v = 1 to txns do
    Db.with_txn db (fun () ->
        for _ = 1 to ops do
          Db.set db ids.(Rng.zipf rng n 0.9) "payload" (int v)
        done)
  done

(* Community graph for the clustering experiment: [communities] groups of
   [size] members; each member's [total] depends on the next member in
   its community (ring), so evaluating one community touches all its
   members.  Instances are created in an interleaved order, so the
   initial sequential layout scatters every community across blocks; the
   usage-driven re-clustering should regroup them.  Returns the array of
   communities (each an id array). *)
let community_graph ?shuffle db ~communities ~size =
  (* Interleaved creation: community c gets every c-th instance, so a
     sequential (creation-order) layout scatters every community.  With
     [shuffle], membership is a random permutation instead, so no
     modular placement can accidentally align with it. *)
  let all = Array.init (communities * size) (fun _ -> Db.create_instance db "node") in
  (match shuffle with Some rng -> Rng.shuffle rng all | None -> ());
  let groups =
    Array.init communities (fun c -> Array.init size (fun k -> all.((k * communities) + c)))
  in
  Array.iter
    (fun group ->
      let n = Array.length group in
      for k = 0 to n - 1 do
        if k < n - 1 then Db.link db ~from_id:group.(k) ~rel:"deps" ~to_id:group.(k + 1)
      done)
    groups;
  groups
