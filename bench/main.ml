(* Experiment harness: one section per figure/claim of the paper (see
   DESIGN.md §4 and EXPERIMENTS.md).  All measurements are event counts
   from deterministic workloads; a short Bechamel wall-clock section
   closes the run.

   Run with: dune exec bench/main.exe            (full)
             dune exec bench/main.exe -- --fast  (smaller sizes)
             dune exec bench/main.exe -- E2 E5   (selected experiments) *)

module Value = Cactis.Value
module Db = Cactis.Db
module Engine = Cactis.Engine
module Sched = Cactis.Sched
module Schema = Cactis.Schema
module Rule = Cactis.Rule
module Store = Cactis.Store
module Errors = Cactis.Errors
module Snapshot = Cactis.Snapshot
module Persist = Cactis.Persist
module Rng = Cactis_util.Rng
module W = Workloads
module R = Report

let fast = ref false

let int n = Value.Int n

let scale l = if !fast then List.filteri (fun i _ -> i < 2) l else l

(* ================================================================== *)
(* F1: Figure 1 — milestone class through the DDL                      *)

let f1 () =
  let m = Cactis_apps.Milestone.create () in
  let module M = Cactis_apps.Milestone in
  let design = M.add m ~name:"design" ~scheduled:10.0 ~local_work:5.0 in
  let code = M.add m ~name:"code" ~scheduled:30.0 ~local_work:10.0 in
  let test = M.add m ~name:"test" ~scheduled:40.0 ~local_work:5.0 in
  M.depends_on m code design;
  M.depends_on m test code;
  let row id = [ M.name m id; Printf.sprintf "%.0f" (M.scheduled m id);
                 Printf.sprintf "%.0f" (M.expected m id);
                 (if M.is_late m id then "LATE" else "on-time") ] in
  print_endline "before slip:";
  R.table ~headers:[ "milestone"; "sched"; "expected"; "status" ] (List.map row [ design; code; test ]);
  M.slip m design 30.0;
  print_endline "after design slips 30 days (one primitive update):";
  R.table ~headers:[ "milestone"; "sched"; "expected"; "status" ] (List.map row [ design; code; test ])

(* ================================================================== *)
(* F2: Figures 2-4 — make facility                                     *)

let f2 () =
  let module Fs = Cactis_apps.Fs_sim in
  let module Mk = Cactis_apps.Makefac in
  let fs = Fs.create () in
  List.iter (fun f -> Fs.write_file fs f "src") [ "a.c"; "b.c"; "util.h" ];
  let mk = Mk.create fs in
  let src f = Mk.add_rule mk ~file:f ~command:"" in
  let a_c = src "a.c" and b_c = src "b.c" and util = src "util.h" in
  let a_o = Mk.add_rule mk ~file:"a.o" ~command:"cc -c a.c -o a.o" in
  let b_o = Mk.add_rule mk ~file:"b.o" ~command:"cc -c b.c -o b.o" in
  let app = Mk.add_rule mk ~file:"app" ~command:"cc a.o b.o -o app" in
  List.iter (fun (r, d) -> Mk.add_dependency mk ~rule:r ~on:d)
    [ (a_o, a_c); (a_o, util); (b_o, b_c); (b_o, util); (app, a_o); (app, b_o) ];
  let scenario (label, f) =
    f ();
    Mk.sync mk;
    let ran = Mk.build mk app in
    [ label; string_of_int (List.length ran); String.concat "; " ran ]
  in
  (* List.map sequences the scenarios left to right (a bare list literal
     would evaluate them right to left). *)
  let rows =
    List.map scenario
      [
        ("initial build", fun () -> ());
        ("no change", fun () -> ());
        ("edit a.c", fun () -> Fs.touch fs "a.c");
        ("edit util.h", fun () -> Fs.touch fs "util.h");
        ("delete b.o", fun () -> Fs.remove fs "b.o");
      ]
  in
  R.table ~headers:[ "scenario"; "cmds"; "commands run" ] rows

(* ================================================================== *)
(* E1: incremental vs full recomputation                               *)

let e1 () =
  let sizes = scale [ 100; 1000; 4000 ] in
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun (pos_label, pos) ->
            let run strategy =
              let db, ids = W.watched_chain n in
              Engine.set_strategy (Db.engine db) strategy;
              ignore (Db.get db ids.(0) "total");
              let diff = R.measure db (fun () ->
                  Db.set db ids.(pos) "local" (int 777);
                  ignore (Db.get db ids.(0) "total"))
              in
              R.count diff "rule_evals"
            in
            let inc = run Engine.Cactis in
            let full = run Engine.Recompute_all in
            [ string_of_int n; pos_label; string_of_int inc; string_of_int full;
              Cactis_util.Ascii_table.fmt_ratio (float_of_int full) (float_of_int inc) ])
          [ ("near head (10%)", n / 10); ("at leaf (100%)", n - 1) ])
      sizes
  in
  R.table ~headers:[ "chain n"; "change site"; "evals (Cactis)"; "evals (recompute-all)"; "speedup" ] rows

(* ================================================================== *)
(* E2: naive trigger blowup on diamond ladders                         *)

let e2 () =
  let depths = scale [ 2; 4; 6; 8; 10; 12; 14 ] in
  let rows =
    List.map
      (fun d ->
        let run strategy =
          let db, top, bottom = W.watched_ladder strategy d in
          let diff = R.measure db (fun () ->
              Db.set db bottom "local" (int 9);
              ignore (Db.get db top "total"))
          in
          R.count diff "rule_evals"
        in
        let cactis = run Engine.Cactis in
        let eager = run Engine.Eager_triggers in
        [ string_of_int d; string_of_int ((3 * d) + 1); string_of_int cactis; string_of_int eager ])
      depths
  in
  R.table
    ~headers:[ "ladder depth"; "attrs affected"; "evals (Cactis)"; "evals (eager trigger)" ]
    rows

(* ================================================================== *)
(* E3: O(1) redundant change                                           *)

let e3 () =
  let n = if !fast then 200 else 1000 in
  let db, ids = W.watched_chain n in
  let mark_cost k =
    let diff = R.measure db (fun () -> Db.set db ids.(n - 1) "local" (int k)) in
    R.count diff "mark_visits"
  in
  (* The repeated assignments happen inside one transaction, i.e. before
     the system propagates — the paper's scenario. *)
  Db.begin_txn db;
  let rows =
    List.map
      (fun (label, k, note) -> [ label; string_of_int (mark_cost k); note ])
      [
        ("1st change", 101, "whole dependent chain marked");
        ("2nd change", 102, "cut off: already out of date");
        ("3rd change", 103, "cut off");
        ("4th change", 104, "cut off");
      ]
  in
  Db.commit db;
  ignore (Db.get db ids.(0) "total");
  let after_commit =
    let diff = R.measure db (fun () ->
        Db.begin_txn db;
        Db.set db ids.(n - 1) "local" (int 105))
    in
    Db.commit db;
    R.count diff "mark_visits"
  in
  R.table ~headers:[ "update"; "mark visits"; "note" ]
    (rows
    @ [ [ "after commit+query"; string_of_int after_commit; "chain up to date again: full marking" ] ])

(* ================================================================== *)
(* E4: laziness — only important attributes evaluated                  *)

let e4 () =
  let fan = if !fast then 200 else 1000 in
  let fractions = [ 0.0; 0.01; 0.1; 0.5; 1.0 ] in
  let rows =
    List.map
      (fun frac ->
        let db = W.make_db () in
        let hub, points = W.star db fan in
        let w = int_of_float (frac *. float_of_int fan) in
        Array.iteri (fun i p -> if i < w then Db.watch db p "total") points;
        (* Evaluate everything once so the change has a fully up-to-date
           database to invalidate. *)
        Array.iter (fun p -> ignore (Db.get db ~watch:false p "total")) points;
        Engine.propagate (Db.engine db);
        let diff = R.measure db (fun () -> Db.set db hub "local" (int 5)) in
        [ Printf.sprintf "%.0f%%" (frac *. 100.0); string_of_int w;
          string_of_int (R.count diff "rule_evals");
          string_of_int (R.count diff "mark_visits") ])
      fractions
  in
  R.table
    ~headers:[ "watched fraction"; "watched attrs"; "evals on change"; "marks on change" ]
    rows;
  Printf.printf "(all %d dependent attrs are marked; only the watched ones are evaluated)\n" fan

(* ================================================================== *)
(* E5: usage-based clustering                                          *)

let e5 () =
  let communities = if !fast then 16 else 32 in
  let size = 8 in
  let rounds = if !fast then 200 else 600 in
  let run_workload db groups rng =
    for _ = 1 to rounds do
      let c = Rng.zipf rng communities 0.8 in
      let group = groups.(c) in
      let member = group.(Rng.int rng size) in
      Db.set db member "local" (int (Rng.int rng 50));
      ignore (Db.get db group.(0) "total")
    done
  in
  let rows =
    List.map
      (fun buffer_capacity ->
        let db = W.make_db ~block_capacity:8 ~buffer_capacity () in
        let groups = W.community_graph db ~communities ~size in
        Cactis_storage.Pager.reset_io (Store.pager (Db.store db));
        run_workload db groups (Rng.create 42);
        let unclustered = R.disk_reads db in
        let blocks = Db.recluster db in
        Cactis_storage.Pager.reset_io (Store.pager (Db.store db));
        run_workload db groups (Rng.create 42);
        let clustered = R.disk_reads db in
        [ string_of_int buffer_capacity; string_of_int blocks; string_of_int unclustered;
          string_of_int clustered;
          Cactis_util.Ascii_table.fmt_ratio (float_of_int unclustered) (float_of_int clustered) ])
      (scale [ 4; 8; 16 ])
  in
  R.table
    ~headers:[ "buffer (blocks)"; "blocks"; "reads scattered"; "reads clustered"; "improvement" ]
    rows

(* ================================================================== *)
(* E6: traversal scheduling                                            *)

let e6 () =
  let chains = if !fast then 8 else 12 in
  let length = if !fast then 24 else 40 in
  let schedulers =
    [ ("fifo", Sched.Fifo); ("cost-only (no promotion)", Sched.Cost_only);
      ("greedy-adaptive", Sched.Greedy) ]
  in
  let rows =
    List.map
      (fun (label, sched) ->
        let db = W.make_db ~sched ~block_capacity:8 ~buffer_capacity:4 () in
        let root = W.comb db ~chains ~length in
        Db.watch db root "total";
        Engine.invalidate_all (Db.engine db);
        Cactis_storage.Pager.reset_io (Store.pager (Db.store db));
        ignore (Db.get db root "total");
        let cold = R.disk_reads db in
        Cactis_storage.Pager.reset_io (Store.pager (Db.store db));
        Engine.invalidate_all (Db.engine db);
        ignore (Db.get db root "total");
        let again = R.disk_reads db in
        [ label; string_of_int cold; string_of_int again ])
      schedulers
  in
  R.table ~headers:[ "scheduler"; "disk reads (cold)"; "disk reads (repeat)" ] rows;
  Printf.printf "(%d chains x %d nodes, 8 instances/block, 4-block buffer)\n" chains length;
  (* Marking traversal: one change fans out across every chain; the
     worst-case cost estimate is binary (resident or not), so the
     resident-first queue and block promotion are what separate the
     schedulers. *)
  let mark_rows =
    List.map
      (fun (label, sched) ->
        let db = W.make_db ~sched ~block_capacity:8 ~buffer_capacity:4 () in
        let shared, heads = W.inverted_comb db ~chains ~length in
        Array.iter
          (fun h ->
            Db.watch db h "total";
            ignore (Db.get db h "total"))
          heads;
        Cactis_storage.Pager.reset_io (Store.pager (Db.store db));
        Db.begin_txn db;
        Db.set db shared "local" (int 99);
        let reads = R.disk_reads db in
        Db.commit db;
        [ label; string_of_int reads ])
      schedulers
  in
  print_endline "marking traversal (one change fanning out over all chains):";
  R.table ~headers:[ "scheduler"; "disk reads (mark phase)" ] mark_rows

(* ================================================================== *)
(* E7: delta size vs derived ripple                                    *)

let e7 () =
  let rows =
    List.map
      (fun n ->
        let db, ids = W.watched_chain n in
        Db.with_txn db (fun () -> Db.set db ids.(n - 1) "local" (int 50));
        let delta_ops = List.nth (Db.delta_sizes db) (List.length (Db.delta_sizes db) - 1) in
        let diff = R.measure db (fun () ->
            Db.undo_last db;
            ignore (Db.get db ids.(0) "total"))
        in
        [ string_of_int n; string_of_int delta_ops; string_of_int n;
          string_of_int (R.count diff "rule_evals") ])
      (scale [ 10; 100; 1000 ])
  in
  R.table
    ~headers:[ "chain n"; "delta ops stored"; "derived attrs affected"; "evals to undo" ]
    rows

(* ================================================================== *)
(* E8: constraints and rollback                                        *)

let e8 () =
  let build with_recovery =
    let sch = Schema.create () in
    Schema.add_type sch "node";
    Schema.declare_relationship sch ~from_type:"node" ~rel:"deps" ~to_type:"node"
      ~inverse:"rdeps" ~card:Schema.Multi ~inverse_card:Schema.Multi;
    Schema.add_attr sch ~type_name:"node" (Rule.intrinsic "local" (int 1));
    Schema.add_attr sch ~type_name:"node"
      (Rule.derived "total"
         (Rule.combine_self_rel "local" "deps" "total" ~f:(fun own totals ->
              Value.add own (Value.sum totals))));
    Schema.add_attr sch ~type_name:"node"
      (Rule.constraint_attr "total_ok"
         ?recovery:(if with_recovery then Some "clamp" else None)
         ~message:"total exceeds budget"
         (Rule.map1 "total" (fun v -> Value.Bool (Value.as_int v <= 500))));
    let db = Db.create sch in
    if with_recovery then
      Db.register_recovery db "clamp" (fun _store id -> [ (id, "local", int 0) ]);
    db
  in
  let run with_recovery =
    let db = build with_recovery in
    let ids = Array.init 20 (fun _ -> Db.create_instance db "node") in
    for i = 0 to 18 do
      Db.link db ~from_id:ids.(i) ~rel:"deps" ~to_id:ids.(i + 1)
    done;
    let rng = Rng.create 5 in
    let commits = ref 0 and aborts = ref 0 in
    for _ = 1 to 100 do
      let i = Rng.int rng 20 in
      let v = Rng.int rng 120 in
      match Db.with_txn db (fun () -> Db.set db ids.(i) "local" (int v)) with
      | () -> incr commits
      | exception Errors.Constraint_violation _ -> incr aborts
    done;
    let c = Db.counters db in
    let head_total = Value.as_int (Db.get db ids.(0) "total") in
    [
      (if with_recovery then "with recovery action" else "rollback only");
      string_of_int !commits; string_of_int !aborts;
      string_of_int (Cactis_util.Counters.get c "recoveries_run");
      string_of_int head_total;
      string_of_bool (head_total <= 500);
    ]
  in
  R.table
    ~headers:[ "mode"; "commits"; "rollbacks"; "recoveries"; "final total"; "invariant holds" ]
    [ run false; run true ]

(* ================================================================== *)
(* E9: timestamp concurrency control                                   *)

let e9 () =
  let module Cc = Cactis_cc.Timestamp_cc in
  let module Wl = Cactis_cc.Workload in
  let module Il = Cactis_cc.Interleave in
  let module P = Cactis_cc.Parallel_run in
  let module So = Cactis_cc.Serial_oracle in
  let instances = 8 in
  let txns = if !fast then 5 else 15 in
  let unserializable = ref 0 in
  (* One row per (clients, hot-key share): [exec rng cc scripts] runs the
     client scripts and returns the committed ones plus the row's count
     cells; the verdict compares the result against the
     timestamp-ordered serial oracle. *)
  let grid exec =
    List.concat_map
      (fun clients ->
        List.map
          (fun hot ->
            let db, accounts, _ = Wl.counters_db ~instances () in
            let cc = Cc.create db in
            let rng = Rng.create 31 in
            let scripts =
              List.init clients (fun _ ->
                  Wl.generate (Rng.split rng) ~accounts ~txns ~ops_per_txn:4 ~hot_fraction:hot
                    ~read_fraction:0.3)
            in
            let committed, cells = exec rng cc scripts in
            let setup () =
              let db, _, _ = Wl.counters_db ~instances () in
              db
            in
            let serializable = So.equivalent db (So.replay ~setup ~committed) [ "balance" ] in
            if not serializable then incr unserializable;
            (string_of_int clients :: Printf.sprintf "%.0f%%" (hot *. 100.0) :: cells)
            @ [ string_of_bool serializable ])
          [ 0.1; 0.9 ])
      (scale [ 2; 4; 8 ])
  in
  R.table
    ~headers:
      [ "clients"; "hot-key traffic"; "commits"; "restarts"; "commits/100 steps"; "serializable" ]
    (grid (fun rng cc scripts ->
         let st = Il.run ~rng ~cc ~clients:scripts () in
         ( st.Il.committed_scripts,
           [ string_of_int st.Il.committed; string_of_int st.Il.restarts;
             Printf.sprintf "%.2f"
               (float_of_int st.Il.committed /. float_of_int (max 1 st.Il.steps) *. 100.0) ] )));
  (* Same workload under REAL parallelism: each client on its own
     domain, the schedule coming from the OS instead of the seeded
     interleaver.  Abort/restart counts vary run to run; the
     serializable verdict (vs the timestamp-ordered serial oracle) must
     not. *)
  print_endline "same workload on real domains (OS scheduling, nondeterministic counts):";
  let rows =
    grid (fun _ cc scripts ->
        let st = P.run ~cc ~clients:scripts () in
        ( st.P.committed_scripts,
          [ string_of_int st.P.committed; string_of_int st.P.restarts;
            string_of_int st.P.starved; string_of_int (Cc.aborts cc) ] ))
  in
  R.table
    ~headers:
      [ "domains"; "hot-key traffic"; "commits"; "restarts"; "starved"; "aborts"; "serializable" ]
    rows;
  R.gate ~name:"every run serializable" ~ok:(!unserializable = 0)
    (Printf.sprintf "%d of %d runs differ from the serial oracle" !unserializable
       (2 * List.length rows))

(* ================================================================== *)
(* E10: amortized overhead bound                                       *)

let e10 () =
  let n = if !fast then 100 else 400 in
  let rows =
    List.map
      (fun seed ->
        let rng = Rng.create seed in
        let db = W.make_db () in
        let ids = W.random_dag db rng n ~max_deps:3 in
        Array.iteri (fun i id -> if i < 5 then Db.watch db id "total") ids;
        Array.iter (fun id -> ignore (Db.get db ~watch:false id "total")) ids;
        (* |Could_Change| by BFS over the dependents relation.  Sites in
           the last tenth of the DAG have large dependent closures (many
           earlier nodes transitively depend on them). *)
        let site = ids.(Rng.int_in rng (9 * n / 10) (n - 1)) in
        let visited = Hashtbl.create 64 in
        let edges = ref 0 in
        let rec bfs id =
          if not (Hashtbl.mem visited id) then begin
            Hashtbl.add visited id ();
            let parents = Db.related db id "rdeps" in
            edges := !edges + List.length parents;
            List.iter bfs parents
          end
        in
        bfs site;
        let could_change = Hashtbl.length visited + !edges in
        let diff = R.measure db (fun () ->
            Db.set db site "local" (int 1234);
            Db.with_txn db (fun () -> ()))
        in
        let overhead = R.count diff "mark_visits" + R.count diff "rule_evals" in
        [
          Printf.sprintf "seed %d" seed;
          string_of_int (Hashtbl.length visited);
          string_of_int !edges;
          string_of_int could_change;
          string_of_int overhead;
          Printf.sprintf "%.2f" (float_of_int overhead /. float_of_int (max 1 could_change));
        ])
      [ 1; 2; 3; 4; 5; 6 ]
  in
  R.table
    ~headers:
      [ "trial"; "|nodes(CC)|"; "|edges(CC)|"; "N+E bound"; "marks+evals"; "ratio (<= ~1)" ]
    rows

(* ================================================================== *)
(* E11: distributed placement (§5 prototype)                           *)

let e11 () =
  let module P = Cactis_dist.Partition in
  let communities = if !fast then 8 else 24 in
  let size = 8 in
  let db = W.make_db ~block_capacity:8 ~buffer_capacity:64 () in
  let rng = Rng.create 7 in
  let groups = W.community_graph ~shuffle:(Rng.split rng) db ~communities ~size in
  for _ = 1 to (if !fast then 200 else 800) do
    let g = groups.(Rng.zipf rng communities 0.6) in
    Db.set db g.(Rng.int rng size) "local" (int (Rng.int rng 50));
    ignore (Db.get db g.(0) "total")
  done;
  let store = Db.store db in
  let ids = Db.instance_ids db in
  let rows =
    List.concat_map
      (fun sites ->
        let placements =
          [
            ("striped (round-robin)", P.round_robin ~ids ~sites);
            ("random", P.random (Rng.create 3) ~ids ~sites);
            ("usage-clustered", P.by_usage store ~sites);
          ]
        in
        List.map
          (fun (label, p) ->
            let cross = P.cross_site_traffic store p in
            let local = P.local_traffic store p in
            [
              string_of_int sites; label; string_of_int cross;
              Printf.sprintf "%.1f%%" (100.0 *. float_of_int cross /. float_of_int (max 1 (cross + local)));
            ])
          placements)
      (scale [ 2; 4; 8 ])
  in
  R.table ~headers:[ "sites"; "placement"; "cross-site msgs"; "remote share" ] rows

(* ================================================================== *)
(* E12: attribute index vs full scan                                   *)

let e12 () =
  let n = if !fast then 300 else 2000 in
  let queries = 50 in
  let updates_per_query = 3 in
  let run use_index =
    let db = W.make_db () in
    let ids = Array.init n (fun _ -> Db.create_instance db "node") in
    let rng = Rng.create 11 in
    Array.iter (fun id -> Db.set db id "local" (int (Rng.int rng 10))) ids;
    let idx =
      if use_index then Some (Cactis.Index.create db ~type_name:"node" ~attr:"local") else None
    in
    let scan v =
      Array.to_list ids
      |> List.filter (fun id -> Value.equal (Db.get db ~watch:false id "local") v)
    in
    let c = Db.counters db in
    let before = Cactis_util.Counters.get c "instance_touches" in
    let total_hits = ref 0 in
    for _ = 1 to queries do
      for _ = 1 to updates_per_query do
        Db.set db ids.(Rng.int rng n) "local" (int (Rng.int rng 10))
      done;
      let v = int (Rng.int rng 10) in
      let hits = match idx with Some idx -> Cactis.Index.lookup idx v | None -> scan v in
      total_hits := !total_hits + List.length hits
    done;
    (Cactis_util.Counters.get c "instance_touches" - before, !total_hits)
  in
  let scan_touches, scan_hits = run false in
  let index_touches, index_hits = run true in
  R.table
    ~headers:[ "access path"; "instance touches"; "result rows" ]
    [
      [ "full scan"; string_of_int scan_touches; string_of_int scan_hits ];
      [ "hash index"; string_of_int index_touches; string_of_int index_hits ];
    ];
  Printf.printf "(%d instances, %d queries, %d updates between queries; identical results)\n" n
    queries updates_per_query

(* ================================================================== *)
(* E13: macro benchmark — the milestone manager under a realistic      *)
(* editing workload                                                    *)

(* Plan-edit workload sizes: (layers, width, rounds). *)
let plan_size () = if !fast then (10, 8, 60) else (25, 20, 200)

let e13 () =
  let layers, width, rounds = plan_size () in
  let run (label, strategy) =
    let p = W.plan ~strategy ~layers ~width in
    let db = W.M.db p.W.m in
    let c = Db.counters db in
    let before_evals = Cactis_util.Counters.get c "rule_evals" in
    let before_marks = Cactis_util.Counters.get c "mark_visits" in
    let t0 = Sys.time () in
    W.plan_edits p ~rounds;
    let elapsed = Sys.time () -. t0 in
    let evals = Cactis_util.Counters.get c "rule_evals" - before_evals in
    let marks = Cactis_util.Counters.get c "mark_visits" - before_marks in
    (* One extra profiled round — outside the timed window and after the
       counter reads, so the comparison rows stay untouched — checks the
       paper's central invariant mechanically on the macro workload. *)
    let profiled =
      match strategy with
      | Engine.Cactis ->
        Db.set_profiling db true;
        W.M.slip p.W.m (W.plan_victim p) 1.0;
        ignore (W.M.expected p.W.m p.W.ship);
        Db.set_profiling db false;
        Db.last_profile db
      | Engine.Eager_triggers | Engine.Recompute_all -> None
    in
    let row = [ label; string_of_int evals; string_of_int marks; Printf.sprintf "%.3f" elapsed ] in
    (row, profiled, db)
  in
  let results =
    List.map run
      [
        ("incremental (Cactis)", Engine.Cactis);
        ("eager triggers", Engine.Eager_triggers);
        ("recompute-all", Engine.Recompute_all);
      ]
  in
  R.table ~headers:[ "strategy"; "rule evals"; "mark visits"; "cpu seconds" ]
    (List.map (fun (row, _, _) -> row) results);
  Printf.printf "(%d layers x %d milestones, %d slip+query rounds)\n" layers width rounds;
  match results with
  | (_, Some prof, db) :: _ ->
    let module P = Cactis_obs.Profile in
    R.table
      ~headers:
        [ "profiled commit"; "marked"; "edges"; "cutoffs"; "evals"; "max/attr"; "work"; "bound" ]
      [
        [
          "slip + ship query";
          string_of_int prof.P.p_nodes_marked;
          string_of_int prof.P.p_edges_walked;
          string_of_int prof.P.p_cutoffs;
          string_of_int prof.P.p_evals;
          string_of_int prof.P.p_max_evals_per_attr;
          string_of_int prof.P.p_work;
          string_of_int prof.P.p_bound;
        ];
      ];
    R.gate ~name:"evaluated at most once" ~ok:(P.at_most_once prof)
      (Printf.sprintf "max %d evals for one attribute; work %d against O(N+E) bound %d"
         prof.P.p_max_evals_per_attr prof.P.p_work prof.P.p_bound);
    R.obs_tables db
  | _ -> ()

(* ================================================================== *)
(* E14: persistence — binary snapshots + write-ahead delta log         *)

let tmp_seq = ref 0

let temp_dir () =
  incr tmp_seq;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cactis_e14_%d_%d" (Unix.getpid ()) !tmp_seq)
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o755;
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let e14 () =
  let now () = Unix.gettimeofday () in
  let time f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  (* Codec timings start from a settled heap and keep the best of two
     runs: the shared container this runs on has noisy neighbours, and a
     major collection landing inside one measurement would otherwise
     swamp the codec under test. *)
  let time2 f =
    Gc.full_major ();
    let r, t1 = time f in
    let _, t2 = time f in
    (r, Float.min t1 t2)
  in
  let mb bytes = float_of_int bytes /. 1048576.0 in
  (* -- snapshot codec: text vs binary save/load throughput -- *)
  let sizes = if !fast then [ 2_000 ] else [ 20_000; 100_000 ] in
  let mismatched = ref 0 in
  let codec_rows =
    List.map
      (fun n ->
        let db = W.make_doc_db () in
        let rng = Rng.create 21 in
        ignore (W.docs db ~n ~rng);
        let text, t_st = time2 (fun () -> Snapshot.save db) in
        let bin, t_sb = time2 (fun () -> Snapshot.save_binary db) in
        let db_t, t_lt = time2 (fun () -> Snapshot.load (Db.schema db) text) in
        let db_b, t_lb = time2 (fun () -> Snapshot.load_binary (Db.schema db) bin) in
        (* Both loaders must agree with the source database exactly. *)
        let canonical = Snapshot.save_binary db in
        if canonical <> Snapshot.save_binary db_t || canonical <> Snapshot.save_binary db_b then
          incr mismatched;
        [
          string_of_int n;
          Printf.sprintf "%.2f" (mb (String.length text));
          Printf.sprintf "%.2f" (mb (String.length bin));
          Printf.sprintf "%.0f" (mb (String.length text) /. t_st);
          Printf.sprintf "%.0f" (mb (String.length bin) /. t_sb);
          Printf.sprintf "%.1fx" (t_st /. t_sb);
          Printf.sprintf "%.0f" (mb (String.length text) /. t_lt);
          Printf.sprintf "%.0f" (mb (String.length bin) /. t_lb);
          Printf.sprintf "%.1fx" (t_lt /. t_lb);
          Printf.sprintf "%.1f" ((t_st +. t_lt) /. (t_sb +. t_lb));
        ])
      sizes
  in
  R.table
    ~headers:
      [
        "docs"; "text MB"; "bin MB"; "text save MB/s"; "bin save MB/s"; "save speedup";
        "text load MB/s"; "bin load MB/s"; "load speedup"; "save+load speedup";
      ]
    codec_rows;
  R.gate ~name:"both loaders reproduce the source" ~ok:(!mismatched = 0)
    (Printf.sprintf "%d of %d databases differ after a load" !mismatched (List.length sizes));
  (* -- commit path: O(delta) log records vs O(db) full re-save -- *)
  let commit_sizes = if !fast then [ 500; 2_000 ] else [ 2_000; 10_000; 50_000 ] in
  let txn_ops = 16 in
  let commits = if !fast then 20 else 40 in
  let commit_rows =
    List.map
      (fun n ->
        let db = W.make_doc_db () in
        let rng = Rng.create 22 in
        let ids = W.docs db ~n ~rng in
        let dir = temp_dir () in
        let p = Persist.attach ~sync_every:1 ~dir db in
        let bytes0 = Persist.wal_bytes p in
        let (), t_wal =
          time (fun () ->
              for _ = 1 to commits do
                W.doc_edit_txn db ids ~ops:txn_ops ~rng
              done)
        in
        let wal_per_commit = (Persist.wal_bytes p - bytes0) / commits in
        let text, t_full = time (fun () -> Snapshot.save db) in
        Persist.close p;
        rm_rf dir;
        [
          string_of_int n;
          string_of_int txn_ops;
          string_of_int wal_per_commit;
          Printf.sprintf "%.0f" (t_wal /. float_of_int commits *. 1e6);
          string_of_int (String.length text);
          Printf.sprintf "%.0f" (t_full *. 1e6);
          Printf.sprintf "%.0fx" (float_of_int (String.length text) /. float_of_int wal_per_commit);
        ])
      commit_sizes
  in
  R.table
    ~headers:
      [
        "docs"; "ops/txn"; "WAL bytes/commit"; "WAL commit us"; "full snapshot bytes";
        "full save us"; "O(db)/O(delta) bytes";
      ]
    commit_rows;
  print_endline
    "(WAL bytes/commit stays flat as the database grows: durability cost follows the delta)";
  (* -- group commit: fsync batching -- *)
  let gc_docs = if !fast then 500 else 2_000 in
  let gc_txns = if !fast then 100 else 400 in
  let gc_rows =
    List.map
      (fun sync_every ->
        let db = W.make_doc_db () in
        let rng = Rng.create 23 in
        let ids = W.docs db ~n:gc_docs ~rng in
        let dir = temp_dir () in
        let p = Persist.attach ~sync_every ~dir db in
        let (), t =
          time (fun () ->
              for _ = 1 to gc_txns do
                W.doc_edit_txn db ids ~ops:4 ~rng
              done;
              Persist.sync p)
        in
        Persist.close p;
        rm_rf dir;
        let label = if sync_every = 0 then "explicit only" else string_of_int sync_every in
        [
          label;
          Printf.sprintf "%.1f" (t *. 1e3);
          Printf.sprintf "%.0f" (float_of_int gc_txns /. t);
        ])
      [ 1; 8; 64; 0 ]
  in
  R.table ~headers:[ "fsync every"; "wall ms"; "commits/s" ] gc_rows;
  (* -- recovery: checkpoint + log tail replay -- *)
  let rec_docs = if !fast then 500 else 5_000 in
  let db = W.make_doc_db () in
  let rng = Rng.create 24 in
  let ids = W.docs db ~n:rec_docs ~rng in
  let dir = temp_dir () in
  let p = Persist.attach ~sync_every:1 ~dir db in
  let tail_txns = if !fast then 20 else 50 in
  for _ = 1 to tail_txns do
    W.doc_edit_txn db ids ~ops:8 ~rng
  done;
  (* Simulated crash: the writer is simply abandoned (every record is
     already fsynced); recovery loads the checkpoint and replays the
     tail. *)
  let p2, t_rec = time (fun () -> Persist.recover ~dir (Db.schema db)) in
  let match1 = String.equal (Snapshot.save_binary db) (Snapshot.save_binary (Persist.db p2)) in
  let replayed1 = Persist.replayed p2 in
  Persist.checkpoint p2;
  Persist.close p2;
  let p3, t_rec2 = time (fun () -> Persist.recover ~dir (Db.schema db)) in
  let match2 = String.equal (Snapshot.save_binary db) (Snapshot.save_binary (Persist.db p3)) in
  let replayed2 = Persist.replayed p3 in
  Persist.close p3;
  Persist.close p;
  rm_rf dir;
  R.table
    ~headers:[ "recovery"; "deltas replayed"; "wall ms"; "state identical" ]
    [
      [ "checkpoint + log tail"; string_of_int replayed1; Printf.sprintf "%.1f" (t_rec *. 1e3);
        string_of_bool match1 ];
      [ "after re-checkpoint"; string_of_int replayed2; Printf.sprintf "%.1f" (t_rec2 *. 1e3);
        string_of_bool match2 ];
    ];
  Printf.printf "(%d docs, %d tail transactions of 8 ops)\n" rec_docs tail_txns;
  R.gate ~name:"recovery reproduces the writer" ~ok:(match1 && match2)
    "checkpoint + log tail, then after re-checkpoint"

(* ================================================================== *)
(* E15: static schema analysis cost                                    *)

(* A synthetic schema: [classes] object classes in a chain, each with an
   intrinsic [base], [depth] chained derived attributes, and a rule
   reading the neighbour's last derived attribute across a relationship.
   Type-level size grows, data size is irrelevant — the analyzer never
   touches instances. *)
let analysis_schema ~classes ~depth =
  let sch = Schema.create () in
  let cname k = Printf.sprintf "c%d" k in
  for k = 0 to classes - 1 do
    Schema.add_type sch (cname k)
  done;
  for k = 0 to classes - 2 do
    Schema.declare_relationship sch ~from_type:(cname k) ~rel:"down" ~to_type:(cname (k + 1))
      ~inverse:"up" ~card:Schema.Multi ~inverse_card:Schema.One
  done;
  for k = 0 to classes - 1 do
    let tn = cname k in
    Schema.add_attr sch ~type_name:tn (Rule.intrinsic "base" (int 1));
    for d = 0 to depth - 1 do
      let prev = if d = 0 then "base" else Printf.sprintf "d%d" (d - 1) in
      Schema.add_attr sch ~type_name:tn
        (Rule.derived
           (Printf.sprintf "d%d" d)
           (Rule.map1 prev (fun v -> int (Value.as_int v + 1))))
    done;
    if k < classes - 1 then
      Schema.add_attr sch ~type_name:tn
        (Rule.derived "agg"
           (Rule.make
              [ Schema.Rel ("down", Printf.sprintf "d%d" (depth - 1)) ]
              (fun env ->
                int
                  (List.fold_left
                     (fun acc v -> acc + Value.as_int v)
                     0
                     (env.Schema.related_values "down" (Printf.sprintf "d%d" (depth - 1)))))))
  done;
  sch

let e15 () =
  let module Analyze = Cactis_analysis.Analyze in
  let module Diag = Cactis_analysis.Diag in
  let analyze_counted sch =
    let counters = Cactis_util.Counters.create () in
    let t0 = Unix.gettimeofday () in
    let diags = Analyze.analyze_schema ~counters sch in
    let dt = Unix.gettimeofday () -. t0 in
    (Cactis_util.Counters.get counters, diags, dt)
  in
  let row name sch =
    let get, diags, dt = analyze_counted sch in
    let errors = List.length (Diag.errors diags) in
    [
      name;
      string_of_int (get "analysis_nodes");
      string_of_int (get "analysis_edges");
      string_of_int (get "analysis_sccs");
      string_of_int (get "analysis_diags");
      string_of_int errors;
      Printf.sprintf "%.1f" (dt *. 1e6);
    ]
  in
  let sizes = scale [ (10, 4); (40, 8); (120, 12) ] in
  let rows =
    [
      row "milestone (app)" (Db.schema (Cactis_apps.Milestone.db (Cactis_apps.Milestone.create ())));
      row "flowan (app)" (Cactis_apps.Flowan.schema ());
    ]
    @ List.map
        (fun (classes, depth) ->
          row
            (Printf.sprintf "chain %dx%d" classes depth)
            (analysis_schema ~classes ~depth))
        sizes
  in
  R.table ~headers:[ "schema"; "nodes"; "edges"; "cyclic sccs"; "diags"; "errors"; "wall us" ] rows;
  (* Same schema, growing data: the analyzer's work is constant — it is
     a function of the declarations alone. *)
  let sch () = analysis_schema ~classes:10 ~depth:4 in
  let const_rows =
    List.map
      (fun instances ->
        let s = sch () in
        let db = Db.create s in
        for _ = 1 to instances do
          ignore (Db.create_instance db "c0")
        done;
        let get, _, dt = analyze_counted s in
        [
          string_of_int instances;
          string_of_int (get "analysis_nodes");
          string_of_int (get "analysis_edges");
          Printf.sprintf "%.1f" (dt *. 1e6);
        ])
      (scale [ 0; 1000; 10000 ])
  in
  R.table ~headers:[ "instances"; "nodes"; "edges"; "wall us" ] const_rows

(* ================================================================== *)
(* E16: real-disk pager + clustering strategy shoot-out                *)

let e16 () =
  let objects = if !fast then 512 else 4096 in
  let fanout = 3 in
  let rounds = if !fast then 150 else 800 in
  let depth = 4 in
  let dir = temp_dir () in
  (* --- Strategy shoot-out ---------------------------------------- *)
  (* One database per strategy, identical seeds: same object graph,
     same training trace, same measured trace.  Training accumulates
     usage statistics along the hot paths; the measured replay then
     runs over the strategy's layout. *)
  let seq_reads = ref 0 in
  let best_reads = ref max_int in
  let rows =
    List.map
      (fun strategy ->
        let name = Cactis_storage.Cluster.strategy_name strategy in
        let path = Filename.concat dir ("ocb_" ^ name ^ ".blocks") in
        let db = W.make_ocb_db ~block_capacity:8 ~buffer_capacity:16 ~disk_path:path () in
        let pager = Store.pager (Db.store db) in
        let ids = W.ocb_populate db (Rng.create 7) ~objects ~fanout in
        W.ocb_traversals db (Rng.create 11) ids ~rounds ~depth;
        let blocks = Db.recluster ~strategy db in
        Cactis_storage.Pager.reset_io pager;
        let t0 = Unix.gettimeofday () in
        W.ocb_traversals db (Rng.create 11) ids ~rounds ~depth;
        let dt = Unix.gettimeofday () -. t0 in
        let disk = Cactis_storage.Pager.disk pager in
        let pool = Cactis_storage.Pager.pool pager in
        let reads = Cactis_storage.Disk.reads disk in
        let hits = Cactis_storage.Buffer_pool.hits pool in
        let misses = Cactis_storage.Buffer_pool.misses pool in
        let hit_rate = 100. *. float_of_int hits /. float_of_int (max 1 (hits + misses)) in
        let file_kb = Cactis_storage.Disk.file_size disk / 1024 in
        if strategy = Cactis_storage.Cluster.Sequential then seq_reads := reads
        else if reads < !best_reads then best_reads := reads;
        Cactis_storage.Pager.close pager;
        [
          name; string_of_int blocks; string_of_int reads;
          Printf.sprintf "%.1f%%" hit_rate;
          Printf.sprintf "%.1f" (dt *. 1e3);
          string_of_int file_kb;
          Cactis_util.Ascii_table.fmt_ratio (float_of_int !seq_reads) (float_of_int reads);
        ])
      Cactis_storage.Cluster.all_strategies
  in
  R.table
    ~headers:
      [ "strategy"; "blocks"; "block reads"; "hit rate"; "wall ms"; "file KiB"; "vs sequential" ]
    rows;
  Printf.printf
    "(%d objects x %d module-local refs, %d traversals, depth %d, 8/block, 16-block buffer)\n"
    objects fanout rounds depth;
  (* Hard acceptance bar: usage-driven clustering must at least halve
     the block reads of the sequential baseline on the real device. *)
  R.gate ~name:"best strategy halves sequential block reads" ~ok:(!best_reads * 2 <= !seq_reads)
    (Printf.sprintf "best %d block reads vs %d sequential" !best_reads !seq_reads);
  (* --- Incremental maintenance disruption ------------------------ *)
  (* Same edit workload under three maintenance regimes; the commit
     histogram is reset after the (identical) populate+train phases so
     the stats isolate the edit window, where maintenance runs. *)
  let edit_txns = if !fast then 150 else 600 in
  let ops = 8 in
  let regime name setup mid =
    let path = Filename.concat dir ("edit_" ^ name ^ ".blocks") in
    let db = W.make_ocb_db ~block_capacity:8 ~buffer_capacity:16 ~disk_path:path () in
    let pager = Store.pager (Db.store db) in
    let ids = W.ocb_populate db (Rng.create 7) ~objects ~fanout in
    W.ocb_traversals db (Rng.create 11) ids ~rounds:(rounds / 2) ~depth;
    setup db;
    Cactis_obs.Histogram.reset (Db.obs db).Cactis_obs.Ctx.hists;
    let erng = Rng.create 23 in
    W.ocb_edit_txns db erng ids ~txns:(edit_txns / 2) ~ops;
    let t0 = Unix.gettimeofday () in
    mid db;
    let mid_wall = Unix.gettimeofday () -. t0 in
    W.ocb_edit_txns db erng ids ~txns:(edit_txns / 2) ~ops;
    let snap = Cactis_obs.Histogram.snapshot (Db.obs db).Cactis_obs.Ctx.hists in
    let find n = List.find_opt (fun (s : Cactis_obs.Histogram.stats) -> s.st_name = n) snap in
    let commit = find "commit" in
    (* The single biggest maintenance pause an application thread
       experiences: the whole stop-the-world pass, or one bounded
       incremental slice (which the commit histogram already covers,
       since slices run inside the commit window). *)
    let max_pause =
      match find "recluster_step" with
      | Some s -> s.st_max
      | None -> mid_wall
    in
    (* Cost of cutting a migration plan (full pack over the statistics)
       — the one incremental slice that scales with database size. *)
    let plan_max = Option.map (fun (s : Cactis_obs.Histogram.stats) -> s.st_max) (find "recluster_plan") in
    let c = Db.counters db in
    let steps = Cactis_util.Counters.get c "recluster_steps" in
    let moves = Cactis_util.Counters.get c "recluster_moves" in
    let pending = Store.pending_moves (Db.store db) in
    Cactis_storage.Pager.close pager;
    let us f = Printf.sprintf "%.1f" (f *. 1e6) in
    let plan_cell = match plan_max with Some v -> us v | None -> "-" in
    (name
    :: (match commit with
       | Some s -> [ string_of_int s.st_count; us s.st_p50; us s.st_p99; us s.st_max ]
       | None -> [ "0"; "-"; "-"; "-" ]))
    @ [ us max_pause; plan_cell; string_of_int steps; string_of_int moves; string_of_int pending ]
  in
  let no_op _ = () in
  let regime_rows =
    [
      regime "no maintenance" no_op no_op;
      regime "stop-the-world" no_op (fun db -> ignore (Db.recluster db));
      regime "incremental"
        (fun db -> Db.set_auto_recluster ~drift_threshold:(objects / 2) ~max_moves:32 db true)
        no_op;
    ]
  in
  R.table
    ~headers:
      [ "regime"; "commits"; "p50 (us)"; "p99 (us)"; "max (us)"; "max pause (us)";
        "plan max (us)"; "recluster steps"; "moves"; "pending" ]
    regime_rows;
  print_endline
    "(incremental maintenance bounds per-commit disruption to max_moves block moves; \
     the stop-the-world pass pays the whole reorganization inside one commit window)";
  rm_rf dir

(* ================================================================== *)
(* Timing (Bechamel)                                                   *)

let timing () =
  let mk_chain strategy n =
    let db, ids = W.watched_chain ~strategy n in
    let v = ref 0 in
    fun () ->
      incr v;
      (* Change near the head (E1's 10% site): the incremental engine
         re-evaluates ~n/10 attributes, recompute-all evaluates n. *)
      Db.set db ids.(n / 10) "local" (int !v);
      ignore (Db.get db ids.(0) "total")
  in
  let mk_ladder strategy d =
    let db, top, bottom = W.watched_ladder strategy d in
    let v = ref 0 in
    fun () ->
      incr v;
      Db.set db bottom "local" (int !v);
      ignore (Db.get db top "total")
  in
  let n = if !fast then 100 else 500 in
  let d = if !fast then 6 else 9 in
  let open Bechamel in
  let tests =
    [
      Test.make ~name:(Printf.sprintf "chain%d/incremental" n)
        (Staged.stage (mk_chain Engine.Cactis n));
      Test.make ~name:(Printf.sprintf "chain%d/recompute-all" n)
        (Staged.stage (mk_chain Engine.Recompute_all n));
      Test.make ~name:(Printf.sprintf "ladder%d/incremental" d)
        (Staged.stage (mk_ladder Engine.Cactis d));
      Test.make ~name:(Printf.sprintf "ladder%d/eager-triggers" d)
        (Staged.stage (mk_ladder Engine.Eager_triggers d));
    ]
  in
  R.run_timing ~quota:0.25 tests

(* ================================================================== *)
(* E17: sustained QPS over TCP (multi-process load driver)             *)

module Net_server = Cactis_net.Server
module Net_client = Cactis_net.Client
module Net_proto = Cactis_net.Proto
module Load = Cactis_net.Load

(* Child roles.  OCaml 5 forbids forking a process with running
   domains, so the parent harness never spawns a domain itself: it
   re-executes this binary as [qps-serve] / [qps-client] children
   (fork+exec via Load.spawn) and only those children go parallel.
   They talk back over stdout in Load's line protocol. *)

let child_arg key default =
  let v = ref default in
  Array.iteri
    (fun i a -> if a = key && i + 1 < Array.length Sys.argv then v := Sys.argv.(i + 1))
    Sys.argv;
  !v

let child_int key default = int_of_string (child_arg key (string_of_int default))

let qps_serve_main () =
  let readers = child_int "--readers" 1 in
  let objects = child_int "--objects" 400 in
  let fanout = child_int "--fanout" 3 in
  let seed = child_int "--seed" 7 in
  let db = W.make_ocb_db () in
  let ids = W.ocb_populate db (Rng.create seed) ~objects ~fanout in
  let server =
    Net_server.start ~config:(Net_server.config ~readers ()) ~make_schema:W.ocb_schema db
  in
  let await_stop = Load.trap_sigterm () in
  Printf.printf "READY port=%d first=%d last=%d\n%!" (Net_server.port server) ids.(0)
    ids.(Array.length ids - 1);
  await_stop ();
  Net_server.stop server;
  List.iter
    (fun (k, v) -> Printf.printf "STAT %s=%d\n" k v)
    (Cactis_util.Counters.snapshot (Net_server.counters server));
  List.iter
    (fun (s : Cactis_obs.Histogram.stats) ->
      Printf.printf "STAT %s.p50_us=%.1f\nSTAT %s.count=%d\n" s.st_name (s.st_p50 *. 1e6)
        s.st_name s.st_count)
    (Cactis_obs.Histogram.snapshot (Net_server.latencies server));
  exit 0

let qps_client_main () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let port = child_int "--port" 0 in
  let seconds = float_of_string (child_arg "--seconds" "1.0") in
  let write_pct = child_int "--write-pct" 5 in
  let depth = child_int "--depth" 3 in
  let seed = child_int "--seed" 1 in
  let first = child_int "--first" 0 in
  let last = child_int "--last" 0 in
  let c = Net_client.connect ~port () in
  let rng = Rng.create seed in
  let ops = ref 0 and traversals = ref 0 and commits = ref 0 and errors = ref 0 in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. seconds in
  while Unix.gettimeofday () < deadline do
    (* Uniform roots: zipf-hot heads would all land on one range-affine
       reader and hide the scaling we are measuring. *)
    let root = first + Rng.int rng (last - first + 1) in
    try
      if Rng.int rng 100 < write_pct then begin
        ignore
          (Net_client.commit c
             [ Net_proto.Set { instance = root; attr = "payload"; value = Value.Int !ops } ]);
        incr commits
      end
      else begin
        (* min_version 0: any snapshot will do for throughput reads. *)
        ignore (Net_client.traverse ~min_version:0 ~depth c ~root ~rel:"refs" ~attr:"payload");
        incr traversals
      end;
      incr ops
    with Net_client.Remote _ -> incr errors
  done;
  let secs = Unix.gettimeofday () -. t0 in
  Net_client.close c;
  Printf.printf "RESULT ops=%d traversals=%d commits=%d errors=%d secs=%.3f\n%!" !ops
    !traversals !commits !errors secs;
  exit 0

let e17 () =
  let objects = if !fast then 400 else 2000 in
  let depth = if !fast then 3 else 4 in
  let seconds = if !fast then 0.6 else 2.0 in
  let n_clients = 4 in
  let run readers =
    let server =
      Load.spawn
        ~args:
          [ "qps-serve"; "--readers"; string_of_int readers; "--objects";
            string_of_int objects; "--fanout"; "3"; "--seed"; "7" ]
    in
    let ready = Load.until server "READY" in
    let clients =
      List.init n_clients (fun i ->
          Load.spawn
            ~args:
              [ "qps-client"; "--port"; Load.field ready "port"; "--seconds";
                string_of_float seconds; "--write-pct"; "5"; "--depth"; string_of_int depth;
                "--seed"; string_of_int (100 + i); "--first"; Load.field ready "first";
                "--last"; Load.field ready "last" ])
    in
    let results = List.map (fun c -> Load.reply c "RESULT") clients in
    let stats = Load.tagged "STAT" (Load.stop server) in
    let sum key = List.fold_left (fun a r -> a + int_of_string (Load.field r key)) 0 results in
    let secs =
      List.fold_left (fun a r -> Float.max a (float_of_string (Load.field r "secs"))) 0.0 results
    in
    let qps = float_of_int (sum "ops") /. secs in
    ( qps,
      List.map string_of_int [ readers; sum "ops"; sum "traversals"; sum "commits"; sum "errors" ]
      @ [ Printf.sprintf "%.2f" secs; Printf.sprintf "%.0f" qps;
          Option.value (List.assoc_opt "server.req.traverse" stats) ~default:"0" ] )
  in
  let runs = List.map (fun readers -> (readers, run readers)) [ 1; 2; 4 ] in
  let qps_of r = fst (List.assoc r runs) in
  R.table
    ~headers:
      [ "reader domains"; "ops"; "traversals"; "commits"; "client errors";
        "wall (s)"; "qps"; "served traverses"; "speedup vs 1" ]
    (List.map (fun (_, (qps, cells)) -> cells @ [ Printf.sprintf "%.2fx" (qps /. qps_of 1) ]) runs);
  (* Scaling gate: only meaningful with enough cores for 4 readers + a
     writer + a frontend to actually run in parallel.  On smaller
     machines the rows above are still real measurements; the gate
     reports itself skipped rather than lying either way. *)
  let cores = Domain.recommended_domain_count () in
  let scaling = qps_of 4 /. qps_of 1 in
  R.gate ~name:"qps(4 readers) >= 2x qps(1 reader)"
    ?skip:(if cores >= 4 then None else Some (Printf.sprintf "%d cores" cores))
    ~ok:(scaling >= 2.0)
    (Printf.sprintf "%d cores; qps x1 %.0f, x4 %.0f; scaling %.2fx" cores (qps_of 1) (qps_of 4)
       scaling)

(* ================================================================== *)
(* E18: flight-recorder overhead — always-on observability must not    *)
(* perturb the engine                                                  *)

let e18 () =
  let layers, width, rounds = plan_size () in
  let reps = if !fast then 1 else 3 in
  (* The E13 incremental workload: cpu seconds for the editing loop and
     the full engine counter snapshot. *)
  let run_once () =
    let p = W.plan ~strategy:Engine.Cactis ~layers ~width in
    let t0 = Sys.time () in
    W.plan_edits p ~rounds;
    let elapsed = Sys.time () -. t0 in
    (elapsed, Cactis_util.Counters.snapshot (Db.counters (W.M.db p.W.m)))
  in
  let best recording =
    Cactis_obs.Flight.set_recording recording;
    let best_t = ref infinity in
    let snap = ref [] in
    let events = ref 0 in
    for _ = 1 to reps do
      Cactis_obs.Flight.reset ();
      let t, s = run_once () in
      if t < !best_t then best_t := t;
      snap := s;
      let d = Cactis_obs.Flight.snapshot () in
      events :=
        List.fold_left
          (fun a (sec : Cactis_obs.Flight.section) -> a + sec.Cactis_obs.Flight.fs_total)
          0 d.Cactis_obs.Flight.d_sections
    done;
    (!best_t, !snap, !events)
  in
  let t_on, snap_on, events_on = best true in
  let t_off, snap_off, events_off = best false in
  Cactis_obs.Flight.set_recording true;
  Cactis_obs.Flight.reset ();
  let overhead_pct = if t_off > 0.0 then (t_on -. t_off) /. t_off *. 100.0 else 0.0 in
  R.table
    ~headers:[ "recording"; "best-of cpu (s)"; "flight events"; "engine counters" ]
    [
      [ "on"; Printf.sprintf "%.3f" t_on; string_of_int events_on;
        string_of_int (List.length snap_on) ];
      [ "off"; Printf.sprintf "%.3f" t_off; string_of_int events_off;
        string_of_int (List.length snap_off) ];
    ];
  (* The observability layer must be invisible to the engine: every
     counter the workload bumps must come out bit-identical whether the
     ring was recording or not. *)
  R.gate ~name:"counters bit-identical on vs off" ~ok:(snap_on = snap_off)
    (Printf.sprintf "%d counter cells on, %d off" (List.length snap_on) (List.length snap_off));
  R.gate ~name:"no events while off" ~ok:(events_off = 0)
    (Printf.sprintf "%d events recorded off" events_off);
  (* The cpu gate only judges full runs: --fast does one short rep and a
     single noisy measurement would fail good code. *)
  R.gate ~name:"recording overhead <= 5%" ?skip:(if !fast then Some "--fast" else None)
    ~ok:(overhead_pct <= 5.0) (Printf.sprintf "overhead %+.2f%%" overhead_pct)

(* ================================================================== *)
(* E19: abstract-interpretation cost model + [Far86] fixed points      *)

let e19 () =
  let module Cost = Cactis_analysis.Cost in
  let module Fixpoint = Cactis_analysis.Fixpoint in
  let module View = Cactis_analysis.View in
  let module Depgraph = Cactis_analysis.Depgraph in
  (* 1. Planner-grade per-attribute cost intervals over app schemas. *)
  let cost_rows name sch =
    let c = Cost.analyze_schema sch in
    List.filter_map
      (fun (a : Cost.attr_cost) ->
        (* Intrinsics are free (direct cost exactly [0,0]); everything
           else is a rule worth a row, shaped or not. *)
        let free =
          a.Cost.ac_direct.Cost.lo = 0. && a.Cost.ac_direct.Cost.hi = Some 0.
        in
        if free then None
        else
          Some
            [
              name;
              a.Cost.ac_type ^ "." ^ a.Cost.ac_attr;
              (match a.Cost.ac_shape with Some s -> Schema.shape_name s | None -> "-");
              Cost.interval_to_string a.Cost.ac_direct;
              Cost.interval_to_string a.Cost.ac_cumulative;
            ])
      c.Cost.per_attr
  in
  R.table
    ~headers:[ "schema"; "attribute"; "shape"; "direct"; "cumulative" ]
    (cost_rows "milestone" (Db.schema (Cactis_apps.Milestone.db (Cactis_apps.Milestone.create ())))
    @ cost_rows "flowan" (Cactis_apps.Flowan.schema ()));
  (* 2. Invariance in instance count: the static cost pass never touches
     instances, so its runtime is flat while the database grows. *)
  let inv_rows =
    List.map
      (fun instances ->
        let sch = Db.schema (Cactis_apps.Milestone.db (Cactis_apps.Milestone.create ())) in
        let db = Db.create sch in
        for _ = 1 to instances do
          ignore (Db.create_instance db "milestone")
        done;
        ignore db;
        let t0 = Unix.gettimeofday () in
        let c = Cost.analyze_schema sch in
        let dt = Unix.gettimeofday () -. t0 in
        [
          string_of_int instances;
          string_of_int (List.length c.Cost.per_attr);
          string_of_int c.Cost.convergent_sccs;
          string_of_int c.Cost.divergent_sccs;
          Printf.sprintf "%.1f" (dt *. 1e6);
        ])
      (scale [ 0; 1000; 10000 ])
  in
  R.table
    ~headers:[ "instances"; "attrs costed"; "convergent sccs"; "divergent sccs"; "wall us" ]
    inv_rows;
  (* 3. Fixed-point evaluation: flowan While-loop CFGs of growing body
     size, measured sweeps against the static iteration bound. *)
  let module F = Cactis_apps.Flowan in
  let loop_program n =
    let body =
      List.fold_left
        (fun acc k ->
          let a =
            F.Assign
              { target = "i"; uses = [ "i" ]; label = Printf.sprintf "L%d" k }
          in
          match acc with None -> Some a | Some p -> Some (F.Seq (p, a)))
        None
        (List.init n (fun k -> k))
      |> Option.get
    in
    F.Seq
      ( F.Assign { target = "i"; uses = []; label = "init" },
        F.Seq (F.While { cond_uses = [ "i" ]; body }, F.Assign { target = "r"; uses = [ "i" ]; label = "out" }) )
  in
  let over = ref 0 in
  let fp_rows =
    List.map
      (fun n ->
        let t = F.analyze ~fixed_point:true ~exit_live:[ "r" ] (loop_program n) in
        let db = F.db t in
        let nodes = F.nodes t in
        let v = View.of_schema (Db.schema db) in
        let g = Depgraph.build v in
        let bound =
          List.fold_left
            (fun acc scc ->
              match
                Fixpoint.iteration_bound ~instances:(List.length nodes)
                  (Fixpoint.classify v g scc)
              with
              | Some b -> acc + b
              | None -> acc)
            0 (Depgraph.cyclic_sccs g)
        in
        List.iter
          (fun id ->
            ignore (F.live_in t id);
            ignore (F.reaching_out t id))
          nodes;
        let snap = Cactis_util.Counters.snapshot (Db.counters db) in
        let get k = try List.assoc k snap with Not_found -> 0 in
        let runs = get "fixpoint_runs" and sweeps = get "fixpoint_sweeps" in
        if sweeps > bound then incr over;
        [
          string_of_int n;
          string_of_int (List.length nodes);
          string_of_int runs;
          string_of_int sweeps;
          string_of_int bound;
        ])
      (scale [ 2; 8; 32 ])
  in
  R.table
    ~headers:[ "loop body"; "cfg nodes"; "fixpoint runs"; "sweeps"; "static bound" ]
    fp_rows;
  R.gate ~name:"sweeps within the static bound" ~ok:(!over = 0)
    (Printf.sprintf "%d of %d loops over their bound" !over (List.length fp_rows))

(* ================================================================== *)
(* E20: WAL-shipping replication — follower lag and catch-up           *)

module Repl_publisher = Cactis_repl.Publisher
module Repl_follower = Cactis_repl.Follower
module Integrity = Cactis.Integrity

(* Writer child: OCB database + Persist + Publisher.  Populating before
   attach forces a baseline checkpoint, so a fresh follower exercises
   the documented bootstrap path (snapshot + log catch-up) rather than
   replaying the populate.  After the paced commit burst — with one
   mid-burst checkpoint, so live followers ride across a generation
   mark — the writer announces its settled head and snapshot digest,
   then keeps serving until SIGTERM. *)
let repl_serve_main () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let await_stop = Load.trap_sigterm () in
  let objects = child_int "--objects" 400 in
  let commits = child_int "--commits" 1000 in
  let seed = child_int "--seed" 7 in
  let dir = temp_dir () in
  let db = W.make_ocb_db () in
  let ids = W.ocb_populate db (Rng.create seed) ~objects ~fanout:3 in
  let p = Persist.attach ~sync_every:0 ~dir db in
  let pub = Repl_publisher.start ~config:(Repl_publisher.config ~heartbeat_s:0.1 ()) p in
  Printf.printf "READY port=%d\n%!" (Repl_publisher.port pub);
  let rng = Rng.create (seed + 1) in
  let n = Array.length ids in
  for k = 1 to commits do
    Db.with_txn db (fun () -> Db.set db ids.(Rng.int rng n) "payload" (int k));
    if k = commits / 2 then Persist.checkpoint p;
    (* Pace the burst so live followers measure real streaming lag
       rather than one giant backlog flush. *)
    if k mod 100 = 0 then Unix.sleepf 0.005
  done;
  (* The head gauge trails commits still in the publisher queue: wait
     for it to stop moving before announcing it. *)
  let rec settle last =
    Unix.sleepf 0.1;
    let h = Repl_publisher.head_seq pub in
    if h <> last then settle h else h
  in
  let head = settle (Repl_publisher.head_seq pub) in
  Printf.printf "DONE head=%d digest=%s\n%!" head
    (Digest.to_hex (Digest.string (Snapshot.save_binary db)));
  await_stop ();
  Repl_publisher.stop pub;
  List.iter
    (fun (k, v) ->
      if String.length k >= 5 && String.sub k 0 5 = "repl." then
        Printf.printf "STAT %s=%d\n" k v)
    (Cactis_util.Counters.snapshot (Db.counters db));
  Persist.close p;
  rm_rf dir;
  exit 0

(* Follower child.  [--mode live] connects while the burst is running
   and streams through it, stopping once synced against a head that has
   stopped moving; [--mode late] connects after the burst and measures
   pure catch-up time to at least [--min-head]. *)
let repl_follow_main () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let port = child_int "--port" 0 in
  let mode = child_arg "--mode" "live" in
  let min_head = child_int "--min-head" (-1) in
  let f =
    Repl_follower.create
      ~config:(Repl_follower.config ~heartbeat_timeout_s:5.0 ~check_every:64 ())
      ~make_schema:W.ocb_schema ~host:"127.0.0.1" ~port ()
  in
  let t0 = Unix.gettimeofday () in
  if mode = "late" then Repl_follower.run ~until_synced:true f
  else begin
    let d = Domain.spawn (fun () -> try Repl_follower.run f with _ -> ()) in
    let deadline = t0 +. 120.0 in
    let rec wait_stable stable_since last =
      if Unix.gettimeofday () > deadline then failwith "repl-follow: no stable sync";
      let h = Repl_follower.head_seq f in
      let synced = h >= 0 && Repl_follower.applied_seq f >= h in
      if not (synced && h = last && Unix.gettimeofday () -. stable_since >= 0.8) then begin
        Unix.sleepf 0.05;
        if synced && h = last then wait_stable stable_since last
        else wait_stable (Unix.gettimeofday ()) h
      end
    in
    wait_stable (Unix.gettimeofday ()) (-2);
    Repl_follower.stop f;
    Domain.join d
  end;
  let catchup_s = Unix.gettimeofday () -. t0 in
  let fdb =
    match Repl_follower.db f with Some db -> db | None -> failwith "repl-follow: no replica"
  in
  if min_head >= 0 && Repl_follower.applied_seq f < min_head then
    failwith
      (Printf.sprintf "repl-follow: applied %d short of writer head %d"
         (Repl_follower.applied_seq f) min_head);
  let lag =
    List.find_opt
      (fun (s : Cactis_obs.Histogram.stats) -> s.st_name = "repl.lag_s")
      (Cactis_obs.Histogram.snapshot (Db.obs fdb).Cactis_obs.Ctx.hists)
  in
  let p50, p99 =
    match lag with Some s -> (s.st_p50 *. 1e6, s.st_p99 *. 1e6) | None -> (0.0, 0.0)
  in
  let c name = Cactis_util.Counters.get (Db.counters fdb) name in
  Printf.printf
    "RESULT mode=%s catchup_s=%.3f lag_p50_us=%.0f lag_p99_us=%.0f records=%d bootstraps=%d \
     gaps=%d integrity=%d digest=%s\n%!"
    mode catchup_s p50 p99 (c "repl.records") (c "repl.bootstraps") (c "repl.gaps")
    (List.length (Integrity.check fdb))
    (Digest.to_hex (Digest.string (Snapshot.save_binary fdb)));
  exit 0

let e20 () =
  let objects = if !fast then 200 else 1000 in
  let commits = if !fast then 600 else 4000 in
  let writer =
    Load.spawn
      ~args:
        [ "repl-serve"; "--objects"; string_of_int objects; "--commits";
          string_of_int commits; "--seed"; "7" ]
  in
  let port = Load.field (Load.until writer "READY") "port" in
  (* Two live followers stream through the burst... *)
  let live =
    List.init 2 (fun _ -> Load.spawn ~args:[ "repl-follow"; "--port"; port; "--mode"; "live" ])
  in
  let done_ = Load.until ~timeout_s:300. writer "DONE" in
  let wdigest = Load.field done_ "digest" in
  (* ...and a late follower measures snapshot-bootstrap catch-up to the
     writer's announced head. *)
  let late =
    Load.spawn
      ~args:[ "repl-follow"; "--port"; port; "--mode"; "late"; "--min-head"; Load.field done_ "head" ]
  in
  let results = List.map (fun c -> Load.reply c "RESULT") (live @ [ late ]) in
  let stats = Load.tagged "STAT" (Load.stop writer) in
  let get = Load.field in
  R.table
    ~headers:
      [ "follower"; "sync (s)"; "lag p50 (us)"; "lag p99 (us)"; "records"; "bootstraps";
        "gaps"; "integrity"; "digest = writer" ]
    (List.mapi
       (fun i r ->
         [
           (if get r "mode" = "live" then Printf.sprintf "live %d" (i + 1)
            else "late (catch-up)");
           get r "catchup_s"; get r "lag_p50_us"; get r "lag_p99_us";
           get r "records"; get r "bootstraps"; get r "gaps"; get r "integrity";
           (if get r "digest" = wdigest then "yes" else "NO");
         ])
       results);
  R.table ~headers:[ "writer stat"; "value" ]
    (List.map (fun (k, v) -> [ k; v ]) (List.sort compare stats));
  let replicas field expected = List.for_all (fun r -> get r field = expected) results in
  let n = Printf.sprintf "%d replicas" (List.length results) in
  R.gate ~name:"snapshot digest = writer's" ~ok:(replicas "digest" wdigest) n;
  R.gate ~name:"integrity audit clean" ~ok:(replicas "integrity" "0") n;
  R.gate ~name:"no sequence gaps" ~ok:(replicas "gaps" "0") n

(* ================================================================== *)
(* The experiments, in run order.  The driver prints each one's section
   header, runs it, then prints its gates table (if it has gates).     *)

type experiment = { id : string; title : string; claim : string; run : unit -> unit }

let experiments =
  [
    { id = "F1"; run = f1; title = "Figure 1: milestone class (DDL)";
      claim = "milestone expected-completion dates ripple along dependencies; late flags derive" };
    { id = "F2"; run = f2; title = "Figures 2-4: make facility";
      claim = "dependency+modtime rules trigger exactly the necessary recompilations, in order" };
    { id = "E1"; run = e1; title = "incremental evaluation vs recompute-all";
      claim = "\"recompute all attribute values every time a change is made ... is clearly too \
         expensive\"; the incremental algorithm evaluates only attributes that changed" };
    { id = "E2"; run = e2; title = "fixed-order triggers vs two-phase algorithm";
      claim = "\"[a fixed-order trigger mechanism] in the worst case can recompute an exponential \
         number of values\"; Cactis \"will not evaluate any given attribute more than once\"" };
    { id = "E3"; run = e3; title = "repeated assignment before propagation";
      claim = "\"if an attribute A were assigned 2 different values in a row ... the second \
         assignment would only update A ... and hence incur only O(1) overhead\"" };
    { id = "E4"; run = e4; title = "deferred evaluation of unimportant attributes";
      claim = "\"the calculation of attribute values which are not important may be deferred, as \
         they have no immediate affect on the database\"" };
    { id = "E5"; run = e5; title = "usage-count clustering";
      claim = "\"this algorithm attempts to place instances which are frequently referenced \
         together, in the same block ... tighten[ing] the locality of reference\"" };
    { id = "E6"; run = e6; title = "greedy in-memory-first scheduling vs fixed order";
      claim = "\"sub-traversal processes which can be executed without disk access are given \
         highest scheduling priority ... [then] smallest expected number of disk accesses\"" };
    { id = "E7"; run = e7; title = "undo deltas proportional to primitive changes";
      claim = "\"the information needed to remember a delta is proportional in size to the initial \
         changes made to the database rather than the total change ... because of derived data\"" };
    { id = "E8"; run = e8; title = "constraint enforcement, rollback and recovery";
      claim = "\"whenever an attribute which is designated as testing a constraint evaluates to \
         false, rollback of the current transaction is performed\" (or a recovery action runs)" };
    { id = "E9"; run = e9; title = "multi-user operation (timestamp ordering)";
      claim = "Cactis \"uses a timestamping concurrency control technique\" (§1.1); committed \
         schedules are serializable in timestamp order" };
    { id = "E10"; run = e10; title = "overhead bounded by the reachable dependency subgraph";
      claim = "\"the overhead of the algorithm ... is O(Nodes(Could_Change(A)) + \
         Edges(Could_Change(A)))\"" };
    { id = "E11"; run = e11; title = "distributed placement (directions, §5)";
      claim = "\"different users at different machines ... share information\"; the usage-driven \
         clustering doubles as a partitioner minimizing cross-site traversal messages" };
    { id = "E12"; run = e12; title = "attribute index vs scan (OODB indexing, cf. [MaS86])";
      claim = "an incremental hash index answers value lookups by touching only stale instances, \
         where a scan touches the whole extent on every query" };
    { id = "E13"; run = e13; title = "macro: project plan under a stream of slips and queries";
      claim = "the paper's motivating application — \"changing the expected completion date for one \
         milestone may have effects that ripple throughout ... the system\" — end to end" };
    { id = "E14"; run = e14; title = "persistence: binary snapshots + write-ahead delta log";
      claim = "\"we need only remember the small changes made in order to restore the database\" (§3) \
         applied to the disk: binary checkpoints for bulk save/load, O(delta) log records for \
         durable commits" };
    { id = "E15"; run = e15; title = "static schema analysis cost";
      claim = "the circularity test and lint passes run on the type-level graph: cost scales with \
         declared schema size, never with instance count" };
    { id = "E16"; run = e16; title = "real-disk clustering shoot-out + incremental maintenance";
      claim = "\"this algorithm attempts to place instances which are frequently referenced \
         together, in the same block\" (§2.3) — strategies compared on a real block file, \
         OCB-style traversal workload" };
    { id = "E17"; run = e17; title = "sustained QPS: domain-parallel snapshot reads behind TCP";
      claim = "the paper's closing direction — \"various sub-traversals ... actually running at the \
         same time\"; read throughput should scale with reader domains" };
    { id = "E18"; run = e18; title = "flight recorder overhead: E13 incremental workload, recording on vs off";
      claim = "the ring records every txn/WAL/pager event in production; this run proves the \
         instrumentation neither perturbs the engine's counters nor costs measurable cpu" };
    { id = "E19"; run = e19; title = "cost/convergence abstract interpretation + fixed-point evaluation";
      claim = "per-attribute cost intervals and convergence verdicts come from the type-level graph \
         alone — analyzer runtime is invariant in instance count — and convergent cycles \
         evaluate to fixed points within the statically computed sweep bound" };
    { id = "E20"; run = e20; title = "WAL-shipping replication: follower lag and catch-up";
      claim = "scaling reads with replicas — a writer ships its commit log to read-only followers; \
         convergence must be exact (binary-snapshot digests), streaming lag bounded, and a \
         late follower's snapshot-bootstrap catch-up fast" };
    { id = "T"; run = timing; title = "wall-clock timing (Bechamel)";
      claim = "relative costs of the strategies on the headline workloads" };
  ]

let () =
  (* Child roles for the E17/E20 multi-process load drivers run before
     ordinary argument parsing (their argv is not experiment ids). *)
  if Array.length Sys.argv > 1 then begin
    match Sys.argv.(1) with
    | "qps-serve" -> qps_serve_main ()
    | "qps-client" -> qps_client_main ()
    | "repl-serve" -> repl_serve_main ()
    | "repl-follow" -> repl_follow_main ()
    | _ -> ()
  end;
  let json = ref false in
  let json_path = ref "BENCH_1.json" in
  let selected = ref [] in
  let expect_path = ref false in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        if !expect_path && Filename.check_suffix arg ".json" then begin
          expect_path := false;
          json_path := arg
        end
        else begin
          expect_path := false;
          match arg with
          | "--fast" -> fast := true
          | "--json" ->
              json := true;
              expect_path := true
          | id -> selected := id :: !selected
        end)
    Sys.argv;
  let ids = List.map (fun e -> e.id) experiments in
  (match List.filter (fun id -> not (List.mem id ids)) !selected with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown experiment ids: %s; valid ids: %s\n"
      (String.concat ", " (List.rev unknown)) (String.concat " " ids);
    exit 2);
  if !json then R.enable_capture ();
  print_endline "Cactis reproduction - experiment harness";
  print_endline "(counts are deterministic; see EXPERIMENTS.md for the paper-vs-measured record)";
  let failed =
    List.concat_map
      (fun e ->
        if !selected <> [] && not (List.mem e.id !selected) then []
        else begin
          R.section e.id e.title e.claim;
          e.run ();
          List.map (fun gate -> e.id ^ ": " ^ gate) (R.close_gates ())
        end)
      experiments
  in
  if !json then begin
    R.write_json !json_path;
    Printf.printf "\nwrote %s\n" !json_path
  end;
  if failed <> [] then begin
    Printf.eprintf "FAILED gates:\n  %s\n" (String.concat "\n  " failed);
    exit 1
  end
