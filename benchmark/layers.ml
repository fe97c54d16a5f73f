(* Reading a database's layers from outside: the counters and
   always-on latency histograms the library already keeps, summed over
   one or more databases (a writer and its replicas), and the span
   probes built from them.  Nothing here instruments the library. *)

module Db = Cactis.Db
module Histogram = Cactis_obs.Histogram
module Counters = Cactis_util.Counters
module Pager = Cactis_storage.Pager
module Disk = Cactis_storage.Disk
module Buffer_pool = Cactis_storage.Buffer_pool

let counter_keys = [ "rule_evals"; "mark_visits"; "mark_cutoffs"; "recluster_moves" ]

let hist_keys =
  [ "commit"; "mark_wave"; "eval_wave"; "propagate"; "wal_append"; "wal_fsync"; "recluster_step" ]

type snap = {
  counts : (string * int) list;  (* counters, plus disk and pool statistics *)
  hists : (string * (int * float)) list;  (* name -> (count, sum seconds) *)
}

let pager db = Cactis.Store.pager (Db.store db)

let snap dbs =
  let sum f = List.fold_left (fun a db -> a + f db) 0 dbs in
  let counts =
    List.map (fun k -> (k, sum (fun db -> Counters.get (Db.counters db) k))) counter_keys
    @ [
        ("disk_reads", sum (fun db -> Disk.reads (Pager.disk (pager db))));
        ("pool_hits", sum (fun db -> Buffer_pool.hits (Pager.pool (pager db))));
        ("pool_misses", sum (fun db -> Buffer_pool.misses (Pager.pool (pager db))));
        ("writebacks", sum (fun db -> Buffer_pool.writebacks (Pager.pool (pager db))));
      ]
  in
  let hists =
    List.map
      (fun k ->
        List.fold_left
          (fun (k, (n, s)) db ->
            match
              List.find_opt
                (fun st -> st.Histogram.st_name = k)
                (Histogram.snapshot (Db.obs db).Cactis_obs.Ctx.hists)
            with
            | Some st -> (k, (n + st.Histogram.st_count, s +. st.Histogram.st_sum))
            | None -> (k, (n, s)))
          (k, (0, 0.0))
          dbs)
      hist_keys
  in
  { counts; hists }

let diff ~before ~after =
  {
    counts = List.map (fun (k, v) -> (k, v - List.assoc k before.counts)) after.counts;
    hists =
      List.map
        (fun (k, (n, s)) ->
          let n0, s0 = List.assoc k before.hists in
          (k, (n - n0, s -. s0)))
        after.hists;
  }

let count d k = List.assoc k d.counts
let hist_count d k = fst (List.assoc k d.hists)

(* Mean of a histogram over the delta, microseconds (0 when it saw
   nothing: the layer did not run). *)
let hist_mean_us d k =
  let n, s = List.assoc k d.hists in
  if n = 0 then 0.0 else s /. float_of_int n *. 1e6

let per n x = if n = 0 then 0.0 else float_of_int x /. float_of_int n

let hit_rate d =
  let h = count d "pool_hits" and m = count d "pool_misses" in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

(* Span probes over [dbs]: work counters read at every span boundary,
   and the layer timers whose time inside a span is credited to their
   layer — engine (mark and evaluation waves), wal (append, fsync
   included) and storage (re-clustering slices).  Cells are cached:
   the caller's domain must be the one the databases run on. *)
let probes dbs =
  let cells k = List.map (fun db -> Counters.cell (Db.counters db) k) dbs in
  let total cs = List.fold_left (fun a c -> a + !c) 0 cs in
  let evals = cells "rule_evals" and marks = cells "mark_visits" and misses = cells "block_misses" in
  let disks = List.map (fun db -> Pager.disk (pager db)) dbs in
  let hcells k = List.map (fun db -> Histogram.cell (Db.obs db).Cactis_obs.Ctx.hists k) dbs in
  let hsum hs = List.fold_left (fun a h -> a +. Histogram.sum h) 0.0 hs in
  let engine = hcells "mark_wave" @ hcells "eval_wave" in
  let wal = hcells "wal_append" in
  let storage = hcells "recluster_step" @ hcells "recluster_plan" in
  {
    Span.counter_names = [| "rule_evals"; "mark_visits"; "block_misses"; "disk_reads" |];
    read_counters =
      (fun () ->
        [|
          total evals;
          total marks;
          total misses;
          List.fold_left (fun a d -> a + Disk.reads d) 0 disks;
        |]);
    timer_layers = [| "engine"; "wal"; "storage" |];
    read_timers = (fun () -> [| hsum engine; hsum wal; hsum storage |]);
  }

(* Every per-layer metric, in BENCHMARK.json order.  A layer a workload
   does not exercise reports 0. *)
let per_layer_names =
  [
    "net.read_overhead_us"; "net.commit_overhead_us"; "net.proto_codec_us_per_op";
    "server.read_service_mean_us"; "server.commit_service_mean_us"; "server.read_wait_us";
    "replica.apply_us_per_commit"; "engine.rule_evals_per_op"; "engine.mark_visits_per_op";
    "engine.mark_cutoffs_per_op"; "engine.mark_wave_mean_us"; "engine.eval_wave_mean_us";
    "engine.propagate_mean_us"; "db.commit_mean_us"; "db.delta_ops_per_commit";
    "codec.delta_bytes_per_commit"; "codec.encode_delta_us"; "codec.decode_delta_us";
    "snapshot.save_s"; "snapshot.load_s"; "wal.append_mean_us"; "wal.fsync_mean_us";
    "wal.fsyncs_per_commit"; "wal.bytes_per_commit"; "persist.recover_s"; "persist.replay_s";
    "persist.records_replayed"; "pager.block_reads_per_op"; "pager.hit_rate";
    "pager.writebacks_per_op"; "cluster.recluster_moves"; "cluster.recluster_step_mean_us";
    "trace_overhead_pct";
  ]

let units =
  [
    ("engine.rule_evals_per_op", "count"); ("engine.mark_visits_per_op", "count");
    ("engine.mark_cutoffs_per_op", "count"); ("db.delta_ops_per_commit", "count");
    ("codec.delta_bytes_per_commit", "bytes"); ("snapshot.save_s", "s"); ("snapshot.load_s", "s");
    ("wal.fsyncs_per_commit", "count"); ("wal.bytes_per_commit", "bytes");
    ("persist.recover_s", "s"); ("persist.replay_s", "s"); ("persist.records_replayed", "count");
    ("pager.block_reads_per_op", "count"); ("pager.hit_rate", "ratio");
    ("pager.writebacks_per_op", "count"); ("cluster.recluster_moves", "count");
    ("trace_overhead_pct", "%");
  ]

let unit_of name = match List.assoc_opt name units with Some u -> u | None -> "us"
