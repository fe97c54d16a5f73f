(* In-process replay of a served workload, for the traced run.

   The same data and the same seeded operation streams (the two
   clients' streams, alternating) go through the public functions the
   server calls, in the server's order, each inside a span:

   client   Proto.encode_req, Frame.encode
   server   Proto.decode_req, Partition.site_of_range
   writer   Db.with_txn (Persist's WAL hook, then the broadcast
            Codec.encode_delta chained after it, run inside)
   readers  Db.get or the traversal, on the routed replica
   server   Proto.encode_resp, Frame.encode
   client   Proto.decode_resp
   replicas for a commit, after its reply: Codec.decode_delta,
            Db.replay_delta and Engine.propagate on every reader

   The replicated apply comes after the reply because the server acks
   a commit once the delta is queued to the readers; they apply it
   asynchronously.  A fixed number of operations is replayed, so the
   work counts repeat exactly for a seed. *)

module Db = Cactis.Db
module Value = Cactis.Value
module Codec = Cactis.Codec
module Snapshot = Cactis.Snapshot
module Persist = Cactis.Persist
module Proto = Cactis_net.Proto
module Frame = Cactis_net.Frame
module Partition = Cactis_dist.Partition

let ops_for ~tiny = function
  | Wl.Browse -> if tiny then 300 else 6_000
  | _ -> if tiny then 300 else 3_000

let traverse ~sp db ~root ~depth =
  Span.with_span sp ~layer:"reader" "traverse" (fun () ->
      Embedded.traverse db ~root ~depth)

let main () =
  let w = Option.get (Wl.of_string (Proc.arg "--workload" "")) in
  let tiny = Proc.arg "--size" "full" = "tiny" in
  let op_seed = Proc.arg_int "--op-seed" 1 in
  let data_seed = Proc.arg_int "--data-seed" 1 in
  let sz = Wl.size ~tiny w in
  let writer, ids, make_schema = Served.build w sz ~data_seed in
  let persist =
    match w with
    | Wl.Plan_edit ->
      Some (Persist.attach ~sync_every:Served.sync_every ~dir:(Proc.arg "--dir" "wal") writer)
    | _ -> None
  in
  let t0 = Proc.now () in
  let image = Snapshot.save_binary writer in
  Proc.metric "snapshot.save_s" (Proc.since t0);
  let t0 = Proc.now () in
  let replicas = Array.init Wl.readers (fun _ -> Snapshot.load_binary (make_schema ()) image) in
  Proc.metric "snapshot.load_s" (Proc.since t0 /. float_of_int Wl.readers);
  let partition = Partition.by_range ~ids:(Array.to_list ids) ~sites:Wl.readers in
  let all = writer :: Array.to_list replicas in
  let sp = Span.create ~probes:(Layers.probes all) ~tid:1 () in
  (* The broadcast encode, chained after the WAL hook as the server
     chains it. *)
  let last_delta = ref "" and delta_ops = ref 0 and delta_bytes = ref 0 in
  let prior = Db.commit_hook writer in
  Db.set_commit_hook writer
    (Some
       (fun d ->
         (match prior with Some f -> f d | None -> ());
         delta_ops := !delta_ops + Cactis.Txn.size d;
         let enc = Span.with_span sp ~layer:"codec" "Codec.encode_delta" (fun () -> Codec.encode_delta d) in
         delta_bytes := !delta_bytes + String.length enc;
         last_delta := enc));
  let reach =
    match w with Wl.Browse -> Embedded.reach_of (Wl.ocb ~data_seed sz) | _ -> fun _ -> 0
  in
  let first = ids.(0) in
  let streams =
    Array.init Wl.clients (fun d -> Wl.stream w ~op_seed ~stream_id:d ~population:(Array.length ids) ~width:sz.Wl.width)
  in
  (* As the live warm-up does: ask [late] of every milestone once, so
     the replicas watch all of them before counting starts. *)
  if w = Wl.Plan_edit then
    for i = 1 to Array.length ids - 1 do
      let site = Partition.site_of_range partition ids.(i) in
      ignore (Db.get replicas.(site) ids.(i) "late")
    done;
  let version = ref 0 and commits = ref 0 and failed = ref 0 in
  let exec_ns = Hashtbl.create 4 in
  let net = [ "Proto.encode_req"; "Proto.decode_req"; "Proto.encode_resp"; "Proto.decode_resp"; "Frame.encode" ] in
  let n = ops_for ~tiny w in
  let wal0 = Option.map Persist.wal_bytes persist in
  let before = Layers.snap all in
  let req_id = ref 0 in
  for k = 0 to n - 1 do
    let op = streams.(k mod Wl.clients) () in
    let verb = Wl.verb op in
    (* The requests a client sends for the operation, in order. *)
    let reqs =
      match op with
      | Wl.Traverse i ->
        [ Proto.Traverse { min_version = 0; root = first + i; rel = "refs"; attr = "payload"; depth = Wl.depth } ]
      | Wl.Set_payload l ->
        [
          Proto.Commit
            (List.map (fun (i, v) -> Proto.Set { instance = first + i; attr = "payload"; value = Value.Int v }) l);
        ]
      | Wl.Set_work (i, x) ->
        [ Proto.Commit [ Proto.Set { instance = first + i; attr = "local_work"; value = Value.Float x } ] ]
      | Wl.Ask i ->
        [
          Proto.Read { min_version = !version; instance = first; attr = "exp_compl" };
          Proto.Read { min_version = !version; instance = first + i; attr = "late" };
        ]
    in
    let net_span name f = Span.with_span sp ~layer:"net" name f in
    let serve req =
      incr req_id;
      let env = { Proto.req_id = !req_id; span_id = 0 } in
      let wire = net_span "Proto.encode_req" (fun () -> Proto.encode_req env req) in
      ignore (net_span "Frame.encode" (fun () -> Frame.encode wire));
      let x0 = Proc.now () in
      let _, req = net_span "Proto.decode_req" (fun () -> Proto.decode_req wire) in
      let resp, apply =
        match req with
        | Proto.Commit updates ->
          last_delta := "";
          let ok =
            try
              Span.with_span sp ~layer:"db" "Db.with_txn" (fun () ->
                  Db.with_txn writer (fun () ->
                      List.iter
                        (function
                          | Proto.Set { instance; attr; value } -> Db.set writer instance attr value
                          | _ -> ())
                        updates));
              true
            with _ -> false
          in
          if not ok then incr failed;
          incr version;
          incr commits;
          (Proto.Committed { version = !version; created = [] }, ok && !last_delta <> "")
        | Proto.Read { instance; attr; _ } ->
          let site = Span.with_span sp ~layer:"server" "Partition.site_of_range" (fun () ->
              Partition.site_of_range partition instance) in
          let value = Span.with_span sp ~layer:"reader" "Db.get" (fun () -> Db.get replicas.(site) instance attr) in
          (Proto.Value { version = !version; value }, false)
        | Proto.Traverse { root; depth; _ } ->
          let site = Span.with_span sp ~layer:"server" "Partition.site_of_range" (fun () ->
              Partition.site_of_range partition root) in
          let visited = traverse ~sp replicas.(site) ~root ~depth in
          (Proto.Traversed { version = !version; visited; total = Value.Null }, false)
        | _ -> (Proto.Error { code = Proto.E_server; message = "unexpected" }, false)
      in
      let out = net_span "Proto.encode_resp" (fun () -> Proto.encode_resp env resp) in
      let x1 = Proc.now () in
      ignore (net_span "Frame.encode" (fun () -> Frame.encode out));
      ignore (net_span "Proto.decode_resp" (fun () -> Proto.decode_resp out));
      let key = match req with Proto.Commit _ -> "commit" | _ -> "read" in
      let ns, cnt = Option.value ~default:(0.0, 0) (Hashtbl.find_opt exec_ns key) in
      Hashtbl.replace exec_ns key (ns +. Int64.to_float (Int64.sub x1 x0), cnt + 1);
      if apply then
        Array.iter
          (fun r ->
            Span.with_span sp ~layer:"replica" "replica.apply" (fun () ->
                let d =
                  Span.with_span sp ~layer:"codec" "Codec.decode_delta" (fun () ->
                      Codec.decode_delta !last_delta)
                in
                Span.with_span sp ~layer:"db" "Db.replay_delta" (fun () -> Db.replay_delta r d);
                Span.with_span sp ~layer:"engine" "Engine.propagate" (fun () ->
                    Cactis.Engine.propagate (Db.engine r))))
          replicas;
      resp
    in
    let resps = Span.with_span sp ~layer:"bench" ("op." ^ verb) (fun () -> List.map serve reqs) in
    (* The reference check stays outside the spans. *)
    match (op, resps) with
    | Wl.Traverse i, [ Proto.Traversed { visited; _ } ] -> if visited <> reach i then incr failed
    | _ -> ()
  done;
  let d = Layers.diff ~before ~after:(Layers.snap all) in
  let per_op x = Layers.per n (Layers.count d x) in
  let mean_exec key =
    match Hashtbl.find_opt exec_ns key with
    | Some (ns, c) when c > 0 -> ns /. float_of_int c /. 1e3
    | _ -> 0.0
  in
  Proc.emit "EXEC" [ ("read_us", Proc.f (mean_exec "read")); ("commit_us", Proc.f (mean_exec "commit")) ];
  let net_us = List.fold_left (fun a name -> let _, dur = Span.stats sp name in a +. dur) 0.0 net in
  Proc.metric "net.proto_codec_us_per_op" (net_us /. float_of_int n *. 1e6);
  let _, apply_s = Span.stats sp "replica.apply" in
  Proc.metric "replica.apply_us_per_commit" (if !commits = 0 then 0.0 else apply_s /. float_of_int !commits *. 1e6);
  Proc.metric "engine.rule_evals_per_op" (per_op "rule_evals");
  Proc.metric "engine.mark_visits_per_op" (per_op "mark_visits");
  Proc.metric "engine.mark_cutoffs_per_op" (per_op "mark_cutoffs");
  Proc.metric "engine.mark_wave_mean_us" (Layers.hist_mean_us d "mark_wave");
  Proc.metric "engine.eval_wave_mean_us" (Layers.hist_mean_us d "eval_wave");
  Proc.metric "engine.propagate_mean_us" (Layers.hist_mean_us d "propagate");
  Proc.metric "db.commit_mean_us" (Layers.hist_mean_us d "commit");
  Proc.metric "db.delta_ops_per_commit" (Layers.per !commits !delta_ops);
  Proc.metric "codec.delta_bytes_per_commit" (Layers.per !commits !delta_bytes);
  Proc.metric "codec.encode_delta_us" (Span.mean_us sp "Codec.encode_delta");
  Proc.metric "codec.decode_delta_us" (Span.mean_us sp "Codec.decode_delta");
  Proc.metric "wal.append_mean_us" (Layers.hist_mean_us d "wal_append");
  Proc.metric "wal.fsync_mean_us" (Layers.hist_mean_us d "wal_fsync");
  Proc.metric "wal.fsyncs_per_commit" (Layers.per !commits (Layers.hist_count d "wal_fsync"));
  Proc.metric "wal.bytes_per_commit"
    (match (persist, wal0) with
    | Some p, Some b -> Layers.per !commits (Persist.wal_bytes p - b)
    | _ -> 0.0);
  Proc.metric "pager.block_reads_per_op" (per_op "disk_reads");
  Proc.metric "pager.hit_rate" (Layers.hit_rate d);
  Proc.metric "pager.writebacks_per_op" (per_op "writebacks");
  Proc.metric "cluster.recluster_moves" (float_of_int (Layers.count d "recluster_moves"));
  Proc.metric "cluster.recluster_step_mean_us" (Layers.hist_mean_us d "recluster_step");
  Span.write_part ~pid:3 ~process:"in-process replay" ~thread:"server path" (Proc.arg "--part" "trace.part") sp;
  List.iter
    (fun (layer, s) -> Proc.emit "LAYER" [ ("name", layer); ("self_s", Proc.f s) ])
    (Span.layer_self sp);
  Proc.emit "REPLAYED" [ ("ops", Proc.i n); ("failed", Proc.i !failed) ];
  Option.iter Persist.close persist;
  exit 0
