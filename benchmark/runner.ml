(* One run of one workload, from the parent's side: spawn the children,
   time set-up, collect their reports, run the correctness gates, and
   assemble the metrics.  The parent itself never starts a domain. *)

module Load = Cactis_net.Load
module Client = Cactis_net.Client
module Proto = Cactis_net.Proto
module Db = Cactis.Db
module Value = Cactis.Value

type config = {
  seed : int;
  seconds : float;
  warmup : float;
  trace : bool;
  setups : int;
  tiny : bool;
  dir : string;  (* where run files and traces go *)
}

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let end_to_end =
  [ "setup_s"; "ops_per_s"; "read_p50_us"; "read_p95_us"; "commit_p90_us"; "peak_rss_mb" ]

let e2e_unit = function
  | "setup_s" -> "s"
  | "ops_per_s" -> "1/s"
  | "peak_rss_mb" -> "MiB"
  | _ -> "us"

let unit_of name = if List.mem name end_to_end then e2e_unit name else Layers.unit_of name

(* What the children reported, folded together. *)
type replies = {
  mutable got : (string * float) list;
  mutable tried : int;
  mutable bad : int;
  mutable layers : (string * string * float) list;  (* process, layer, self seconds *)
}

let absorb acc ~proc rs =
  List.iter
    (fun (r : Proc.reply) ->
      match r.Proc.tag with
      | "METRIC" -> List.iter (fun (k, v) -> if k <> "_tag" then acc.got <- (k, float_of_string v) :: acc.got) r.kv
      | "OPS" ->
        acc.tried <- acc.tried + Proc.get_int r "attempted";
        acc.bad <- acc.bad + Proc.get_int r "failed"
      | "GATES" -> acc.bad <- acc.bad + Proc.get_int r "failed"
      | "GATE" ->
        Printf.printf "  gate %-24s %s\n" (Proc.get r "name")
          (if Proc.get r "ok" = "1" then "pass" else "FAIL")
      | "SAMPLES" ->
        let beyond = Proc.get_int r "beyond" in
        Printf.printf "  samples %-15s n=%-8s beyond=%d%s\n" (Proc.get r "metric") (Proc.get r "n") beyond
          (if beyond < 10 && Proc.get_int r "n" > 0 then "  (fewer than 10 beyond: read it as indicative)" else "")
      | "LAYER" -> acc.layers <- (proc, Proc.get r "name", Proc.get_float r "self_s") :: acc.layers
      | _ -> ())
    rs

let m acc k = match List.assoc_opt k acc.got with Some v -> v | None -> 0.0

let common w cfg =
  [
    "--workload"; Wl.to_string w; "--size"; (if cfg.tiny then "tiny" else "full");
    "--data-seed"; Proc.i (Gen.derive cfg.seed 1); "--op-seed"; Proc.i (Gen.derive cfg.seed 2);
    "--warmup"; Proc.f cfg.warmup; "--seconds"; Proc.f cfg.seconds;
    "--trace"; (if cfg.trace then "1" else "0");
  ]

(* A traced run reports no set-up time, so it sets up once. *)
let setup_count cfg = if cfg.trace then 1 else cfg.setups

let work_file cfg name = Filename.concat cfg.dir (Printf.sprintf "%s-%d" name (Unix.getpid ()))

(* ---- served: browse, plan_edit ---- *)

let recovery_gate acc ~wal ~first acks =
  let schema = Gen.plan_schema () in
  let t0 = Proc.now () in
  let p = Cactis.Persist.recover ~dir:wal schema in
  let recover_s = Proc.since t0 in
  let db = Cactis.Persist.db p in
  let lost =
    List.filter
      (fun (r : Proc.reply) ->
        let want = Value.Float (Proc.get_float r "value") in
        not (Value.equal want (Db.get ~watch:false db (first + Proc.get_int r "index") "local_work")))
      acks
  in
  let ship = Db.get db first "exp_compl" in
  let oracle =
    Cactis.Snapshot.load_binary ~strategy:Cactis.Engine.Recompute_all (Gen.plan_schema ())
      (Cactis.Snapshot.save_binary db)
  in
  let same = Value.equal ship (Db.get oracle first "exp_compl") in
  Printf.printf "  gate %-24s %s (%d acknowledged milestones)\n" "recovery.acked_writes"
    (if lost = [] then "pass" else Printf.sprintf "FAIL: %d lost" (List.length lost))
    (List.length acks);
  Printf.printf "  gate %-24s %s\n" "recovery.exp_compl" (if same then "pass" else "FAIL");
  acc.bad <- acc.bad + List.length lost + if same then 0 else 1;
  let replay_s =
    match
      List.find_opt
        (fun st -> st.Cactis_obs.Histogram.st_name = "recovery_replay")
        (Cactis_obs.Histogram.snapshot (Db.obs db).Cactis_obs.Ctx.hists)
    with
    | Some st -> st.Cactis_obs.Histogram.st_sum
    | None -> 0.0
  in
  acc.got <-
    ("persist.recover_s", recover_s)
    :: ("persist.replay_s", replay_s)
    :: ("persist.records_replayed", float_of_int (Cactis.Persist.replayed p))
    :: acc.got;
  Cactis.Persist.close p

(* Mean time over the verbs given, from the load child's [tag] lines
   (a count [n] and a sum [sum_us] per verb, over the traced half):
   client RTT from RTT lines, server service time from SERVICE lines
   (the server's exact histogram sums, not its log2 quantiles). *)
let mean_us replies tag verbs =
  let n, s =
    List.fold_left
      (fun (n, s) (r : Proc.reply) ->
        if r.Proc.tag = tag && List.mem (Proc.get r "verb") verbs then
          (n + Proc.get_int r "n", s +. Proc.get_float r "sum_us")
        else (n, s))
      (0, 0.0) replies
  in
  if n = 0 then 0.0 else s /. float_of_int n

let served w cfg acc =
  let start rep =
    let wal = work_file cfg (Printf.sprintf "%s-wal%d" (Wl.to_string w) rep) in
    Proc.rm_rf wal;
    let t0 = Proc.now () in
    let child = Proc.spawn (("child-serve" :: common w cfg) @ [ "--dir"; wal ]) in
    let ready, _ = Proc.until ~timeout_s:600.0 child "READY" in
    let port = Proc.get_int ready "port" in
    let first = Proc.get_int ready "first" and last = Proc.get_int ready "last" in
    (* Ready once one request routed to each reader has returned: until
       then the replicas may still be loading the snapshot. *)
    let c = Client.connect ~port () in
    List.iter
      (fun id -> ignore (Client.read ~min_version:0 c ~instance:id ~attr:(Served.probe_attr w)))
      [ first; last ];
    Client.close c;
    (child, port, first, wal, Proc.since t0)
  in
  let setups =
    List.init (setup_count cfg - 1) (fun rep ->
        let child, _, _, wal, s = start rep in
        ignore (Proc.stop child);
        Proc.rm_rf wal;
        s)
  in
  let server, port, first, wal, s = start (setup_count cfg) in
  acc.got <- ("setup_s", Stats.median (s :: setups)) :: acc.got;
  let part = work_file cfg (Wl.to_string w ^ "-load.part") in
  let load =
    Proc.spawn
      (("child-load" :: common w cfg)
      @ [ "--port"; Proc.i port; "--first"; Proc.i first; "--part"; part ])
  in
  let _, replies = Proc.until ~timeout_s:(cfg.warmup +. cfg.seconds +. 120.0) load "DONE" in
  ignore (Proc.finish load);
  absorb acc ~proc:"load" replies;
  acc.got <- ("peak_rss_mb", Proc.peak_rss_mb (Proc.i (Load.pid server))) :: acc.got;
  (match w with
  | Wl.Plan_edit ->
    (* Durability: SIGKILL (no clean shutdown), then recover. *)
    Proc.crash server;
    recovery_gate acc ~wal ~first (List.filter (fun (r : Proc.reply) -> r.Proc.tag = "ACK") replies)
  | _ -> ignore (Proc.stop server));
  Proc.rm_rf wal;
  if cfg.trace then begin
    let rpart = work_file cfg (Wl.to_string w ^ "-replay.part") in
    let rwal = work_file cfg (Wl.to_string w ^ "-replay-wal") in
    let replay =
      Proc.spawn (("child-replay" :: common w cfg) @ [ "--dir"; rwal; "--part"; rpart ])
    in
    let rs = Proc.finish replay in
    Proc.rm_rf rwal;
    absorb acc ~proc:"replay" rs;
    let exec =
      match List.find_opt (fun (r : Proc.reply) -> r.Proc.tag = "EXEC") rs with
      | Some r -> (Proc.get_float r "read_us", Proc.get_float r "commit_us")
      | None -> (0.0, 0.0)
    in
    List.iter
      (fun (r : Proc.reply) ->
        if r.Proc.tag = "REPLAYED" then acc.bad <- acc.bad + Proc.get_int r "failed")
      rs;
    let rtt = mean_us replies "RTT" and service = mean_us replies "SERVICE" in
    let reads = [ "traverse"; "read" ] in
    let rtt_r = rtt reads and svc_r = service reads and exec_r = fst exec in
    let rtt_c = rtt [ "commit" ] and svc_c = service [ "commit" ] and exec_c = snd exec in
    acc.got <-
      ("net.read_overhead_us", rtt_r -. svc_r)
      :: ("net.commit_overhead_us", rtt_c -. svc_c)
      :: ("server.read_service_mean_us", svc_r)
      :: ("server.commit_service_mean_us", svc_c)
      :: ("server.read_wait_us", svc_r -. exec_r)
      :: acc.got;
    print_endline "  reconciliation: client RTT = net overhead + replayed execution + wait (us)";
    Printf.printf "  %-8s %10s %10s %10s %10s  %s\n" "verb" "rtt" "net" "exec" "wait" "check";
    List.iter
      (fun (verb, rtt, svc, exec) ->
        let net = rtt -. svc and wait = svc -. exec in
        let bad = List.filter (fun x -> x < -0.1 *. rtt) [ net; exec; wait ] in
        Printf.printf "  %-8s %10.1f %10.1f %10.1f %10.1f  %s\n" verb rtt net exec wait
          (if bad = [] then "ok" else "MODELLING ERROR: a component is negative beyond 10%"))
      [ ("read", rtt_r, svc_r, exec_r); ("commit", rtt_c, svc_c, exec_c) ];
    Span.merge_parts
      ~out:(Filename.concat cfg.dir ("trace-" ^ Wl.to_string w ^ ".json"))
      [ part; rpart ]
  end

(* ---- embedded: plan_embedded, cold_traverse ---- *)

let embedded w cfg acc =
  let disk rep = work_file cfg (Printf.sprintf "%s-blocks%d.bin" (Wl.to_string w) rep) in
  let part = work_file cfg (Wl.to_string w ^ ".part") in
  let spawn rep ~setup_only =
    let t0 = Proc.now () in
    let child =
      Proc.spawn
          (("child-embed" :: common w cfg)
          @ [ "--disk"; disk rep; "--part"; part; "--setup-only"; (if setup_only then "1" else "0") ])
    in
    ignore (Proc.until ~timeout_s:600.0 child "READY");
    (child, Proc.since t0)
  in
  let setups =
    List.init (setup_count cfg - 1) (fun rep ->
        let child, s = spawn rep ~setup_only:true in
        ignore (Proc.finish child);
        Proc.rm_rf (disk rep);
        s)
  in
  let child, s = spawn (setup_count cfg) ~setup_only:false in
  acc.got <- ("setup_s", Stats.median (s :: setups)) :: acc.got;
  let _, rs = Proc.until ~timeout_s:(cfg.warmup +. cfg.seconds +. 120.0) child "DONE" in
  ignore (Proc.finish child);
  Proc.rm_rf (disk (setup_count cfg));
  absorb acc ~proc:"embedded" rs;
  if cfg.trace then
    Span.merge_parts ~out:(Filename.concat cfg.dir ("trace-" ^ Wl.to_string w ^ ".json")) [ part ]

let run w cfg =
  Proc.mkdir_p cfg.dir;
  let acc = { got = []; tried = 0; bad = 0; layers = [] } in
  Printf.printf "workload %s: seed=%d data_seed=%d op_seed=%d cores=%d recommended_domains=%d\n"
    (Wl.to_string w) cfg.seed (Gen.derive cfg.seed 1) (Gen.derive cfg.seed 2) (Proc.cores ())
    (Domain.recommended_domain_count ());
  Printf.printf "  warmup=%gs window=%gs setups=%d trace=%b readers=%d clients=%d\n" cfg.warmup
    cfg.seconds cfg.setups cfg.trace
    (if Wl.served w then Wl.readers else 0)
    (if Wl.served w then Wl.clients else 1);
  (if Wl.served w then served w cfg acc else embedded w cfg acc);
  let ops = m acc "ops_per_s" and traced = m acc "traced_ops_per_s" in
  if cfg.trace then begin
    acc.got <- ("trace_overhead_pct", if ops > 0.0 then (ops -. traced) /. ops *. 100.0 else 0.0) :: acc.got;
    let total = List.fold_left (fun a (_, _, s) -> a +. s) 0.0 acc.layers in
    Printf.printf "  per-layer self time (%s)\n" "traced window and replay";
    List.iter
      (fun (proc, layer, s) ->
        Printf.printf "    %-9s %-8s %10.4f s %6.1f%%\n" proc layer s
          (if total > 0.0 then s /. total *. 100.0 else 0.0))
      (List.sort compare acc.layers);
    Printf.printf "  trace: %s\n" (Filename.concat cfg.dir ("trace-" ^ Wl.to_string w ^ ".json"))
  end;
  (* Every end-to-end metric is measured on every workload; a per-layer
     one whose layer the workload does not run is 0. *)
  let metrics =
    if cfg.trace then List.map (fun k -> (k, m acc k)) Layers.per_layer_names
    else
      List.map
        (fun k ->
          match List.assoc_opt k acc.got with
          | Some v -> (k, v)
          | None -> failwith ("no measurement of " ^ k))
        end_to_end
  in
  { correct = acc.bad = 0; attempted = acc.tried; failed = acc.bad; metrics }

let to_json o =
  Json.Obj
    [
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of k)) ]))
             o.metrics) );
    ]
