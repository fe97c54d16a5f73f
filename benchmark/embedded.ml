(* The in-process workloads, plan_embedded and cold_traverse: one
   single-threaded child calling [Cactis.Db] directly. *)

module Db = Cactis.Db
module Value = Cactis.Value

type data = Plan | Ocb of Gen.ocb

let build w sz ~data_seed ~disk =
  match w with
  | Wl.Plan_embedded ->
    let db = Db.create (Gen.plan_schema ()) in
    (db, Gen.plan_load db (Wl.plan ~data_seed sz), Plan)
  | Wl.Cold_traverse ->
    let o = Wl.ocb ~data_seed sz in
    (* Default pager: 64 buffered blocks of 8 objects, far below the
       object count, over a real block file. *)
    let db = Db.create ~disk_path:disk (Gen.ocb_schema ()) in
    let ids = Gen.ocb_load db o in
    Db.set_auto_recluster db true;
    (db, ids, Ocb o)
  | Wl.Browse | Wl.Plan_edit -> invalid_arg "Embedded.build: served workload"

(* [call sp layer name f] — [f ()], inside a span when tracing. *)
let call sp layer name f =
  match sp with None -> f () | Some s -> Span.with_span s ~layer name f

(* Depth-bounded reachability through [Db.get]/[Db.related], visiting a
   node at the shallowest depth it is seen at (the server's [Traverse]
   semantics); returns the number of objects visited. *)
let traverse ?sp db ~root ~depth =
  let seen = Hashtbl.create 128 in
  let frontier = ref [ root ] in
  for _ = 0 to depth do
    let next = ref [] in
    List.iter
      (fun id ->
        if not (Hashtbl.mem seen id) then begin
          Hashtbl.add seen id ();
          ignore (call sp "db" "Db.get" (fun () -> Db.get db id "payload"));
          next := List.rev_append (call sp "db" "Db.related" (fun () -> Db.related db id "refs")) !next
        end)
      !frontier;
    frontier := !next
  done;
  Hashtbl.length seen

(* Reference answers for traversals, memoized per root. *)
let reach_of o =
  let memo = Hashtbl.create 1024 in
  fun i ->
    match Hashtbl.find_opt memo i with
    | Some n -> n
    | None ->
      let n = Gen.ocb_reach o ~root:i ~depth:Wl.depth in
      Hashtbl.add memo i n;
      n

let commit ?sp db sets =
  call sp "db" "Db.begin_txn" (fun () -> Db.begin_txn db);
  match
    List.iter (fun (id, attr, v) -> call sp "db" "Db.set" (fun () -> Db.set db id attr v)) sets;
    call sp "db" "Db.commit" (fun () -> Db.commit db)
  with
  | () -> true
  | exception e ->
    if Db.in_txn db then Db.abort db;
    raise e

let exec ?sp db ids ~reach op =
  match op with
  | Wl.Set_work (i, w) -> commit ?sp db [ (ids.(i), "local_work", Value.Float w) ]
  | Wl.Set_payload l ->
    commit ?sp db (List.map (fun (i, v) -> (ids.(i), "payload", Value.Int v)) l)
  | Wl.Ask i -> (
    (* One-off questions, so neither makes its attribute important.  A
       slip then only marks what it puts out of date, and the ask
       evaluates the ship date along the marked path: the paper's lazy
       evaluation, whose cost depends on the slip's depth alone. *)
    let ship = call sp "db" "Db.get" (fun () -> Db.get ~watch:false db ids.(0) "exp_compl") in
    let late = call sp "db" "Db.get" (fun () -> Db.get ~watch:false db ids.(i) "late") in
    match (ship, late) with
    | Value.Time _, Value.Bool _ -> true
    | _ -> false)
  | Wl.Traverse i -> traverse ?sp db ~root:ids.(i) ~depth:Wl.depth = reach i

(* Operations of the counted segment of a traced run: a fixed number,
   so the work counts per operation repeat exactly for a seed. *)
let counted_ops ~tiny = function
  | Wl.Cold_traverse -> if tiny then 200 else 1_000
  | _ -> if tiny then 300 else 3_000

let main () =
  let w = Option.get (Wl.of_string (Proc.arg "--workload" "")) in
  let tiny = Proc.arg "--size" "full" = "tiny" in
  let data_seed = Proc.arg_int "--data-seed" 1 in
  let op_seed = Proc.arg_int "--op-seed" 1 in
  let trace = Proc.arg "--trace" "0" = "1" in
  let sz = Wl.size ~tiny w in
  let db, ids, data = build w sz ~data_seed ~disk:(Proc.arg "--disk" "blocks.bin") in
  Proc.emit "READY" [ ("instances", Proc.i (Array.length ids)) ];
  if Proc.arg "--setup-only" "0" = "1" then exit 0;
  let reach = match data with Ocb o -> reach_of o | Plan -> fun _ -> 0 in
  let next = Wl.stream ~reach w ~op_seed ~stream_id:0 ~population:(Array.length ids) ~width:sz.Wl.width in
  let failed = ref 0 in
  (* Traced runs first execute a fixed-length counted segment: exact
     work per operation, and the deltas committed. *)
  if trace then begin
    let n = counted_ops ~tiny w in
    let txns = ref 0 and delta_ops = ref 0 in
    Db.set_commit_hook db
      (Some
         (fun d ->
           incr txns;
           delta_ops := !delta_ops + Cactis.Txn.size d));
    let before = Layers.snap [ db ] in
    for _ = 1 to n do
      if not (exec db ids ~reach (next ())) then incr failed
    done;
    let d = Layers.diff ~before ~after:(Layers.snap [ db ]) in
    Db.set_commit_hook db None;
    Proc.metric "engine.rule_evals_per_op" (Layers.per n (Layers.count d "rule_evals"));
    Proc.metric "engine.mark_visits_per_op" (Layers.per n (Layers.count d "mark_visits"));
    Proc.metric "engine.mark_cutoffs_per_op" (Layers.per n (Layers.count d "mark_cutoffs"));
    Proc.metric "db.delta_ops_per_commit" (Layers.per !txns !delta_ops)
  end;
  let clk =
    Loop.clock ~warmup:(Proc.arg_float "--warmup" 3.0) ~seconds:(Proc.arg_float "--seconds" 10.0)
      ~trace
  in
  let sp = Span.create ~probes:(Layers.probes [ db ]) ~tid:1 () in
  let traced_snap = ref None in
  let loop =
    Loop.run clk ~next ~exec:(fun ~traced op ->
        if traced then begin
          if !traced_snap = None then traced_snap := Some (Layers.snap [ db ]);
          Span.with_span sp ~layer:"bench" ("op." ^ Wl.verb op) (fun () ->
              exec ~sp db ids ~reach op)
        end
        else exec db ids ~reach op)
  in
  Loop.report clk [ loop ];
  (* Correctness gates, outside the window. *)
  let gate name ok =
    Proc.emit "GATE" [ ("name", name); ("ok", if ok then "1" else "0") ];
    if not ok then incr failed
  in
  (match data with
  | Plan ->
    (* One profiled slip in the deepest layer, with the ship date
       watched so the commit itself evaluates everything above it: no
       attribute may be evaluated twice, though most are reached along
       many paths. *)
    Db.watch db ids.(0) "exp_compl";
    Db.set_profiling db true;
    ignore (exec db ids ~reach (Wl.Set_work (Array.length ids - 1, 2.5)));
    Db.set_profiling db false;
    Db.unwatch db ids.(0) "exp_compl";
    gate "profile.at_most_once"
      (match Db.last_profile db with
      | Some p -> Cactis_obs.Profile.at_most_once p
      | None -> false)
  | Ocb _ -> gate "integrity.check" (Cactis.Integrity.check db = []));
  Proc.emit "GATES" [ ("failed", Proc.i !failed) ];
  Proc.metric "peak_rss_mb" (Proc.peak_rss_mb "self");
  if trace then begin
    let d =
      match !traced_snap with
      | Some before -> Layers.diff ~before ~after:(Layers.snap [ db ])
      | None -> Layers.diff ~before:(Layers.snap [ db ]) ~after:(Layers.snap [ db ])
    in
    let ops = loop.Loop.traced_ops in
    Proc.metric "engine.mark_wave_mean_us" (Layers.hist_mean_us d "mark_wave");
    Proc.metric "engine.eval_wave_mean_us" (Layers.hist_mean_us d "eval_wave");
    Proc.metric "engine.propagate_mean_us" (Layers.hist_mean_us d "propagate");
    Proc.metric "db.commit_mean_us" (Layers.hist_mean_us d "commit");
    Proc.metric "pager.block_reads_per_op" (Layers.per ops (Layers.count d "disk_reads"));
    Proc.metric "pager.hit_rate" (Layers.hit_rate d);
    Proc.metric "pager.writebacks_per_op" (Layers.per ops (Layers.count d "writebacks"));
    Proc.metric "cluster.recluster_moves" (float_of_int (Layers.count d "recluster_moves"));
    Proc.metric "cluster.recluster_step_mean_us" (Layers.hist_mean_us d "recluster_step");
    Span.write_part ~pid:1 ~process:("cactis " ^ Wl.to_string w) ~thread:"main"
      (Proc.arg "--part" "trace.part") sp;
    List.iter
      (fun (layer, s) -> Proc.emit "LAYER" [ ("name", layer); ("self_s", Proc.f s) ])
      (Span.layer_self sp)
  end;
  Proc.emit "DONE" [];
  exit 0
