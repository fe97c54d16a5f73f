(* The served workloads, browse and plan_edit: a server child running
   [Cactis_net.Server] and a load-generator child whose domains each
   drive one blocking [Cactis_net.Client] connection in a closed loop. *)

module Db = Cactis.Db
module Value = Cactis.Value
module Server = Cactis_net.Server
module Client = Cactis_net.Client
module Proto = Cactis_net.Proto

(* The master database a server child serves: the same generator and
   loader the in-process replay uses. *)
let build w sz ~data_seed =
  match w with
  | Wl.Browse ->
    let db = Db.create (Gen.ocb_schema ()) in
    (db, Gen.ocb_load db (Wl.ocb ~data_seed sz), Gen.ocb_schema)
  | Wl.Plan_edit ->
    let db = Db.create (Gen.plan_schema ()) in
    (db, Gen.plan_load db (Wl.plan ~data_seed sz), Gen.plan_schema)
  | Wl.Plan_embedded | Wl.Cold_traverse -> invalid_arg "Served.build: embedded workload"

(* The intrinsic attribute the readiness probe reads. *)
let probe_attr = function Wl.Browse -> "payload" | _ -> "local_work"

(* plan_edit's writer fsyncs every commit before acknowledging it. *)
let sync_every = 1

let serve_main () =
  let w = Option.get (Wl.of_string (Proc.arg "--workload" "")) in
  let tiny = Proc.arg "--size" "full" = "tiny" in
  let db, ids, make_schema = build w (Wl.size ~tiny w) ~data_seed:(Proc.arg_int "--data-seed" 1) in
  (match w with
  | Wl.Plan_edit -> ignore (Cactis.Persist.attach ~sync_every ~dir:(Proc.arg "--dir" "wal") db)
  | _ -> ());
  (* Server.config defaults, except a fixed reader count. *)
  let server = Server.start ~config:(Server.config ~readers:Wl.readers ()) ~make_schema db in
  let stop = Atomic.make false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop true));
  Proc.emit "READY"
    [
      ("port", Proc.i (Server.port server));
      ("first", Proc.i ids.(0));
      ("last", Proc.i ids.(Array.length ids - 1));
    ];
  while not (Atomic.get stop) do
    try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Server.stop server;
  exit 0

(* ---- load generator ---- *)

type acked = (int, int * float) Hashtbl.t  (* milestone -> (version, local_work) *)

(* [span name f] runs one call of [f] to the server, inside a client
   span when the operation is traced. *)
let exec c ~span ~first ~reach ~(acked : acked) op =
  match op with
  | Wl.Traverse i ->
    let visited, _, _ =
      Client.traverse ~min_version:0 ~depth:Wl.depth c ~root:(first + i) ~rel:"refs"
        ~attr:"payload"
    in
    visited = reach i
  | Wl.Set_payload l ->
    ignore
      (Client.commit c
         (List.map
            (fun (i, v) -> Proto.Set { instance = first + i; attr = "payload"; value = Value.Int v })
            l));
    true
  | Wl.Set_work (i, w) ->
    let version, _ =
      Client.commit c [ Proto.Set { instance = first + i; attr = "local_work"; value = Value.Float w } ]
    in
    (match Hashtbl.find_opt acked i with
    | Some (v, _) when v > version -> ()
    | _ -> Hashtbl.replace acked i (version, w));
    true
  | Wl.Ask i ->
    (* Read-your-writes: the client's last commit is the minimum
       version; each answer must come from a snapshot at least that new. *)
    let own = Client.last_commit c in
    let read instance attr = span "client.read" (fun () -> Client.read c ~instance ~attr) in
    let ship, v1 = read first "exp_compl" in
    let late, v2 = read (first + i) "late" in
    v1 >= own && v2 >= own
    && (match (ship, late) with Value.Time _, Value.Bool _ -> true | _ -> false)

let load_main () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let w = Option.get (Wl.of_string (Proc.arg "--workload" "")) in
  let tiny = Proc.arg "--size" "full" = "tiny" in
  let sz = Wl.size ~tiny w in
  let data_seed = Proc.arg_int "--data-seed" 1 in
  let op_seed = Proc.arg_int "--op-seed" 1 in
  let port = Proc.arg_int "--port" 0 in
  let first = Proc.arg_int "--first" 0 in
  let trace = Proc.arg "--trace" "0" = "1" in
  let population, reach_ref =
    match w with
    | Wl.Browse ->
      let o = Wl.ocb ~data_seed sz in
      (Gen.ocb_size o, Some o)
    | _ -> (Gen.plan_size (Wl.plan ~data_seed sz), None)
  in
  (* The warm-up starts by asking [late] of every milestone once.  A
     read watches what it reads, so each [late] asked becomes one more
     attribute the replicas keep up to date at every commit; asked all
     at once, the work a commit causes is already at its steady state
     when timing starts, instead of growing through the window. *)
  if w = Wl.Plan_edit then begin
    let c = Client.connect ~port () in
    for i = 1 to population - 1 do
      ignore (Client.read c ~instance:(first + i) ~attr:"late")
    done;
    Client.close c
  end;
  let clk =
    Loop.clock ~warmup:(Proc.arg_float "--warmup" 3.0) ~seconds:(Proc.arg_float "--seconds" 10.0)
      ~trace
  in
  (* The server's histograms at the start of the traced half, scraped by
     client 0 on its own connection before its first traced operation. *)
  let at_mid = ref [] in
  let client d =
    let acked : acked = Hashtbl.create 1024 in
    let sp = Span.create ~tid:(d + 1) () in
    let reach = match reach_ref with Some o -> Embedded.reach_of o | None -> fun _ -> 0 in
    let conn = ref (Client.connect ~port ()) in
    let next = Wl.stream w ~op_seed ~stream_id:d ~population ~width:sz.Wl.width in
    let scraped = ref false in
    let loop =
      Loop.run clk ~next ~exec:(fun ~traced op ->
          let span name f = if traced then Span.with_span sp ~layer:"client" name f else f () in
          let run () = exec !conn ~span ~first ~reach ~acked op in
          try
            if traced && d = 0 && not !scraped then begin
              scraped := true;
              at_mid := snd (Client.stats !conn)
            end;
            if traced then Span.with_span sp ~layer:"client" ("client." ^ Wl.verb op) run
            else run ()
          with Client.Transport _ as e ->
            (* A broken connection fails this operation only. *)
            Client.close !conn;
            conn := Client.connect ~port ();
            raise e)
    in
    Client.close !conn;
    (loop, acked, sp)
  in
  let results =
    List.map Domain.join (List.init Wl.clients (fun d -> Domain.spawn (fun () -> client d)))
  in
  let loops = List.map (fun (l, _, _) -> l) results in
  Loop.report clk loops;
  (* Client RTT per verb over the traced half, and the server's service
     time over the same operations: the difference of the exact
     count and sum of its [serve.<verb>] histogram between the scrape at
     the half's start and one now, after both clients stopped. *)
  if trace then begin
    let at_end =
      let c = Client.connect ~port () in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> snd (Client.stats c))
    in
    let totals lats verb =
      match List.find_opt (fun (l : Proto.latency) -> l.Proto.l_name = "serve." ^ verb) lats with
      | Some l -> (l.Proto.l_count, l.Proto.l_mean *. float_of_int l.Proto.l_count *. 1e6)
      | None -> (0, 0.0)
    in
    List.iter
      (fun verb ->
        let n, dur =
          List.fold_left
            (fun (n, dur) (_, _, sp) ->
              let n', dur' = Span.stats sp ("client." ^ verb) in
              (n + n', dur +. dur'))
            (0, 0.0) results
        in
        Proc.emit "RTT" [ ("verb", verb); ("n", Proc.i n); ("sum_us", Proc.f (dur *. 1e6)) ];
        let n0, s0 = totals !at_mid verb and n1, s1 = totals at_end verb in
        Proc.emit "SERVICE" [ ("verb", verb); ("n", Proc.i (n1 - n0)); ("sum_us", Proc.f (s1 -. s0)) ])
      [ "traverse"; "read"; "commit" ];
    let part = Proc.arg "--part" "trace.part" in
    List.iter
      (fun (_, _, sp) ->
        Span.write_part ~pid:2 ~process:"load generator" ~thread:"client" part sp)
      results
  end;
  (* The last acknowledged write per milestone, for the recovery gate. *)
  let merged : acked = Hashtbl.create 4096 in
  List.iter
    (fun (_, acked, _) ->
      Hashtbl.iter
        (fun i (v, x) ->
          match Hashtbl.find_opt merged i with
          | Some (v', _) when v' > v -> ()
          | _ -> Hashtbl.replace merged i (v, x))
        acked)
    results;
  Hashtbl.iter
    (fun i (v, x) -> Proc.emit "ACK" [ ("index", Proc.i i); ("version", Proc.i v); ("value", Proc.f x) ])
    merged;
  Proc.emit "DONE" [];
  exit 0
