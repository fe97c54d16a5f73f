module Db = Cactis.Db
module Schema = Cactis.Schema
module Snapshot = Cactis.Snapshot
module Codec = Cactis.Codec
module Value = Cactis.Value
module Replica = Cactis.Replica
module Store = Cactis.Store
module Counters = Cactis_util.Counters
module Histogram = Cactis_obs.Histogram
module Clock = Cactis_obs.Clock
module Flight = Cactis_obs.Flight
module Metrics = Cactis_obs.Metrics
module Slowlog = Cactis_obs.Slowlog
module Watchdog = Cactis_obs.Watchdog
module Pager = Cactis_storage.Pager
module Buffer_pool = Cactis_storage.Buffer_pool
module Partition = Cactis_dist.Partition

type config = {
  cfg_port : int;
  cfg_readers : int;
  cfg_metrics_port : int option;  (* plain-HTTP GET /metrics listener (0 = ephemeral) *)
  cfg_slow_ms : float;  (* slow-op deadline; <= 0 disables the slowlog *)
  cfg_slowlog_sink : (string -> unit) option;  (* default: one line to stderr *)
  cfg_watchdog : Watchdog.config option;
  cfg_flight_dir : string option;  (* where crash/watchdog flight dumps land *)
  cfg_read_only : bool;  (* replica mode: refuse client commits *)
}

let config ?(port = 0) ?(readers = 1) ?metrics_port ?(slow_ms = 100.0) ?slowlog_sink
    ?watchdog ?flight_dir ?(read_only = false) () =
  if readers < 1 then invalid_arg "Server.config: readers must be >= 1";
  {
    cfg_port = port;
    cfg_readers = readers;
    cfg_metrics_port = metrics_port;
    cfg_slow_ms = slow_ms;
    cfg_slowlog_sink = slowlog_sink;
    cfg_watchdog = watchdog;
    cfg_flight_dir = flight_dir;
    cfg_read_only = read_only;
  }

(* A connection is read and closed only by the front end; responses are
   written by whichever domain served the request, serialized per
   connection by [out_mu].  A reply that fails or stalls clears [alive]
   and shuts the socket down, so the front end sees it and closes it. *)
type conn = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  out_mu : Mutex.t;
  mutable alive : bool;
}

type job = {
  j_conn : conn;
  j_env : Proto.envelope;
  j_req : Proto.req;
  j_start_ns : int64;
}

(* A replicated record handed to the writer domain from outside the
   client protocol (the WAL-shipping follower).  The injecting thread
   blocks on [f_state] so it observes the published version — and any
   replay failure — synchronously. *)
type feed = {
  f_record : string;  (* encoded delta, as shipped / as logged *)
  f_mu : Mutex.t;
  f_cond : Condition.t;
  mutable f_state : (int, exn) result option;
}

type writer_msg = W_serve of job | W_feed of feed | W_quit

(* A reader's mailbox carries the published chain in version order,
   interleaved with the reads routed to it. *)
type reader_msg = R_entry of Replica.entry | R_serve of job | R_quit

type 'msg queue = {
  qmu : Mutex.t;
  qcond : Condition.t;
  qitems : 'msg Queue.t;
}

let queue () = { qmu = Mutex.create (); qcond = Condition.create (); qitems = Queue.create () }

let push q m =
  Mutex.lock q.qmu;
  Queue.push m q.qitems;
  Condition.signal q.qcond;
  Mutex.unlock q.qmu

let pop q =
  Mutex.lock q.qmu;
  while Queue.is_empty q.qitems do
    Condition.wait q.qcond q.qmu
  done;
  let m = Queue.pop q.qitems in
  Mutex.unlock q.qmu;
  m

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  metrics_fd : Unix.file_descr option;
  bound_metrics_port : int option;
  stop_flag : bool Atomic.t;
  published : int Atomic.t;
  writer_q : writer_msg queue;
  reader_qs : reader_msg queue array;
  partition : Partition.t;
  ctrs : Counters.t;
  lats : Histogram.t;
  db_counters : Counters.t;
  db_hists : Histogram.t;
  slowlog : Slowlog.t option;
  mutable watchdog : Watchdog.t option;
  names_mu : Mutex.t;
  mutable domain_names : (int * string) list;  (* domain id -> server role *)
  mutable domains : unit Domain.t list;
  mutable unhook : unit -> unit;  (* puts back the commit hook [start] chained after *)
}

let port t = t.bound_port
let metrics_port t = t.bound_metrics_port
let readers t = Array.length t.reader_qs
let published_version t = Atomic.get t.published
let counters t = t.ctrs
let latencies t = t.lats
let slowlog t = t.slowlog
let watchdog t = t.watchdog

let domain_label t =
  let did = (Domain.self () :> int) in
  Mutex.lock t.names_mu;
  let name = List.assoc_opt did t.domain_names in
  Mutex.unlock t.names_mu;
  match name with Some n -> n | None -> Printf.sprintf "domain-%d" did

(* Reply on the job's connection.  A dead peer only kills that
   connection, never the serving domain.  [version] is the snapshot /
   commit version that served the op and [pager] the (hits, misses)
   the op cost — both feed the slow-op log. *)
let send_resp ?(version = 0) ?(pager = (0, 0)) t conn env resp ~verb ~start_ns =
  let payload = Proto.encode_resp env resp in
  (* Record the latency before the bytes leave: once a client holds the
     response, a Stats request is guaranteed to see this observation. *)
  let dur = Clock.elapsed_s ~since:start_ns in
  Histogram.observe (Histogram.cell t.lats ("serve." ^ verb)) dur;
  Flight.record_s Flight.Net_verb ~a:(int_of_float (dur *. 1e6)) ~b:env.Proto.req_id verb;
  (match t.slowlog with
  | Some sl when dur >= Slowlog.deadline_for sl verb ->
    let hits, misses = pager in
    Counters.incr t.ctrs "server.slow_ops";
    ignore
      (Slowlog.observe sl
         {
           Slowlog.sr_wall_us = Int64.of_float (Unix.gettimeofday () *. 1e6);
           sr_verb = verb;
           sr_dur_s = dur;
           sr_deadline_s = 0.0;  (* stamped by observe *)
           sr_span = env.Proto.span_id;
           sr_req = env.Proto.req_id;
           sr_version = version;
           sr_domain = domain_label t;
           sr_pager_hits = hits;
           sr_pager_misses = misses;
         })
  | _ -> ());
  Mutex.lock conn.out_mu;
  (try if conn.alive then Frame.send conn.fd payload
   with _ ->
     conn.alive <- false;
     try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Mutex.unlock conn.out_mu;
  match resp with
  | Proto.Error { code; _ } ->
    Flight.record_s Flight.Net_error ~a:env.Proto.req_id ~b:0 (Proto.error_code_name code);
    Counters.incr t.ctrs ("server.error." ^ Proto.error_code_name code)
  | _ -> ()

let pool_stats db =
  let pool = Pager.pool (Store.pager (Db.store db)) in
  (Buffer_pool.hits pool, Buffer_pool.misses pool)

(* ---- Writer domain ---- *)

let apply_update db created = function
  | Proto.Set { instance; attr; value } -> Db.set db instance attr value
  | Proto.Create { type_name } -> created := Db.create_instance db type_name :: !created
  | Proto.Link { from_id; rel; to_id } -> Db.link db ~from_id ~rel ~to_id
  | Proto.Unlink { from_id; rel; to_id } -> Db.unlink db ~from_id ~rel ~to_id

let writer_serve t db { j_conn; j_env; j_req; j_start_ns } =
  match j_req with
  | Proto.Commit updates ->
    let h0, m0 = pool_stats db in
    let resp =
      try
        let created = ref [] in
        Db.with_txn db (fun () -> List.iter (apply_update db created) updates);
        Proto.Committed { version = Atomic.get t.published; created = List.rev !created }
      with e -> Proto.error_of_exn e
    in
    let h1, m1 = pool_stats db in
    send_resp t j_conn j_env resp ~verb:"commit" ~start_ns:j_start_ns
      ~version:(Atomic.get t.published)
      ~pager:(h1 - h0, m1 - m0)
  | Proto.Open_session ->
    let resp =
      Proto.Opened
        {
          version = Atomic.get t.published;
          readers = Array.length t.reader_qs;
          instances = List.length (Db.instance_ids db);
        }
    in
    send_resp t j_conn j_env resp ~verb:"open" ~start_ns:j_start_ns
  | req ->
    send_resp t j_conn j_env
      (Proto.Error
         { code = Proto.E_server; message = "writer cannot serve " ^ Proto.verb_name req })
      ~verb:(Proto.verb_name req) ~start_ns:j_start_ns

(* Publish an applied record as version v, the chain entry (0, v-1) ->
   (0, v), on the writer domain.  Every reader's mailbox gets it before
   [published] moves, and [dispatch] routes no read whose min_version
   is above [published]: a routed read naming v, whoever committed v,
   always queues behind entry v. *)
let publish t record =
  let v = Atomic.get t.published + 1 in
  let at records = { Replica.gen = 0; records } in
  let entry = { Replica.e_seq = v; e_prev = at (v - 1); e_cursor = at v; e_record = record } in
  Array.iter (fun q -> push q (R_entry entry)) t.reader_qs;
  Atomic.set t.published v;
  v

let writer_loop t db =
  let rec loop () =
    match pop t.writer_q with
    | W_quit -> ()
    | W_serve job ->
      writer_serve t db job;
      loop ()
    | W_feed f ->
      (* Replicated records bypass the commit hook by construction
         ([replay_delta] never re-logs), so they publish explicitly. *)
      let result =
        try
          Replica.default_apply db f.f_record;
          let v = publish t f.f_record in
          Counters.incr t.ctrs "server.repl_applied";
          Ok v
        with e -> Error e
      in
      Mutex.lock f.f_mu;
      f.f_state <- Some result;
      Condition.signal f.f_cond;
      Mutex.unlock f.f_mu;
      loop ()
  in
  loop ()

(* ---- Reader domains ---- *)

let reader_serve t ~name r { j_conn; j_env; j_req; j_start_ns } =
  let replica = Replica.db r and version = (Replica.cursor r).Replica.records in
  let h0, m0 = pool_stats replica in
  let resp =
    try
      match j_req with
      | (Proto.Read { min_version; _ } | Proto.Traverse { min_version; _ })
        when min_version > version ->
        (* Unreachable while [publish] fills the mailboxes first; still
           never park a read or serve it stale. *)
        Proto.Error
          {
            code = Proto.E_server;
            message =
              Printf.sprintf "%s at version %d is behind min_version %d" name version min_version;
          }
      | Proto.Read { instance; attr; _ } ->
        Proto.Value { version; value = Db.get replica ~watch:false instance attr }
      | Proto.Traverse { root; rel; attr; depth; _ } ->
        let visited, total = Db.traverse replica ~root ~rel ~attr ~depth in
        Proto.Traversed { version; visited; total }
      | req ->
        Proto.Error
          { code = Proto.E_server; message = "reader cannot serve " ^ Proto.verb_name req }
    with e -> Proto.error_of_exn e
  in
  let h1, m1 = pool_stats replica in
  send_resp t j_conn j_env resp ~verb:(Proto.verb_name j_req) ~start_ns:j_start_ns ~version
    ~pager:(h1 - h0, m1 - m0)

(* Each reader follows the published chain in-process: a {!Replica}
   loaded from the start-up snapshot at version 0, applying only through
   [Replica.apply_entry], so an out-of-order entry is a typed [Gap].  It
   is lazy (reads never watch, so an apply only marks and checks
   constraints) and memory-resident (its pool never evicts).  One that
   fails to load or apply keeps its domain alive, answering every later
   job with a typed E_server error instead of leaving it waiting.  It
   pushes to [loaded] once the load is done either way. *)
let reader_loop t name master_snapshot make_schema ~loaded q =
  let failure ~version e =
    Counters.incr t.ctrs "server.replica_failures";
    let message =
      Printf.sprintf "%s failed at version %d: %s" name version (Printexc.to_string e)
    in
    Flight.record_s Flight.Note ~a:version ~b:0 ("replica " ^ message);
    Error (version, message)
  in
  let state =
    ref
      (try
         Ok
           (Replica.create ~cursor:Replica.cursor_zero
              (Snapshot.load_binary ~buffer_capacity:max_int (make_schema ()) master_snapshot))
       with e -> failure ~version:0 e)
  in
  push loaded ();
  let apply_h = Histogram.cell t.lats "replica.apply" in
  let rec loop () =
    match pop q with
    | R_quit -> ()
    | R_entry e ->
      (match !state with
      | Error _ -> ()
      | Ok r -> (
        let start_ns = Clock.now_ns () in
        match Replica.apply_entry r e with
        | Replica.Applied -> Histogram.observe apply_h (Clock.elapsed_s ~since:start_ns)
        | Replica.Skipped -> ()
        | exception ex -> state := failure ~version:e.Replica.e_seq ex));
      loop ()
    | R_serve job when not job.j_conn.alive ->
      (* Its peer stalled or left: whatever it pipelined is not served. *)
      loop ()
    | R_serve job ->
      (match !state with
      | Ok r -> reader_serve t ~name r job
      | Error (version, message) ->
        send_resp t job.j_conn job.j_env
          (Proto.Error { code = Proto.E_server; message })
          ~verb:(Proto.verb_name job.j_req) ~start_ns:job.j_start_ns ~version);
      loop ()
  in
  loop ()

(* ---- Front end ---- *)

(* Only the front end closes a connection: its [select] would fail with
   EBADF on an fd closed under it.  Closing takes the mutex replies are
   written under, so a worker mid-reply finishes its frame first and any
   later one sees [alive = false] — the fd is never closed (and possibly
   reused) under a concurrent write. *)
let close_conn conns conn =
  Mutex.lock conn.out_mu;
  conn.alive <- false;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Mutex.unlock conn.out_mu;
  Hashtbl.remove conns conn.fd

let stats_reply t =
  let server = Counters.snapshot t.ctrs in
  let db = List.map (fun (n, v) -> ("db." ^ n, v)) (Counters.snapshot t.db_counters) in
  let latencies =
    List.map
      (fun st ->
        {
          Proto.l_name = st.Histogram.st_name;
          l_count = st.Histogram.st_count;
          l_mean = st.Histogram.st_mean;
          l_p50 = st.Histogram.st_p50;
          l_p95 = st.Histogram.st_p95;
          l_p99 = st.Histogram.st_p99;
          l_max = st.Histogram.st_max;
        })
      (Histogram.snapshot t.lats)
  in
  Proto.Stats_reply { counters = server @ db; latencies }

(* The OpenMetrics exposition: server counters/latencies merged with
   the writer db's — the same numbers Stats reports, rendered for a
   Prometheus scraper.  Served both as the Metrics proto verb and over
   plain HTTP on the metrics port. *)
let metrics_body t =
  let counters =
    Counters.snapshot t.ctrs
    @ List.map (fun (n, v) -> ("db." ^ n, v)) (Counters.snapshot t.db_counters)
  in
  let hists =
    Histogram.merged_cells t.lats
    @ List.map (fun (n, h) -> ("db." ^ n, h)) (Histogram.merged_cells t.db_hists)
  in
  Metrics.render ~counters ~hists

let dispatch t conn payload =
  let start_ns = Clock.now_ns () in
  match Proto.decode_req payload with
  | exception Proto.Malformed m ->
    send_resp t conn { Proto.req_id = 0; span_id = 0 }
      (Proto.Error { code = Proto.E_protocol; message = m })
      ~verb:"protocol" ~start_ns
  | env, req -> (
    Counters.incr t.ctrs ("server.req." ^ Proto.verb_name req);
    let job = { j_conn = conn; j_env = env; j_req = req; j_start_ns = start_ns } in
    match req with
    | Proto.Ping -> send_resp t conn env Proto.Pong ~verb:"ping" ~start_ns
    | Proto.Stats -> send_resp t conn env (stats_reply t) ~verb:"stats" ~start_ns
    | Proto.Metrics ->
      send_resp t conn env (Proto.Metrics_reply (metrics_body t)) ~verb:"metrics" ~start_ns
    | Proto.Commit _ when t.cfg.cfg_read_only ->
      Counters.incr t.ctrs "server.read_only_rejects";
      send_resp t conn env
        (Proto.Error
           { code = Proto.E_protocol; message = "read-only replica: commits go to the writer" })
        ~verb:"commit" ~start_ns
    | Proto.Open_session | Proto.Commit _ -> push t.writer_q (W_serve job)
    | Proto.Read { min_version; instance = id; _ } | Proto.Traverse { min_version; root = id; _ } ->
      let latest = Atomic.get t.published in
      if min_version > latest then
        send_resp t conn env
          (Proto.Error
             {
               code = Proto.E_protocol;
               message =
                 Printf.sprintf "min_version %d not yet committed (latest %d)" min_version latest;
             })
          ~verb:(Proto.verb_name req) ~start_ns
      else push t.reader_qs.(Partition.site_of_range t.partition id) (R_serve job))

(* One-shot plain-HTTP scrape endpoint: once the front end's [select]
   finds an accepted socket readable, answer [GET /metrics] (anything
   else gets 404) with one deadlined write, and close.  An idle scraper
   costs nothing, a stalled one at most one send deadline. *)
let answer_scrape t fd =
  let buf = Bytes.create 4096 in
  let n = try Unix.read fd buf 0 (Bytes.length buf) with Unix.Unix_error _ -> 0 in
  let line = String.trim (List.hd (String.split_on_char '\n' (Bytes.sub_string buf 0 n))) in
  let response =
    if line = "GET /metrics HTTP/1.1" || line = "GET /metrics HTTP/1.0" then
      let body = metrics_body t in
      Printf.sprintf
        "HTTP/1.0 200 OK\r\n\
         Content-Type: application/openmetrics-text; version=1.0.0; charset=utf-8\r\n\
         Content-Length: %d\r\n\r\n%s"
        (String.length body) body
    else "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n"
  in
  (try Frame.write_all fd response with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let frontend_loop t =
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let scrapes = ref [] in
  let handle_readable conn =
    match Frame.fill conn.dec conn.fd with
    | 0 -> close_conn conns conn
    | _ -> (
      try
        let rec drain () =
          match Frame.next conn.dec with
          | Some payload when conn.alive ->
            dispatch t conn payload;
            drain ()
          | _ -> ()
        in
        drain ();
        if not conn.alive then close_conn conns conn
      with Frame.Too_large len ->
        send_resp t conn { Proto.req_id = 0; span_id = 0 }
          (Proto.Error
             {
               code = Proto.E_protocol;
               message = Printf.sprintf "frame length %d exceeds %d" len Frame.max_payload;
             })
          ~verb:"protocol" ~start_ns:(Clock.now_ns ());
        close_conn conns conn)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception _ -> close_conn conns conn
  in
  let base_fds = t.listen_fd :: Option.to_list t.metrics_fd in
  while not (Atomic.get t.stop_flag) do
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) conns (!scrapes @ base_fds) in
    (match Unix.select fds [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      List.iter
        (fun fd ->
          if fd = t.listen_fd then begin
            match Frame.accept t.listen_fd with
            | Some client_fd ->
              Counters.incr t.ctrs "server.connections";
              Hashtbl.replace conns client_fd
                {
                  fd = client_fd;
                  dec = Frame.decoder ();
                  out_mu = Mutex.create ();
                  alive = true;
                };
              Flight.record Flight.Net_accept ~a:(Hashtbl.length conns) ~b:0
            | None -> ()
          end
          else if Some fd = t.metrics_fd then begin
            match Frame.accept fd with
            | Some sfd ->
              Counters.incr t.ctrs "server.metrics_scrapes";
              scrapes := sfd :: !scrapes
            | None -> ()
          end
          else if List.mem fd !scrapes then begin
            scrapes := List.filter (( <> ) fd) !scrapes;
            answer_scrape t fd
          end
          else
            match Hashtbl.find_opt conns fd with
            | Some conn -> handle_readable conn
            | None -> ())
        readable);
    (* The watchdog rides the front end's idle heartbeat: at most one
       histogram diff per interval, on a domain that never serves
       queries. *)
    match t.watchdog with Some wd -> Watchdog.tick wd | None -> ()
  done;
  List.iter (close_conn conns) (List.of_seq (Hashtbl.to_seq_values conns));
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !scrapes

(* ---- Lifecycle ---- *)

(* Where crash/watchdog flight dumps land; stderr-only when no dir was
   configured. *)
let flight_dump t reason =
  match t.cfg.cfg_flight_dir with
  | None -> None
  | Some dir -> (
    try Some (Flight.dump_to_file ~dir ~reason)
    with e ->
      (* A failed dump must not take the server down with it, but it
         must not vanish either. *)
      Printf.eprintf "cactis: flight dump to %s failed: %s\n%!" dir (Printexc.to_string e);
      None)

(* Every server domain runs under this wrapper: names the domain for
   flight dumps / trace export / slowlog attribution, and turns an
   uncaught exception into a post-mortem flight dump instead of a
   silent [Domain.join] surprise. *)
let run_domain t name f =
  Mutex.lock t.names_mu;
  t.domain_names <- ((Domain.self () :> int), name) :: t.domain_names;
  Mutex.unlock t.names_mu;
  Flight.name_domain name;
  try f ()
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    Counters.incr t.ctrs "server.domain_crashes";
    Flight.record_s Flight.Note ~a:0 ~b:0 ("crash: " ^ Printexc.to_string e);
    let dumped = flight_dump t ("crash-" ^ name) in
    Printf.eprintf "cactis-server: domain %s died: %s%s\n%!" name (Printexc.to_string e)
      (match dumped with Some p -> " (flight dump: " ^ p ^ ")" | None -> "");
    Printexc.raise_with_backtrace e bt

let start ?(config = config ()) ~make_schema db =
  let master_snapshot = Snapshot.save_binary db in
  let listen_fd, bound_port = Frame.listen ~port:config.cfg_port in
  let metrics_fd, bound_metrics_port =
    match config.cfg_metrics_port with
    | None -> (None, None)
    | Some port ->
      let fd, bound = Frame.listen ~port in
      (Some fd, Some bound)
  in
  let slowlog =
    if config.cfg_slow_ms <= 0.0 then None
    else
      let sink =
        match config.cfg_slowlog_sink with
        | Some f -> f
        | None ->
          let mu = Mutex.create () in
          fun line ->
            Mutex.lock mu;
            Printf.eprintf "cactis-slowop %s\n%!" line;
            Mutex.unlock mu
      in
      (* Commits do WAL + fsync + broadcast work reads never pay; give
         them 2.5x the read budget rather than flooding the log. *)
      let deadline_s = config.cfg_slow_ms *. 1e-3 in
      Some
        (Slowlog.create ~deadline_s
           ~per_verb:[ ("commit", deadline_s *. 2.5) ]
           ~sink ())
  in
  let t =
    {
      cfg = config;
      listen_fd;
      bound_port;
      metrics_fd;
      bound_metrics_port;
      stop_flag = Atomic.make false;
      published = Atomic.make 0;
      writer_q = queue ();
      reader_qs = Array.init config.cfg_readers (fun _ -> queue ());
      partition = Partition.by_range ~ids:(Db.instance_ids db) ~sites:config.cfg_readers;
      ctrs = Counters.create ();
      lats = Histogram.create ();
      db_counters = Db.counters db;
      db_hists = (Db.obs db).Cactis_obs.Ctx.hists;
      slowlog;
      watchdog = None;
      names_mu = Mutex.create ();
      domain_names = [];
      domains = [];
      unhook = ignore;
    }
  in
  (match config.cfg_watchdog with
  | None -> ()
  | Some wd_cfg ->
    let errors () =
      List.fold_left
        (fun acc (name, v) ->
          if String.length name >= 13 && String.sub name 0 13 = "server.error." then acc + v
          else acc)
        0
        (Counters.snapshot t.ctrs)
    in
    let on_trip ~reason ~detail =
      Counters.incr t.ctrs "server.watchdog_trips";
      let dumped = flight_dump t ("watchdog-" ^ reason) in
      Printf.eprintf "cactis-anomaly reason=%s detail=%S%s\n%!" reason detail
        (match dumped with Some p -> " flight=" ^ p | None -> "")
    in
    t.watchdog <- Some (Watchdog.create wd_cfg ~lats:t.lats ~errors ~on_trip));
  (* Chain the publish after whatever durability hook (the WAL) is
     already installed; it runs on the writer domain, during commit, so it
     always precedes the client's Committed response. *)
  let prior = Db.commit_hook db in
  let ours delta =
    (match prior with Some f -> f delta | None -> ());
    ignore (publish t (Codec.encode_delta delta))
  in
  Db.set_commit_hook db (Some ours);
  t.unhook <-
    (fun () ->
      match Db.commit_hook db with
      | Some f when f == ours -> Db.set_commit_hook db prior
      | _ -> ());
  let loaded = queue () in
  let reader_domains =
    Array.to_list
      (Array.mapi
         (fun i q ->
           let name = Printf.sprintf "reader-%d" i in
           Domain.spawn (fun () ->
               run_domain t name (fun () ->
                   reader_loop t name master_snapshot make_schema ~loaded q)))
         t.reader_qs)
  in
  (* Serve nothing before every replica is loaded (or has failed with
     its typed error): the first read must not pay for a load. *)
  Array.iter (fun _ -> pop loaded) t.reader_qs;
  let writer_domain =
    Domain.spawn (fun () -> run_domain t "writer" (fun () -> writer_loop t db))
  in
  let frontend_domain =
    Domain.spawn (fun () -> run_domain t "frontend" (fun () -> frontend_loop t))
  in
  t.domains <- (frontend_domain :: writer_domain :: reader_domains);
  t

let inject t record =
  let f =
    { f_record = record; f_mu = Mutex.create (); f_cond = Condition.create (); f_state = None }
  in
  push t.writer_q (W_feed f);
  Mutex.lock f.f_mu;
  while f.f_state = None do
    Condition.wait f.f_cond f.f_mu
  done;
  Mutex.unlock f.f_mu;
  match f.f_state with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> assert false

let dump_flight t ~reason = flight_dump t reason

let stop t =
  if not (Atomic.exchange t.stop_flag true) then begin
    push t.writer_q W_quit;
    Array.iter (fun q -> push q R_quit) t.reader_qs;
    List.iter Domain.join t.domains;
    t.unhook ();
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      (t.listen_fd :: Option.to_list t.metrics_fd)
  end
