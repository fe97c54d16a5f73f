module Db = Cactis.Db
module Schema = Cactis.Schema
module Snapshot = Cactis.Snapshot
module Codec = Cactis.Codec
module Value = Cactis.Value
module Engine = Cactis.Engine
module Store = Cactis.Store
module Counters = Cactis_util.Counters
module Histogram = Cactis_obs.Histogram
module Trace = Cactis_obs.Trace
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
  cfg_trace_sample : int;
  cfg_backlog : int;
  cfg_metrics_port : int option;  (* plain-HTTP GET /metrics listener (0 = ephemeral) *)
  cfg_slow_ms : float;  (* slow-op deadline; <= 0 disables the slowlog *)
  cfg_slowlog_sink : (string -> unit) option;  (* default: one line to stderr *)
  cfg_watchdog : Watchdog.config option;
  cfg_flight_dir : string option;  (* where crash/watchdog flight dumps land *)
  cfg_read_only : bool;  (* replica mode: refuse client commits *)
}

let config ?(port = 0) ?(readers = 1) ?(trace_sample = 64) ?(backlog = 64) ?metrics_port
    ?(slow_ms = 100.0) ?slowlog_sink ?watchdog ?flight_dir ?(read_only = false) () =
  if readers < 1 then invalid_arg "Server.config: readers must be >= 1";
  {
    cfg_port = port;
    cfg_readers = readers;
    cfg_trace_sample = trace_sample;
    cfg_backlog = backlog;
    cfg_metrics_port = metrics_port;
    cfg_slow_ms = slow_ms;
    cfg_slowlog_sink = slowlog_sink;
    cfg_watchdog = watchdog;
    cfg_flight_dir = flight_dir;
    cfg_read_only = read_only;
  }

(* A connection is read only by the front end; responses are written by
   whichever domain served the request, serialized per connection by
   [out_mu] so frames never interleave. *)
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

type msg =
  | Apply of int * string  (* version, encoded delta *)
  | Serve of job
  | Feed of feed
  | Quit

type queue = {
  qmu : Mutex.t;
  qcond : Condition.t;
  qitems : msg Queue.t;
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
  writer_q : queue;
  reader_qs : queue array;
  partition : Partition.t;
  ctrs : Counters.t;
  lats : Histogram.t;
  tracer : Trace.t;
  db_counters : Counters.t;
  db_hists : Histogram.t;
  slowlog : Slowlog.t option;
  mutable watchdog : Watchdog.t option;
  names_mu : Mutex.t;
  mutable domain_names : (int * string) list;  (* domain id -> server role *)
  mutable domains : unit Domain.t list;
}

let port t = t.bound_port
let metrics_port t = t.bound_metrics_port
let readers t = Array.length t.reader_qs
let published_version t = Atomic.get t.published
let counters t = t.ctrs
let latencies t = t.lats
let trace t = t.tracer
let slowlog t = t.slowlog
let watchdog t = t.watchdog

let elapsed_s start_ns = Int64.to_float (Int64.sub (Trace.now_ns ()) start_ns) *. 1e-9

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
  let dur = elapsed_s start_ns in
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
   with _ -> conn.alive <- false);
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
        let version = Atomic.get t.published in
        (* Sampled tracing: one commit in [trace_sample] records a span
           carrying the client's span id, so traces stitch across the
           wire. *)
        if t.cfg.cfg_trace_sample > 0 && version mod t.cfg.cfg_trace_sample = 0 then
          Trace.complete t.tracer ~cat:"server"
            ~args:[ ("span_id", Trace.I j_env.Proto.span_id); ("version", Trace.I version) ]
            ~start_ns:j_start_ns "commit";
        Proto.Committed { version; created = List.rev !created }
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

let writer_loop t db =
  (* Chain the delta broadcast after whatever durability hook (the WAL)
     is already installed; runs on this domain, during commit, so the
     broadcast always precedes the client's Committed response — which
     is what makes a subsequent min_version read safe to route. *)
  let prior = Db.commit_hook db in
  Db.set_commit_hook db
    (Some
       (fun delta ->
         (match prior with Some f -> f delta | None -> ());
         let v = Atomic.get t.published + 1 in
         let encoded = Codec.encode_delta delta in
         Array.iter (fun q -> push q (Apply (v, encoded))) t.reader_qs;
         Atomic.set t.published v));
  let rec loop () =
    match pop t.writer_q with
    | Quit -> ()
    | Apply _ -> loop ()
    | Serve job ->
      writer_serve t db job;
      loop ()
    | Feed f ->
      (* Replicated records bypass the commit hook by construction
         ([replay_delta] never re-logs), so the reader broadcast that
         normally rides the hook happens explicitly here. *)
      let result =
        try
          Db.replay_delta db (Codec.decode_delta f.f_record);
          Engine.propagate (Db.engine db);
          let v = Atomic.get t.published + 1 in
          Array.iter (fun q -> push q (Apply (v, f.f_record))) t.reader_qs;
          Atomic.set t.published v;
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

(* Depth-limited reachability: a node is visited at the shallowest
   depth it is seen at, so [depth] bounds hops from the root ([< 0] =
   unbounded). *)
let traverse db ~root ~rel ~attr ~depth =
  let seen = Hashtbl.create 64 in
  let values = ref [] in
  let frontier = ref [ root ] in
  let d = ref 0 in
  while !frontier <> [] && (depth < 0 || !d <= depth) do
    let next = ref [] in
    List.iter
      (fun id ->
        if not (Hashtbl.mem seen id) then begin
          Hashtbl.add seen id ();
          values := Db.get db ~watch:false id attr :: !values;
          next := List.rev_append (Db.related db id rel) !next
        end)
      !frontier;
    frontier := !next;
    incr d
  done;
  (Hashtbl.length seen, Value.sum !values)

let reader_serve t replica ~applied { j_conn; j_env; j_req; j_start_ns } =
  let h0, m0 = pool_stats replica in
  let resp =
    try
      match j_req with
      | Proto.Read { instance; attr; _ } ->
        Proto.Value { version = applied; value = Db.get replica ~watch:false instance attr }
      | Proto.Traverse { root; rel; attr; depth; _ } ->
        let visited, total = traverse replica ~root ~rel ~attr ~depth in
        Proto.Traversed { version = applied; visited; total }
      | req ->
        Proto.Error
          { code = Proto.E_server; message = "reader cannot serve " ^ Proto.verb_name req }
    with e -> Proto.error_of_exn e
  in
  let h1, m1 = pool_stats replica in
  send_resp t j_conn j_env resp ~verb:(Proto.verb_name j_req) ~start_ns:j_start_ns
    ~version:applied
    ~pager:(h1 - h0, m1 - m0)

let job_min_version job =
  match job.j_req with
  | Proto.Read { min_version; _ } | Proto.Traverse { min_version; _ } -> min_version
  | _ -> 0

(* A replica is lazy: reads never watch, so an apply only marks and
   checks constraints, and a read evaluates just the out-of-date cone it
   asks for.  It is memory-resident: its pool never evicts, because a
   replica is an in-memory copy and simulated misses would be pure cost.

   A replica that fails to load or apply stops applying but keeps its
   domain alive: every job it holds or later receives is answered with a
   typed E_server error instead of waiting forever for a version it will
   never reach. *)
let reader_loop t name master_snapshot make_schema q =
  let applied = ref 0 in
  let failure ~version e =
    Counters.incr t.ctrs "server.replica_failures";
    let message =
      Printf.sprintf "%s failed at version %d: %s" name version (Printexc.to_string e)
    in
    Flight.record_s Flight.Note ~a:version ~b:0 ("replica " ^ message);
    Error message
  in
  let state =
    ref
      (try Ok (Snapshot.load_binary ~buffer_capacity:max_int (make_schema ()) master_snapshot)
       with e -> failure ~version:0 e)
  in
  let apply_h = Histogram.cell t.lats "replica.apply" in
  let serve job =
    match !state with
    | Ok replica -> reader_serve t replica ~applied:!applied job
    | Error message ->
      send_resp t job.j_conn job.j_env
        (Proto.Error { code = Proto.E_server; message })
        ~verb:(Proto.verb_name job.j_req) ~start_ns:job.j_start_ns ~version:!applied
  in
  let ready job = Result.is_error !state || job_min_version job <= !applied in
  (* The broadcast happens during commit, strictly before the Committed
     response, so a read naming version v always queues behind Apply v.
     [deferred] is a safety net, not the expected path. *)
  let deferred = ref [] in
  let flush_deferred () =
    let now, still = List.partition ready !deferred in
    deferred := still;
    List.iter serve now
  in
  let rec loop () =
    match pop q with
    | Quit -> ()
    | Apply (v, delta) ->
      (match !state with
      | Error _ -> ()
      | Ok replica -> (
        let start_ns = Trace.now_ns () in
        match
          Db.replay_delta replica (Codec.decode_delta delta);
          Engine.propagate (Db.engine replica)
        with
        | () ->
          Histogram.observe apply_h (elapsed_s start_ns);
          applied := v
        | exception e -> state := failure ~version:v e));
      flush_deferred ();
      loop ()
    | Serve job ->
      if ready job then serve job else deferred := job :: !deferred;
      loop ()
    | Feed _ -> loop ()  (* writer-queue only *)
  in
  loop ()

(* ---- Front end ---- *)

(* Closing takes the same mutex responses are written under, so a
   worker mid-reply either finishes its frame first or sees [alive =
   false] — the fd is never closed (and possibly reused) under a
   concurrent write. *)
let kill_conn conn =
  Mutex.lock conn.out_mu;
  if conn.alive then begin
    conn.alive <- false;
    (try Unix.close conn.fd with _ -> ())
  end;
  Mutex.unlock conn.out_mu

let close_conn conns conn =
  kill_conn conn;
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

let route t id = Partition.site_of_range t.partition id

let dispatch t conn payload =
  let start_ns = Trace.now_ns () in
  match Proto.decode_req payload with
  | exception Proto.Malformed m ->
    send_resp t conn { Proto.req_id = 0; span_id = 0 }
      (Proto.Error { code = Proto.E_protocol; message = m })
      ~verb:"protocol" ~start_ns
  | env, req -> (
    Counters.incr t.ctrs ("server.req." ^ Proto.verb_name req);
    let job = { j_conn = conn; j_env = env; j_req = req; j_start_ns = start_ns } in
    let check_version min_version k =
      if min_version > Atomic.get t.published then
        send_resp t conn env
          (Proto.Error
             {
               code = Proto.E_protocol;
               message =
                 Printf.sprintf "min_version %d not yet committed (latest %d)" min_version
                   (Atomic.get t.published);
             })
          ~verb:(Proto.verb_name req) ~start_ns
      else k ()
    in
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
    | Proto.Open_session | Proto.Commit _ -> push t.writer_q (Serve job)
    | Proto.Read { min_version; instance; _ } ->
      check_version min_version (fun () ->
          push t.reader_qs.(route t instance) (Serve job))
    | Proto.Traverse { min_version; root; _ } ->
      check_version min_version (fun () -> push t.reader_qs.(route t root) (Serve job)))

(* One-shot plain-HTTP scrape endpoint: accept, answer [GET /metrics]
   (anything else gets 404), close.  Blocking is fine — the body is
   built from in-memory snapshots and the peer is a scraper on
   loopback; a stalled scraper delays the front end at most one
   request, never the serving domains. *)
let handle_metrics_conn t mfd =
  match Unix.accept ~cloexec:true mfd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception _ -> ()
  | client_fd, _ ->
    Counters.incr t.ctrs "server.metrics_scrapes";
    (try
       let buf = Bytes.create 4096 in
       let n = Unix.read client_fd buf 0 (Bytes.length buf) in
       let req = Bytes.sub_string buf 0 (max n 0) in
       let line = match String.index_opt req '\r' with
         | Some i -> String.sub req 0 i
         | None -> (match String.index_opt req '\n' with
           | Some i -> String.sub req 0 i
           | None -> req)
       in
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
       let rec write_all off len =
         if len > 0 then begin
           let w = Unix.write_substring client_fd response off len in
           write_all (off + w) (len - w)
         end
       in
       write_all 0 (String.length response)
     with _ -> ());
    (try Unix.close client_fd with _ -> ())

let frontend_loop t =
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let buf = Bytes.create 65536 in
  let handle_readable conn =
    match Unix.read conn.fd buf 0 (Bytes.length buf) with
    | 0 -> close_conn conns conn
    | n -> (
      Frame.feed conn.dec (Bytes.sub_string buf 0 n);
      try
        let rec drain () =
          match Frame.next conn.dec with
          | Some payload ->
            dispatch t conn payload;
            drain ()
          | None -> ()
        in
        drain ()
      with Frame.Too_large len ->
        send_resp t conn { Proto.req_id = 0; span_id = 0 }
          (Proto.Error
             {
               code = Proto.E_protocol;
               message = Printf.sprintf "frame length %d exceeds %d" len Frame.max_payload;
             })
          ~verb:"protocol" ~start_ns:(Trace.now_ns ());
        close_conn conns conn)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception _ -> close_conn conns conn
  in
  let base_fds =
    match t.metrics_fd with Some m -> [ t.listen_fd; m ] | None -> [ t.listen_fd ]
  in
  while not (Atomic.get t.stop_flag) do
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) conns base_fds in
    (match Unix.select fds [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      List.iter
        (fun fd ->
          if fd = t.listen_fd then begin
            match Unix.accept ~cloexec:true t.listen_fd with
            | client_fd, _ ->
              Unix.set_nonblock client_fd;
              Counters.incr t.ctrs "server.connections";
              Hashtbl.replace conns client_fd
                {
                  fd = client_fd;
                  dec = Frame.decoder ();
                  out_mu = Mutex.create ();
                  alive = true;
                };
              Flight.record Flight.Net_accept ~a:(Hashtbl.length conns) ~b:0
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
              -> ()
            | exception _ -> ()
          end
          else if Some fd = t.metrics_fd then handle_metrics_conn t fd
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
  Hashtbl.iter (fun _ conn -> kill_conn conn) conns

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
  Trace.name_thread t.tracer name;
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
  (* A client that disconnects mid-reply must surface as EPIPE on the
     write (handled per connection), not as a process-killing SIGPIPE. *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let master_snapshot = Snapshot.save_binary db in
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, config.cfg_port));
  Unix.listen listen_fd config.cfg_backlog;
  Unix.set_nonblock listen_fd;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let metrics_fd, bound_metrics_port =
    match config.cfg_metrics_port with
    | None -> (None, None)
    | Some p ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, p));
      Unix.listen fd 8;
      Unix.set_nonblock fd;
      let bp =
        match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
      in
      (Some fd, Some bp)
  in
  let tracer = Trace.create () in
  Trace.enable tracer;
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
      tracer;
      db_counters = Db.counters db;
      db_hists = (Db.obs db).Cactis_obs.Ctx.hists;
      slowlog;
      watchdog = None;
      names_mu = Mutex.create ();
      domain_names = [];
      domains = [];
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
  let reader_domains =
    Array.to_list
      (Array.mapi
         (fun i q ->
           let name = Printf.sprintf "reader-%d" i in
           Domain.spawn (fun () ->
               run_domain t name (fun () -> reader_loop t name master_snapshot make_schema q)))
         t.reader_qs)
  in
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
  push t.writer_q (Feed f);
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
    push t.writer_q Quit;
    Array.iter (fun q -> push q Quit) t.reader_qs;
    List.iter Domain.join t.domains;
    (try Unix.close t.listen_fd with _ -> ());
    match t.metrics_fd with
    | Some fd -> ( try Unix.close fd with _ -> ())
    | None -> ()
  end
