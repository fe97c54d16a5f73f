(* Follower streaming client.  One blocking socket; heartbeat silence
   is detected with SO_RCVTIMEO (reads restart only on EINTR, so the
   timeout surfaces as EAGAIN and is mapped to a recoverable Transport
   error here).  Frames are assembled through an incremental decoder
   with a deadline of its own: a corrupted length header can announce a
   frame far larger than anything the writer will send, and heartbeat
   traffic would keep resetting the receive timeout forever while that
   phantom frame never completes.  If no whole frame forms within a few
   heartbeat periods the connection is declared dead instead. *)

module Db = Cactis.Db
module Snapshot = Cactis.Snapshot
module Replica = Cactis.Replica
module Counters = Cactis_util.Counters
module Histogram = Cactis_obs.Histogram
module Frame = Cactis_net.Frame
module P = Repl_proto

type config = {
  f_heartbeat_timeout_s : float;
  f_backoff_s : float;
  f_max_backoff_s : float;
  f_check_every : int;
  f_max_attempts : int;
}

let config ?(heartbeat_timeout_s = 5.0) ?(backoff_s = 0.1) ?(max_backoff_s = 5.0)
    ?(check_every = 8) ?(max_attempts = 0) () =
  {
    f_heartbeat_timeout_s = heartbeat_timeout_s;
    f_backoff_s = backoff_s;
    f_max_backoff_s = max_backoff_s;
    f_check_every = check_every;
    f_max_attempts = max_attempts;
  }

type status = Idle | Syncing | Streaming | Stopped | Failed of string

type t = {
  cfg : config;
  host : string;
  tport : int;
  make_schema : unit -> Cactis.Schema.t;
  mutable apply_override : (string -> unit) option;
  mutable db : Db.t option;
  mutable replica : Replica.t option;
  mutable fd : Unix.file_descr option;
  mutable dec : Frame.decoder;  (* reset on every (re)connect *)
  mutable st : status;
  mutable head : int;  (* writer's announced head seq *)
  mutable batches : int;  (* over this connection *)
  mutable conn_started : float;
  mutable caught_up : bool;  (* catch-up time recorded for this connection *)
  (* Snapshot assembly state while a bootstrap is in flight. *)
  mutable snap : (int * int * Buffer.t) option;  (* generation, size, data *)
  stop_flag : bool Atomic.t;
}

let create ?(config = config ()) ~make_schema ~host ~port () =
  {
    cfg = config;
    host;
    tport = port;
    make_schema;
    apply_override = None;
    db = None;
    replica = None;
    fd = None;
    dec = Frame.decoder ();
    st = Idle;
    head = -1;
    batches = 0;
    conn_started = 0.0;
    caught_up = false;
    snap = None;
    stop_flag = Atomic.make false;
  }

let status t = t.st
let db t = t.db
let cursor t = match t.replica with Some r -> Replica.cursor r | None -> P.cursor_zero
let applied_seq t = match t.replica with Some r -> Replica.seq r | None -> -1
let head_seq t = t.head
let synced t = t.db <> None && applied_seq t >= t.head
let set_apply t f = t.apply_override <- f

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

let with_db t f = match t.db with Some db -> f db | None -> ()
let c_incr t name = with_db t (fun db -> Counters.incr (Db.counters db) name)
let c_add t name n = with_db t (fun db -> Counters.add (Db.counters db) name n)

let observe t name v =
  with_db t (fun db ->
      Histogram.observe_named (Db.obs db).Cactis_obs.Ctx.hists name v)

let close_fd t =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.fd;
  t.fd <- None

let stop t =
  if not (Atomic.exchange t.stop_flag true) then
    (* Shut the socket down so a blocked recv wakes immediately;
       closing is left to the streaming thread, which owns the fd. *)
    Option.iter (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()) t.fd

let transport e = Repl_error.Transport (Unix.error_message e)

let send fd msg =
  try Frame.send fd (P.encode_client msg) with Unix.Unix_error (e, _, _) -> raise (transport e)

let connect t =
  let fd =
    try Frame.connect ~host:t.host ~port:t.tport with
    | Unix.Unix_error (Unix.ENOENT, _, _) ->
      raise (Repl_error.Transport (Printf.sprintf "cannot resolve %s" t.host))
    | Unix.Unix_error (e, _, _) -> raise (transport e)
  in
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.f_heartbeat_timeout_s
   with Unix.Unix_error (e, _, _) ->
     Unix.close fd;
     raise (transport e));
  t.fd <- Some fd;
  t.dec <- Frame.decoder ();
  t.conn_started <- Unix.gettimeofday ();
  t.batches <- 0;
  t.caught_up <- false;
  t.snap <- None;
  let schema_version = match t.db with Some db -> Db.schema_step_count db | None -> 0 in
  send fd (P.Hello { cursor = cursor t; schema_version });
  fd

let send_ack t fd ~lag_us = send fd (P.Ack { seq = applied_seq t; cursor = cursor t; lag_us })

(* The replica's apply closure indirects through [apply_override] so
   {!set_apply} takes effect without rebuilding the replica (and with
   it, losing the cursor). *)
let make_replica t ~cursor db =
  Replica.create
    ~apply:(fun record ->
      match t.apply_override with
      | Some f -> f record
      | None -> Replica.default_apply db record)
    ~cursor db

let install_db t ~cursor db =
  t.db <- Some db;
  t.replica <- Some (make_replica t ~cursor db)

let replica_exn t =
  match t.replica with
  | Some r -> r
  | None -> raise (P.Corrupt { context = "server"; message = "stream before handshake completed" })

let note_caught_up t =
  if (not t.caught_up) && t.head >= 0 && applied_seq t >= t.head then begin
    t.caught_up <- true;
    observe t "repl.catchup" (Unix.gettimeofday () -. t.conn_started)
  end

let handle_msg t fd msg =
  match msg with
  | P.Refuse { code; message } ->
    c_incr t "repl.refused";
    raise (Repl_error.Refused { code; message })
  | P.Snap_begin { generation; size; _ } ->
    if t.apply_override <> None then
      raise
        (Repl_error.Refused
           {
             code = Repl_error.code_protocol;
             message = "writer demands re-bootstrap but the replica database is externally owned";
           });
    t.snap <- Some (generation, size, Buffer.create (max 1024 size))
  | P.Snap_chunk { last; data } -> (
    match t.snap with
    | None ->
      raise (P.Corrupt { context = "server"; message = "snapshot chunk outside a bootstrap" })
    | Some (generation, size, buf) ->
      Buffer.add_string buf data;
      if Buffer.length buf > size then
        raise (P.Corrupt { context = "server"; message = "snapshot larger than announced" });
      if last then begin
        if Buffer.length buf <> size then
          raise
            (P.Corrupt
               {
                 context = "server";
                 message =
                   Printf.sprintf "snapshot ended at %d of %d bytes" (Buffer.length buf) size;
               });
        let payload = Buffer.contents buf in
        t.snap <- None;
        let db =
          try Snapshot.load_binary (t.make_schema ()) payload
          with e ->
            raise
              (P.Corrupt
                 { context = "server"; message = "snapshot load: " ^ Printexc.to_string e })
        in
        install_db t ~cursor:{ P.gen = generation; records = 0 } db;
        c_incr t "repl.bootstraps";
        t.st <- Streaming
      end)
  | P.Batch { sent_us; entries } ->
    if t.db = None then install_db t ~cursor:P.cursor_zero (Db.create (t.make_schema ()));
    t.st <- Streaming;
    let r = replica_exn t in
    let applied = ref 0 in
    List.iter
      (fun e ->
        let t0 = Unix.gettimeofday () in
        match Replica.apply_entry r e with
        | Replica.Applied ->
          incr applied;
          observe t "repl.apply" (Unix.gettimeofday () -. t0)
        | Replica.Skipped -> ())
      entries;
    t.batches <- t.batches + 1;
    c_incr t "repl.batches";
    c_add t "repl.records" !applied;
    (match List.rev entries with
    | last :: _ -> t.head <- max t.head last.P.e_seq
    | [] -> ());
    let lag_us = max 0 (now_us () - sent_us) in
    observe t "repl.lag_s" (float_of_int lag_us /. 1e6);
    note_caught_up t;
    send_ack t fd ~lag_us;
    if
      t.cfg.f_check_every > 0
      && t.apply_override = None
      && t.batches mod t.cfg.f_check_every = 0
    then begin
      c_incr t "repl.integrity_checks";
      Replica.drift_check r
    end
  | P.Mark { seq; prev; generation } ->
    if t.db = None then install_db t ~cursor:P.cursor_zero (Db.create (t.make_schema ()));
    t.st <- Streaming;
    ignore (Replica.apply_mark (replica_exn t) ~seq ~prev ~generation);
    t.head <- max t.head seq;
    note_caught_up t
  | P.Heartbeat { head_seq; sent_us; _ } ->
    if t.db = None then install_db t ~cursor:P.cursor_zero (Db.create (t.make_schema ()));
    t.st <- Streaming;
    t.head <- max t.head head_seq;
    observe t "repl.lag_records" (float_of_int (max 0 (t.head - applied_seq t)));
    note_caught_up t;
    send_ack t fd ~lag_us:(max 0 (now_us () - sent_us))

(* Read one complete message through the incremental decoder.  The
   per-read SO_RCVTIMEO catches total silence; the assembly deadline
   catches a live connection whose announced frame never completes
   (e.g. a corrupted length header inflating the expected size). *)
let recv_msg t fd =
  let deadline = Unix.gettimeofday () +. (3.0 *. t.cfg.f_heartbeat_timeout_s) in
  let rec go () =
    match Frame.next t.dec with
    | Some frame -> P.decode_server frame
    | None ->
      if Frame.buffered t.dec > 0 && Unix.gettimeofday () > deadline then
        raise (Repl_error.Transport "frame assembly timed out");
      (match Frame.fill t.dec fd with
      | 0 ->
        if Frame.buffered t.dec > 0 then raise (Repl_error.Transport "stream truncated")
        else raise (Repl_error.Transport "connection closed by writer")
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        raise (Repl_error.Transport "heartbeat timeout")
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (e, _, _) -> raise (transport e));
      go ()
  in
  try go ()
  with Frame.Too_large n ->
    raise (P.Corrupt { context = "server"; message = Printf.sprintf "frame of %d bytes" n })

(* Pump messages until [until t] holds.  Leaves the connection open. *)
let pump t fd ~until =
  while (not (until t)) && not (Atomic.get t.stop_flag) do
    handle_msg t fd (recv_msg t fd)
  done

(* Count the recoverable error classes before the reconnect loop eats
   them. *)
let classify t e =
  match e with
  | Repl_error.Corrupt _ -> c_incr t "repl.corrupt_frames"
  | Repl_error.Gap _ -> c_incr t "repl.gaps"
  | _ -> ()

(* One connection attempt: connect if needed, then pump. *)
let session t ~until =
  let fd = match t.fd with Some fd -> fd | None -> connect t in
  pump t fd ~until

let run_with t ~until =
  let backoff = ref t.cfg.f_backoff_s in
  let attempts = ref 0 in
  let finished = ref false in
  while (not !finished) && not (Atomic.get t.stop_flag) do
    match session t ~until with
    | () -> finished := true
    | exception e when Atomic.get t.stop_flag -> ignore e
    | exception e when Repl_error.recoverable e ->
      classify t e;
      close_fd t;
      t.snap <- None;
      incr attempts;
      if t.cfg.f_max_attempts > 0 && !attempts >= t.cfg.f_max_attempts then begin
        t.st <- Failed (Repl_error.to_string e);
        raise e
      end;
      c_incr t "repl.reconnects";
      t.st <- Syncing;
      Unix.sleepf !backoff;
      backoff := Float.min t.cfg.f_max_backoff_s (!backoff *. 2.0)
    | exception e ->
      t.st <- Failed (Repl_error.to_string e);
      close_fd t;
      raise e
  done;
  if Atomic.get t.stop_flag then begin
    close_fd t;
    t.st <- Stopped
  end

let sync t =
  match t.db with
  | Some db -> db
  | None ->
    t.st <- Syncing;
    run_with t ~until:(fun t -> t.db <> None);
    (match t.db with
    | Some db -> db
    | None -> raise (Repl_error.Transport "stopped before sync completed"))

let run ?(until_synced = false) t =
  if t.db = None && not (Atomic.get t.stop_flag) then ignore (sync t);
  if not (Atomic.get t.stop_flag) then
    if until_synced then run_with t ~until:(fun t -> t.head >= 0 && synced t)
    else run_with t ~until:(fun _ -> false)
