(* Writer-side shipping loop.  One domain, one select loop, over the
   listen socket, a self-pipe (the commit hook's doorbell) and every
   follower socket.  See the interface for the protocol overview.

   Cursor chain invariant: the publisher assigns [prev] from its own
   [chain] cursor as it drains the commit queue, so the stream is a
   single totally-ordered chain no matter how commits interleave with
   checkpoints.  A record whose post-append cursor jumped to a new
   generation with records >= 1 means a checkpoint slipped in between
   two commits without a quiet moment for the idle mark; a synthetic
   Mark is inserted in front of it so every first-record-of-a-
   generation chains from [(gen, 0)] — which is exactly where a
   follower lands after loading the generation's snapshot. *)

module Persist = Cactis.Persist
module Db = Cactis.Db
module Codec = Cactis.Codec
module Counters = Cactis_util.Counters
module Histogram = Cactis_obs.Histogram
module Wal = Cactis_storage.Wal
module Frame = Cactis_net.Frame
module P = Repl_proto

type config = { cfg_port : int; cfg_heartbeat_s : float }

let config ?(port = 0) ?(heartbeat_s = 1.0) () = { cfg_port = port; cfg_heartbeat_s = heartbeat_s }

(* Backlog items retained before stragglers are evicted. *)
let max_backlog = 262_144

(* One shipped stream item.  A record advances the cursor by one WAL
   append; a mark advances it to a checkpoint generation boundary. *)
type item =
  | I_rec of { i_prev : P.cursor; i_cursor : P.cursor; i_record : string }
  | I_mark of { i_prev : P.cursor; i_gen : int }

let item_after = function
  | I_rec { i_cursor; _ } -> i_cursor
  | I_mark { i_gen; _ } -> { P.gen = i_gen; records = 0 }

(* What the commit hook pushes: the record plus the WAL cursor read
   right after the durable append.  [prev] is assigned later, by the
   publisher domain, from its chain. *)
type pending = { p_cursor : P.cursor; p_record : string }

type conn = {
  c_fd : Unix.file_descr;
  c_dec : Frame.decoder;
  mutable c_pos : int;  (* next backlog seq to send; meaningful when streaming *)
  mutable c_streaming : bool;  (* handshake done, receiving the stream *)
  mutable c_alive : bool;
}

type t = {
  cfg : config;
  persist : Persist.t;
  counters : Counters.t;
  hists : Histogram.t;
  (* hook -> publisher handoff; [qmu] also covers the idle-mark guard so
     a Mark can never be emitted while a just-appended record is still
     in flight between the WAL and the queue. *)
  qmu : Mutex.t;
  queue : pending Queue.t;
  mutable hook_live : bool;  (* under qmu *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  listen_fd : Unix.file_descr;
  lport : int;
  (* Everything below is publisher-domain private. *)
  mutable backlog : item array;  (* ring buffer *)
  mutable first_seq : int;
  mutable next_seq : int;
  mutable chain : P.cursor;  (* cursor after the last appended item *)
  mutable conns : conn list;
  mutable last_hb : float;
  stop_flag : bool Atomic.t;
  g_followers : int Atomic.t;
  g_head_seq : int Atomic.t;
  mutable domain : unit Domain.t option;
}

let port t = t.lport
let followers t = Atomic.get t.g_followers
let head_seq t = Atomic.get t.g_head_seq

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* ------------------------------------------------------------------ *)
(* Backlog ring                                                        *)

let dummy_item = I_mark { i_prev = P.cursor_zero; i_gen = 0 }

let blog_size t = t.next_seq - t.first_seq

let blog_get t seq =
  assert (seq >= t.first_seq && seq < t.next_seq);
  t.backlog.(seq mod Array.length t.backlog)

let blog_push t item =
  let cap = Array.length t.backlog in
  if blog_size t = cap then begin
    let bigger = Array.make (cap * 2) dummy_item in
    for s = t.first_seq to t.next_seq - 1 do
      bigger.(s mod (cap * 2)) <- t.backlog.(s mod cap)
    done;
    t.backlog <- bigger
  end;
  t.backlog.(t.next_seq mod Array.length t.backlog) <- item;
  t.next_seq <- t.next_seq + 1

(* Drop every item below [seq] (clearing slots so records are not
   retained by the ring after pruning). *)
let blog_drop_below t seq =
  let seq = min seq t.next_seq in
  while t.first_seq < seq do
    t.backlog.(t.first_seq mod Array.length t.backlog) <- dummy_item;
    t.first_seq <- t.first_seq + 1
  done

(* ------------------------------------------------------------------ *)
(* Sends.  Follower sockets are non-blocking, so [Frame.send] gives each
   frame the send deadline: a follower that stops draining is dropped
   instead of wedging the publisher. *)

let send conn msg =
  try Frame.send conn.c_fd (P.encode_server msg) with
  | Frame.Stalled _ -> raise (Repl_error.Transport "send deadline exceeded")
  | Unix.Unix_error (e, _, _) -> raise (Repl_error.Transport (Unix.error_message e))

(* ------------------------------------------------------------------ *)
(* Queue drain: pending records -> chained backlog items               *)

let append_item t item =
  blog_push t item;
  t.chain <- item_after item;
  Atomic.set t.g_head_seq (t.next_seq - 1);
  match item with
  | I_mark _ -> Counters.incr t.counters "repl.marks"
  | I_rec _ -> ()

let drain_queue t =
  Mutex.lock t.qmu;
  let drained = Queue.fold (fun acc p -> p :: acc) [] t.queue in
  Queue.clear t.queue;
  (* Idle mark: a checkpoint ran and the WAL is empty again, so the
     chain state IS the new generation's snapshot.  Guarded by the same
     mutex as the hook so no record can be between WAL and queue. *)
  let idle_mark =
    drained = []
    && Persist.generation t.persist > t.chain.P.gen
    && Persist.wal_records t.persist = 0
  in
  let gen_now = Persist.generation t.persist in
  Mutex.unlock t.qmu;
  let before = t.next_seq in
  if idle_mark then append_item t (I_mark { i_prev = t.chain; i_gen = gen_now });
  List.iter
    (fun p ->
      (* First record of a fresh generation (records >= 1): a checkpoint
         landed between commits with no idle moment; chain through the
         generation boundary explicitly so bootstrapping followers (who
         start at [(gen, 0)]) can join the chain. *)
      if p.p_cursor.P.gen > t.chain.P.gen && p.p_cursor.P.records >= 1 then
        append_item t (I_mark { i_prev = t.chain; i_gen = p.p_cursor.P.gen });
      append_item t (I_rec { i_prev = t.chain; i_cursor = p.p_cursor; i_record = p.p_record }))
    (List.rev drained);
  t.next_seq > before

(* ------------------------------------------------------------------ *)
(* Follower bookkeeping                                                *)

let set_followers_gauge t =
  Atomic.set t.g_followers (List.length (List.filter (fun c -> c.c_alive) t.conns))

let drop_conn t conn =
  if conn.c_alive then begin
    conn.c_alive <- false;
    (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c -> c != conn) t.conns;
    set_followers_gauge t
  end

let refuse t conn ~code ~message =
  Counters.incr t.counters "repl.refusals";
  (try send conn (P.Refuse { code; message }) with Repl_error.Transport _ -> ());
  drop_conn t conn

(* Send backlog items [from, upto) as Batch/Mark frames, batches capped
   near 1 MiB of payload.  Returns the new position. *)
let send_range t conn ~from ~upto =
  let batch = ref [] and batch_bytes = ref 0 in
  let flush () =
    if !batch <> [] then begin
      let entries = List.rev !batch in
      send conn (P.Batch { sent_us = now_us (); entries });
      Counters.incr t.counters "repl.ship_batches";
      Counters.add t.counters "repl.ship_records" (List.length entries);
      Counters.add t.counters "repl.ship_bytes" !batch_bytes;
      batch := [];
      batch_bytes := 0
    end
  in
  for seq = from to upto - 1 do
    match blog_get t seq with
    | I_rec { i_prev; i_cursor; i_record } ->
      batch :=
        { P.e_seq = seq; e_prev = i_prev; e_cursor = i_cursor; e_record = i_record } :: !batch;
      batch_bytes := !batch_bytes + String.length i_record + 32;
      if !batch_bytes >= 1 lsl 20 then flush ()
    | I_mark { i_prev; i_gen } ->
      flush ();
      send conn (P.Mark { seq; prev = i_prev; generation = i_gen })
  done;
  flush ();
  conn.c_pos <- upto

(* First backlog seq whose after-cursor is past [cursor], if any. *)
let first_past t cursor =
  let rec scan seq =
    if seq >= t.next_seq then None
    else if P.cursor_compare (item_after (blog_get t seq)) cursor > 0 then Some seq
    else scan (seq + 1)
  in
  scan t.first_seq

let item_prev = function I_rec { i_prev; _ } -> i_prev | I_mark { i_prev; _ } -> i_prev

(* Snapshot + catch-up bootstrap for a follower the backlog cannot
   resume. *)
let bootstrap t conn =
  match Persist.read_checkpoint t.persist with
  | None ->
    (* No checkpoint on disk can only mean an empty baseline: the
       follower starts from cursor zero and replays the whole backlog. *)
    conn.c_pos <- t.first_seq;
    conn.c_streaming <- true
  | Some (generation, schema_version, payload) ->
    send conn (P.Snap_begin { generation; schema_version; size = String.length payload });
    let len = String.length payload in
    let off = ref 0 in
    let sent_any = ref false in
    while (not !sent_any) || !off < len do
      let n = min P.snap_chunk_bytes (len - !off) in
      let last = !off + n >= len in
      send conn (P.Snap_chunk { last; data = String.sub payload !off n });
      off := !off + n;
      sent_any := true
    done;
    Counters.incr t.counters "repl.snapshots_served";
    let at = { P.gen = generation; records = 0 } in
    conn.c_pos <- (match first_past t at with Some s -> s | None -> t.next_seq);
    conn.c_streaming <- true

let handle_hello t conn (cursor : P.cursor) =
  let wgen = Persist.generation t.persist in
  if cursor.P.gen > wgen && cursor.P.gen > t.chain.P.gen then
    refuse t conn ~code:Repl_error.code_generation_mismatch
      ~message:
        (Printf.sprintf "replica at checkpoint generation %d, writer at %d — stale writer?"
           cursor.P.gen wgen)
  else if P.cursor_compare cursor t.chain > 0 then
    refuse t conn ~code:Repl_error.code_follower_ahead
      ~message:
        (Printf.sprintf "replica cursor %s is ahead of writer head %s"
           (P.cursor_to_string cursor) (P.cursor_to_string t.chain))
  else if P.cursor_compare cursor t.chain = 0 then begin
    conn.c_pos <- t.next_seq;
    conn.c_streaming <- true
  end
  else
    match first_past t cursor with
    | Some seq when P.cursor_compare (item_prev (blog_get t seq)) cursor = 0 ->
      conn.c_pos <- seq;
      conn.c_streaming <- true
    | _ -> bootstrap t conn

(* Completing a handshake announces the writer's true head right away:
   a follower resuming a multi-frame backlog (batch / mark / batch)
   must not believe itself synced at the first frame boundary. *)
let heartbeat_msg t =
  P.Heartbeat { head_seq = t.next_seq - 1; cursor = t.chain; sent_us = now_us () }

let announce t conn =
  try send conn (heartbeat_msg t) with Repl_error.Transport _ -> drop_conn t conn

let handle_client_frame t conn frame =
  match P.decode_client frame with
  | P.Hello { cursor; _ } ->
    if conn.c_streaming then
      refuse t conn ~code:Repl_error.code_protocol ~message:"Hello after handshake"
    else begin
      handle_hello t conn cursor;
      if conn.c_alive && conn.c_streaming then announce t conn
    end
  | P.Ack { seq; _ } ->
    Histogram.observe_named t.hists "repl.follower_lag_records"
      (float_of_int (max 0 (t.next_seq - 1 - seq)))

let service_conn t conn =
  match Frame.fill conn.c_dec conn.c_fd with
  | 0 -> drop_conn t conn
  | _ -> (
    try
      let rec frames () =
        match Frame.next conn.c_dec with
        | Some f when conn.c_alive ->
          handle_client_frame t conn f;
          frames ()
        | _ -> ()
      in
      frames ()
    with P.Corrupt _ | Frame.Too_large _ | Repl_error.Transport _ -> drop_conn t conn)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> drop_conn t conn

(* ------------------------------------------------------------------ *)
(* Prune: drop items every follower has been sent AND that precede the
   previous generation boundary (the current and previous generations
   stay resumable).  If the ring still exceeds [max_backlog], evict the
   stragglers holding it back — they re-bootstrap on reconnect — and
   cut to the cap. *)

let prune t =
  let min_pos =
    List.fold_left
      (fun acc c -> if c.c_streaming then min acc c.c_pos else acc)
      t.next_seq t.conns
  in
  let floor = { P.gen = t.chain.P.gen - 1; records = 0 } in
  let gen_keep = match first_past t floor with Some s -> s | None -> t.next_seq in
  blog_drop_below t (min gen_keep min_pos);
  if blog_size t > max_backlog then begin
    let hard = t.next_seq - max_backlog in
    List.iter
      (fun c -> if c.c_streaming && c.c_pos < hard then drop_conn t c)
      t.conns;
    blog_drop_below t hard
  end

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)

let heartbeat t =
  let msg = heartbeat_msg t in
  List.iter
    (fun c -> if c.c_streaming then try send c msg with Repl_error.Transport _ -> drop_conn t c)
    t.conns

let rec accept_conns t =
  match Frame.accept t.listen_fd with
  | Some fd ->
    t.conns <-
      { c_fd = fd; c_dec = Frame.decoder (); c_pos = -1; c_streaming = false; c_alive = true }
      :: t.conns;
    set_followers_gauge t;
    accept_conns t
  | None -> ()

let stream_new t =
  List.iter
    (fun c ->
      if c.c_streaming && c.c_pos < t.next_seq then
        try send_range t c ~from:c.c_pos ~upto:t.next_seq
        with Repl_error.Transport _ -> drop_conn t c)
    t.conns

let run_loop t =
  while not (Atomic.get t.stop_flag) do
    let fds = t.listen_fd :: t.wake_r :: List.map (fun c -> c.c_fd) t.conns in
    let readable =
      try
        let r, _, _ = Unix.select fds [] [] t.cfg.cfg_heartbeat_s in
        r
      with Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> []
    in
    if List.memq t.wake_r readable then begin
      let b = Bytes.create 256 in
      try ignore (Unix.read t.wake_r b 0 256) with Unix.Unix_error _ -> ()
    end;
    if not (Atomic.get t.stop_flag) then begin
      ignore (drain_queue t);
      if List.memq t.listen_fd readable then accept_conns t;
      List.iter
        (fun c -> if c.c_alive && List.memq c.c_fd readable then service_conn t c)
        t.conns;
      stream_new t;
      prune t;
      let now = Unix.gettimeofday () in
      if now -. t.last_hb >= t.cfg.cfg_heartbeat_s then begin
        t.last_hb <- now;
        heartbeat t
      end
    end
  done;
  List.iter (fun c -> drop_conn t c) t.conns

(* ------------------------------------------------------------------ *)

(* Seed the backlog from the records already in the on-disk WAL, so
   followers can resume across a writer restart without re-snapshotting
   (the previous-generation retention starts honest). *)
let seed_backlog t =
  let wal_path = Persist.wal_path t.persist in
  if Sys.file_exists wal_path then begin
    let r = Wal.read wal_path in
    let keep = Persist.wal_records t.persist in
    t.chain <- { P.gen = r.Wal.generation; records = 0 };
    List.iteri
      (fun i record ->
        if i < keep then
          append_item t
            (I_rec
               {
                 i_prev = t.chain;
                 i_cursor = { P.gen = r.Wal.generation; records = i + 1 };
                 i_record = record;
               }))
      r.Wal.records
  end
  else t.chain <- { P.gen = Persist.generation t.persist; records = 0 }

let start ?(config = config ()) persist =
  let db = Persist.db persist in
  let listen_fd, lport = Frame.listen ~port:config.cfg_port in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      cfg = config;
      persist;
      counters = Db.counters db;
      hists = (Db.obs db).Cactis_obs.Ctx.hists;
      qmu = Mutex.create ();
      queue = Queue.create ();
      hook_live = true;
      wake_r;
      wake_w;
      listen_fd;
      lport;
      backlog = Array.make 1024 dummy_item;
      first_seq = 0;
      next_seq = 0;
      chain = P.cursor_zero;
      conns = [];
      last_hb = Unix.gettimeofday ();
      stop_flag = Atomic.make false;
      g_followers = Atomic.make 0;
      g_head_seq = Atomic.make (-1);
      domain = None;
    }
  in
  seed_backlog t;
  Atomic.set t.g_head_seq (t.next_seq - 1);
  let wake () =
    try ignore (Unix.single_write_substring t.wake_w "!" 0 1)
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let prior = Db.commit_hook db in
  Db.set_commit_hook db
    (Some
       (fun delta ->
         (* The WAL append (prior hook) and the queue push happen under
            one lock so the drain-side mark guard can trust "queue empty
            => every durable record is in the chain". *)
         Mutex.lock t.qmu;
         Fun.protect
           ~finally:(fun () -> Mutex.unlock t.qmu)
           (fun () ->
             (match prior with Some f -> f delta | None -> ());
             if t.hook_live then begin
               let c =
                 { P.gen = Persist.generation persist; records = Persist.wal_records persist }
               in
               Queue.add { p_cursor = c; p_record = Codec.encode_delta delta } t.queue;
               wake ()
             end)));
  t.domain <- Some (Domain.spawn (fun () -> run_loop t));
  t

let stop t =
  if not (Atomic.exchange t.stop_flag true) then begin
    Mutex.lock t.qmu;
    t.hook_live <- false;
    Mutex.unlock t.qmu;
    (try ignore (Unix.single_write_substring t.wake_w "!" 0 1)
     with Unix.Unix_error _ -> ());
    (match t.domain with Some d -> Domain.join d | None -> ());
    t.domain <- None;
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.listen_fd; t.wake_r; t.wake_w ]
  end
