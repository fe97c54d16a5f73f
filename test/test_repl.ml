(* WAL-shipping replication: wire-protocol robustness, cursor-chain
   apply rules, live publisher/follower convergence, and the
   crash/fault-injection matrix.

   - Byte-exhaustive torn/flipped-stream tests: every truncation offset
     and every flipped byte of every protocol message must surface as a
     typed Corrupt error (never a mis-decoded message), and an
     end-to-end sweep through the {!Repl_proxy} confirms the follower
     recovers from each on reconnect.
   - Fault matrix: truncation, corruption, silence, duplication,
     reordering and stalls injected between writer and follower; every
     case must end with the replica byte-identical to the writer
     (binary-snapshot digest) and structurally clean (Integrity), or —
     for refusals — with the documented typed error.  Never silent
     divergence.
   - Regression: a follower ahead of a stale writer (restarted from an
     old checkpoint) is refused with a typed generation-mismatch error.
   - QCheck property: for a random interleaving of data commits, schema
     changes, undo/redo and checkpoints, a follower replaying any
     prefix of the shipped log observes exactly the writer's state at
     that prefix. *)

module Value = Cactis.Value
module Db = Cactis.Db
module Schema = Cactis.Schema
module Rule = Cactis.Rule
module Snapshot = Cactis.Snapshot
module Persist = Cactis.Persist
module Codec = Cactis.Codec
module Integrity = Cactis.Integrity
module Frame = Cactis_net.Frame
module Rng = Cactis_util.Rng
module Counters = Cactis_util.Counters
module P = Cactis_repl.Repl_proto
module E = Cactis_repl.Repl_error
module Replica = Cactis.Replica
module Publisher = Cactis_repl.Publisher
module Follower = Cactis_repl.Follower
module Server = Cactis_net.Server
module Client = Cactis_net.Client
module Proto = Cactis_net.Proto
module G = Gen_schemas
module Proxy = Repl_proxy

let parse_rule src = Cactis_ddl.Elaborate.compile_rule (Cactis_ddl.Parser.parse_expr src)
let () = Cactis_ddl.Elaborate.install_rule_compiler ()

(* Scratch dirs live in dune's per-test sandbox. *)
let tmp_seq = ref 0

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let temp_dir () =
  incr tmp_seq;
  let dir = Printf.sprintf "repl_scratch_%d" !tmp_seq in
  (* A failing test raises before its cleanup, and the sandbox persists
     between runs: never inherit a previous run's snapshot or log. *)
  rm_rf dir;
  Sys.mkdir dir 0o755;
  dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let copy_dir src dst =
  if not (Sys.file_exists dst) then Sys.mkdir dst 0o755;
  Array.iter
    (fun f -> write_file (Filename.concat dst f) (read_file (Filename.concat src f)))
    (Sys.readdir src)

let c g r = { P.gen = g; records = r }

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                     *)

let k_src =
  {|
  object class k is
    relationships
      down : k multi socket inverse up;
      up   : k multi plug   inverse down;
    attributes
      a0   : int := 0;
      note : string;
    rules
      r0 = a0 * 2 + 1;
  end object;
|}

let make_schema () = Cactis_ddl.Elaborate.load_string k_src
let digest db = Digest.to_hex (Digest.string (Snapshot.save_binary db))

(* Observable state, shared with the schema-versioning suite's notion:
   every attribute of every live instance, down-links, subtype
   membership, and the schema description. *)
let observe db =
  let b = Buffer.create 512 in
  let sch = Db.schema db in
  List.iter
    (fun id ->
      let tn = Db.type_of db id in
      Buffer.add_string b (Printf.sprintf "%d:%s" id tn);
      List.iter
        (fun (d : Schema.attr_def) ->
          Buffer.add_string b
            (Printf.sprintf " %s=%s" d.Schema.attr_name
               (Value.to_string (Db.get db ~watch:false id d.Schema.attr_name))))
        (Schema.attrs sch ~type_name:tn);
      List.iter
        (fun id' -> Buffer.add_string b (Printf.sprintf " ->%d" id'))
        (List.sort compare (Db.related db id "down"));
      Buffer.add_char b '\n')
    (List.sort compare (Db.instance_ids db));
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "%s members: %s\n" s
           (String.concat ","
              (List.map string_of_int (List.sort compare (Db.subtype_members db s))))))
    (List.sort compare (Schema.subtype_names sch));
  Buffer.add_string b (Schema.describe sch);
  Buffer.contents b

type wenv = { dir : string; db : Db.t; p : Persist.t; pub : Publisher.t }

let writer_env ?(pub_cfg = Publisher.config ~heartbeat_s:0.25 ()) () =
  let dir = temp_dir () in
  let db = Db.create (make_schema ()) in
  let p = Persist.attach ~sync_every:0 ~dir db in
  let pub = Publisher.start ~config:pub_cfg p in
  { dir; db; p; pub }

let stop_env env =
  Publisher.stop env.pub;
  Persist.close env.p;
  rm_rf env.dir

(* [pad] fattens each record so byte-offset faults have a wide body to
   land in. *)
let commit_n ?(pad = 48) env n =
  for i = 1 to n do
    Db.with_txn env.db (fun () ->
        let id = Db.create_instance env.db "k" in
        Db.set env.db id "a0" (Value.Int i);
        Db.set env.db id "note" (Value.Str (String.make pad 'x')))
  done

let mixed_history env round =
  commit_n env ~pad:32 6;
  (match List.sort compare (Db.instance_ids env.db) with
  | a :: b :: _ -> Db.link env.db ~from_id:b ~rel:"down" ~to_id:a
  | _ -> ());
  Db.add_attr env.db ~type_name:"k"
    (Rule.intrinsic (Printf.sprintf "x%d" round) (Value.Int round));
  let src = Printf.sprintf "a0 + %d" round in
  Db.add_attr env.db ~expr:src ~type_name:"k"
    (Rule.derived (Printf.sprintf "d%d" round) (parse_rule src))

let fast_cfg ?(heartbeat_timeout_s = 2.0) ?(max_attempts = 0) ?(check_every = 1) () =
  Follower.config ~heartbeat_timeout_s ~backoff_s:0.05 ~max_backoff_s:0.25 ~check_every
    ~max_attempts ()

let follower ?cfg port =
  let config = match cfg with Some cfg -> cfg | None -> fast_cfg () in
  Follower.create ~config ~make_schema ~host:"127.0.0.1" ~port ()

let follower_db f =
  match Follower.db f with Some db -> db | None -> Alcotest.fail "follower has no replica"

(* Convergence = exact state: binary-snapshot digest equality, clean
   Integrity audit, and the textual observation for a readable diff
   when the digests disagree. *)
let assert_converged ?(msg = "") wdb f =
  let fdb = follower_db f in
  Alcotest.(check string) (msg ^ " observe") (observe wdb) (observe fdb);
  Alcotest.(check string) (msg ^ " snapshot digest") (digest wdb) (digest fdb);
  Alcotest.(check (list string)) (msg ^ " integrity") [] (Integrity.check fdb)

let wait_for ?(timeout = 10.0) label pred =
  let t0 = Unix.gettimeofday () in
  while (not (pred ())) && Unix.gettimeofday () -. t0 < timeout do
    Unix.sleepf 0.02
  done;
  Alcotest.(check bool) (label ^ " before timeout") true (pred ())

let counter db name = Counters.get (Db.counters db) name

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let sample_entries =
  [
    { P.e_seq = 0; e_prev = c 0 0; e_cursor = c 0 1; e_record = "alpha\x00\x01" };
    { P.e_seq = 1; e_prev = c 0 1; e_cursor = c 0 2; e_record = String.make 300 '\xfe' };
  ]

let sample_server_msgs =
  [
    P.Refuse { code = "follower-ahead"; message = "cursor (2,9) ahead of writer (1,3)" };
    P.Snap_begin { generation = 4; schema_version = 7; size = 12345 };
    P.Snap_chunk { last = false; data = "binary\x00\xffdata" };
    P.Snap_chunk { last = true; data = "" };
    P.Batch { sent_us = 1_722_000_000_123_456; entries = sample_entries };
    P.Batch { sent_us = 0; entries = [] };
    P.Mark { seq = 17; prev = c 1 42; generation = 2 };
    P.Heartbeat { head_seq = 99; cursor = c 3 5; sent_us = 123_456_789 };
    P.Heartbeat { head_seq = -1; cursor = c 1 0; sent_us = 0 };  (* empty log *)
  ]

let sample_client_msgs =
  [
    P.Hello { cursor = c 0 0; schema_version = 0 };
    P.Hello { cursor = c 12 34567; schema_version = 9 };
    P.Ack { seq = 42; cursor = c 1 7; lag_us = 1500 };
    P.Ack { seq = -1; cursor = c 0 0; lag_us = 0 };  (* pre-data ack *)
  ]

let test_proto_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "server msg roundtrips" true (P.decode_server (P.encode_server m) = m))
    sample_server_msgs;
  List.iter
    (fun m ->
      Alcotest.(check bool) "client msg roundtrips" true (P.decode_client (P.encode_client m) = m))
    sample_client_msgs

let test_cursor_order () =
  Alcotest.(check bool) "equal" true (P.cursor_compare (c 1 2) (c 1 2) = 0);
  Alcotest.(check bool) "records order" true (P.cursor_compare (c 1 2) (c 1 3) < 0);
  Alcotest.(check bool) "generation dominates" true (P.cursor_compare (c 1 999) (c 2 0) < 0);
  Alcotest.(check string) "printable" "(gen 1, record 2)" (P.cursor_to_string (c 1 2))

(* PR-2-style exhaustiveness, ported to the wire: decode of EVERY
   proper prefix and of EVERY single-byte-flipped variant of every
   message must raise the typed Corrupt error — no other exception, and
   never a successful decode of different bytes. *)
let exhaustive_mangle ~what encode decode msgs =
  List.iter
    (fun m ->
      let enc = encode m in
      for cut = 0 to String.length enc - 1 do
        match decode (String.sub enc 0 cut) with
        | exception P.Corrupt _ -> ()
        | _ ->
          Alcotest.fail (Printf.sprintf "%s truncated at %d/%d decoded" what cut (String.length enc))
      done;
      for i = 0 to String.length enc - 1 do
        let b = Bytes.of_string enc in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
        match decode (Bytes.to_string b) with
        | exception P.Corrupt _ -> ()
        | _ -> Alcotest.fail (Printf.sprintf "%s with byte %d flipped decoded" what i)
      done)
    msgs

let test_torn_and_flipped_messages () =
  exhaustive_mangle ~what:"server msg" P.encode_server P.decode_server sample_server_msgs;
  exhaustive_mangle ~what:"client msg" P.encode_client P.decode_client sample_client_msgs

(* ------------------------------------------------------------------ *)
(* Persist cursor plumbing                                             *)

let test_persist_cursor () =
  let dir = temp_dir () in
  let db = Db.create (make_schema ()) in
  let p = Persist.attach ~sync_every:0 ~dir db in
  Alcotest.(check int) "fresh generation" 0 (Persist.generation p);
  Alcotest.(check int) "fresh wal_records" 0 (Persist.wal_records p);
  Alcotest.(check bool) "no checkpoint yet" true (Persist.read_checkpoint p = None);
  for i = 1 to 3 do
    Db.with_txn db (fun () ->
        let id = Db.create_instance db "k" in
        Db.set db id "a0" (Value.Int i);
        Db.set db id "note" (Value.Str "n"))
  done;
  Alcotest.(check int) "one record per commit" 3 (Persist.wal_records p);
  Persist.checkpoint p;
  Alcotest.(check int) "checkpoint bumps generation" 1 (Persist.generation p);
  Alcotest.(check int) "checkpoint resets records" 0 (Persist.wal_records p);
  (match Persist.read_checkpoint p with
  | None -> Alcotest.fail "checkpoint must be readable"
  | Some (generation, _sv, payload) ->
    Alcotest.(check int) "checkpoint generation" 1 generation;
    let db2 = Snapshot.load_binary (make_schema ()) payload in
    Alcotest.(check string) "checkpoint payload loads to the same state" (observe db) (observe db2));
  Db.with_txn db (fun () -> ignore (Db.create_instance db "k"));
  Alcotest.(check int) "records count within the new generation" 1 (Persist.wal_records p);
  Persist.close p;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Replica chain rules                                                 *)

let test_chain_rules () =
  let applied = ref [] in
  let r =
    Replica.create
      ~apply:(fun s -> applied := s :: !applied)
      ~cursor:P.cursor_zero
      (Db.create (make_schema ()))
  in
  let e0 = { P.e_seq = 0; e_prev = c 0 0; e_cursor = c 0 1; e_record = "r0" } in
  Alcotest.(check bool) "first record applies" true (Replica.apply_entry r e0 = Replica.Applied);
  Alcotest.(check bool) "duplicate skips" true (Replica.apply_entry r e0 = Replica.Skipped);
  Alcotest.(check (list string)) "applied exactly once" [ "r0" ] !applied;
  (match
     Replica.apply_entry r { P.e_seq = 9; e_prev = c 0 5; e_cursor = c 0 6; e_record = "hole" }
   with
  | exception E.Gap { expected; got; seq } ->
    Alcotest.(check bool) "gap names the cursors" true
      (expected = c 0 1 && got = c 0 5 && seq = 9)
  | _ -> Alcotest.fail "out-of-order record must be a typed Gap");
  Alcotest.(check bool) "mark advances the generation" true
    (Replica.apply_mark r ~seq:1 ~prev:(c 0 1) ~generation:1 = Replica.Applied);
  Alcotest.(check bool) "cursor at (1,0)" true (Replica.cursor r = c 1 0);
  Alcotest.(check bool) "stale mark skips" true
    (Replica.apply_mark r ~seq:2 ~prev:(c 0 1) ~generation:1 = Replica.Skipped);
  (match Replica.apply_mark r ~seq:3 ~prev:(c 0 9) ~generation:2 with
  | exception E.Gap _ -> ()
  | _ -> Alcotest.fail "mark off the chain must be a typed Gap");
  Alcotest.(check bool) "stream continues past the mark" true
    (Replica.apply_entry r { P.e_seq = 4; e_prev = c 1 0; e_cursor = c 1 1; e_record = "r1" }
    = Replica.Applied);
  Alcotest.(check int) "records_applied counts applies only" 2 (Replica.records_applied r);
  Alcotest.(check int) "seq tracks the stream head" 4 (Replica.seq r)

let test_default_apply_corrupt () =
  let r = Replica.create ~cursor:P.cursor_zero (Db.create (make_schema ())) in
  match
    Replica.apply_entry r
      { P.e_seq = 0; e_prev = c 0 0; e_cursor = c 0 1; e_record = "not a delta" }
  with
  | exception E.Corrupt _ -> ()
  | _ -> Alcotest.fail "undecodable record must be a typed Corrupt"

let test_error_taxonomy () =
  let refused = E.Refused { code = E.code_follower_ahead; message = "m" } in
  let diverged = E.Diverged { violations = [ "v" ] } in
  let corrupt = E.Corrupt { context = "c"; message = "m" } in
  let gap = E.Gap { expected = c 0 0; got = c 0 1; seq = 0 } in
  List.iter
    (fun (e, expect) ->
      Alcotest.(check bool) (E.to_string e) expect (E.recoverable e);
      Alcotest.(check bool) "printable" true (String.length (E.to_string e) > 0))
    [
      (refused, false); (diverged, false); (corrupt, true); (gap, true); (E.Transport "t", true);
    ];
  let r = Replica.create ~cursor:P.cursor_zero (Db.create (make_schema ())) in
  Replica.drift_check r (* healthy replica: no Diverged *)

(* ------------------------------------------------------------------ *)
(* Live publisher <-> follower                                         *)

let test_stream_convergence () =
  let env = writer_env () in
  mixed_history env 1;
  let f = follower (Publisher.port env.pub) in
  Follower.run ~until_synced:true f;
  assert_converged ~msg:"initial sync" env.db f;
  Alcotest.(check bool) "streaming status" true (Follower.status f = Follower.Streaming);
  (* Keep streaming while the writer commits, checkpoints and changes
     schema: the follower must ride across the generation mark. *)
  let d = Domain.spawn (fun () -> Follower.run f) in
  mixed_history env 2;
  Persist.checkpoint env.p;
  commit_n env 5;
  (* The head gauge lags commits still sitting in the publisher queue,
     so require the caught-up predicate to hold across a settle window
     during which the head did not move. *)
  let caught_up () =
    let h = Publisher.head_seq env.pub in
    if h >= 0 && Follower.applied_seq f >= h then begin
      Unix.sleepf 0.3;
      Publisher.head_seq env.pub = h && Follower.applied_seq f >= h
    end
    else false
  in
  wait_for "follower caught up" caught_up;
  Follower.stop f;
  Domain.join d;
  assert_converged ~msg:"after live checkpoint" env.db f;
  let fdb = follower_db f in
  Alcotest.(check int) "no bootstrap needed" 0 (counter fdb "repl.bootstraps");
  Alcotest.(check bool) "mark shipped" true (counter env.db "repl.marks" >= 1);
  Alcotest.(check bool) "gapless" true (counter fdb "repl.gaps" = 0);
  stop_env env

let test_bootstrap_from_checkpoint () =
  let dir = temp_dir () in
  let db = Db.create (make_schema ()) in
  for i = 1 to 10 do
    Db.with_txn db (fun () ->
        let id = Db.create_instance db "k" in
        Db.set db id "a0" (Value.Int i);
        Db.set db id "note" (Value.Str "pre-attach"))
  done;
  (* Attaching a populated database forces a baseline checkpoint, so
     the log starts at generation 1 and a fresh follower's (0,0) cursor
     is only reachable through the snapshot. *)
  let p = Persist.attach ~sync_every:0 ~dir db in
  Alcotest.(check int) "baseline checkpoint" 1 (Persist.generation p);
  let pub = Publisher.start ~config:(Publisher.config ~heartbeat_s:0.25 ()) p in
  for i = 1 to 5 do
    Db.with_txn db (fun () ->
        let id = Db.create_instance db "k" in
        Db.set db id "a0" (Value.Int (100 + i));
        Db.set db id "note" (Value.Str "post-attach"))
  done;
  let f = follower (Publisher.port pub) in
  Follower.run ~until_synced:true f;
  assert_converged ~msg:"bootstrap + catch-up" db f;
  Alcotest.(check int) "exactly one bootstrap" 1 (counter (follower_db f) "repl.bootstraps");
  Alcotest.(check int) "snapshot served once" 1 (counter db "repl.snapshots_served");
  Alcotest.(check int) "only post-snapshot records applied" 5
    (counter (follower_db f) "repl.records");
  Alcotest.(check bool) "cursor is (1,5)" true (Follower.cursor f = c 1 5);
  Follower.stop f;
  Publisher.stop pub;
  Persist.close p;
  rm_rf dir

(* The read-only follower server, as `cactis serve --follow` wires it:
   sync, serve the replica with [read_only], then route every shipped
   record through [Server.inject].  The writer is populated before
   attaching, so the follower bootstraps from a snapshot whose instances
   spread over both readers. *)
let test_follower_server () =
  let dir = temp_dir () in
  let db = Db.create (make_schema ()) in
  let ids =
    List.init 8 (fun i ->
        let id = Db.create_instance db "k" in
        Db.set db id "a0" (Value.Int i);
        id)
  in
  let p = Persist.attach ~sync_every:0 ~dir db in
  let pub = Publisher.start ~config:(Publisher.config ~heartbeat_s:0.25 ()) p in
  let f = follower ~cfg:(fast_cfg ~check_every:0 ()) (Publisher.port pub) in
  let server =
    Server.start
      ~config:(Server.config ~readers:2 ~read_only:true ())
      ~make_schema (Follower.sync f)
  in
  let injected = Atomic.make 0 in
  Follower.set_apply f (Some (fun record -> Atomic.set injected (Server.inject server record)));
  let streaming = Domain.spawn (fun () -> Follower.run f) in
  Fun.protect
    ~finally:(fun () ->
      Follower.stop f;
      Domain.join streaming;
      Server.stop server;
      Publisher.stop pub;
      Persist.close p;
      rm_rf dir)
  @@ fun () ->
  let cl = Client.connect ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
  Db.with_txn db (fun () -> List.iter (fun id -> Db.set db id "a0" (Value.Int (1000 + id))) ids);
  wait_for "first record injected" (fun () -> Atomic.get injected = 1);
  let version = Atomic.get injected in
  List.iter
    (fun id ->
      let v, served = Client.read cl ~min_version:version ~instance:id ~attr:"r0" in
      Alcotest.(check bool) "served at the injected version" true (served >= version);
      Alcotest.(check bool)
        (Printf.sprintf "instance %d shows the writer's commit" id)
        true
        (Value.equal v (Value.Int (((1000 + id) * 2) + 1))))
    ids;
  let first = List.hd ids in
  (match Client.commit cl [ Proto.Set { instance = first; attr = "a0"; value = Value.Int 0 } ] with
  | exception Client.Remote { code = Proto.E_protocol; message } ->
    Alcotest.(check bool) "names the read-only replica" true
      (String.starts_with ~prefix:"read-only replica" message)
  | _ -> Alcotest.fail "a client commit on a follower must be refused");
  for i = 1 to 4 do
    Db.with_txn db (fun () -> Db.set db first "a0" (Value.Int i))
  done;
  wait_for "every record injected" (fun () -> Atomic.get injected = 5);
  wait_for "every record counted as shipped" (fun () -> counter db "repl.ship_records" = 5);
  Alcotest.(check int) "repl_applied = records shipped" 5
    (Counters.get (Server.counters server) "server.repl_applied");
  Alcotest.(check int) "published version" 5 (Server.published_version server);
  let v, _ = Client.read cl ~min_version:5 ~instance:first ~attr:"a0" in
  Alcotest.(check bool) "last commit readable" true (Value.equal v (Value.Int 4))

let test_reconnect_resume () =
  let env = writer_env () in
  (* Two small records, a checkpoint, then ten fat ones: the resumed
     stream is [Batch; Mark; Batch] and a 600-byte truncation lands
     inside the second batch, after state already moved. *)
  commit_n env ~pad:8 2;
  Persist.checkpoint env.p;
  commit_n env ~pad:80 10;
  let proxy = Proxy.start ~target_port:(Publisher.port env.pub) [ Proxy.Truncate_after 600 ] in
  let f = follower ~cfg:(fast_cfg ~heartbeat_timeout_s:1.0 ()) (Proxy.port proxy) in
  Follower.run ~until_synced:true f;
  assert_converged ~msg:"resume after truncation" env.db f;
  Alcotest.(check bool) "reconnected through the proxy" true (Proxy.served proxy >= 2);
  Alcotest.(check int) "resume, not re-bootstrap" 0 (counter (follower_db f) "repl.bootstraps");
  Follower.stop f;
  Proxy.stop proxy;
  stop_env env

(* ------------------------------------------------------------------ *)
(* Refusals                                                            *)

let hello_refusal_code port cursor =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Frame.send fd (P.encode_client (P.Hello { cursor; schema_version = 0 }));
      match Frame.recv fd with
      | Some frame -> (
        match P.decode_server frame with
        | P.Refuse { code; _ } -> code
        | _ -> Alcotest.fail "expected a Refuse message")
      | None -> Alcotest.fail "writer closed without refusing")

let test_hello_refusal_codes () =
  let env = writer_env () in
  commit_n env 3;
  Persist.checkpoint env.p;
  commit_n env 2;
  (* Same generation, more records than the writer ever shipped. *)
  Alcotest.(check string) "follower ahead within the generation" E.code_follower_ahead
    (hello_refusal_code (Publisher.port env.pub) (c 1 99));
  (* A generation the writer has never reached. *)
  Alcotest.(check string) "follower from a future generation" E.code_generation_mismatch
    (hello_refusal_code (Publisher.port env.pub) (c 5 0));
  Alcotest.(check bool) "refusals counted" true (counter env.db "repl.refusals" >= 2);
  stop_env env

(* Regression: a stale writer — restarted from an old checkpoint — must
   refuse a follower that is ahead of it, with the typed
   generation-mismatch error, rather than replay the replica backwards. *)
let test_stale_writer_refused () =
  let dir = temp_dir () in
  let stale = temp_dir () in
  let db = Db.create (make_schema ()) in
  let p = Persist.attach ~sync_every:1 ~dir db in
  for i = 1 to 4 do
    Db.with_txn db (fun () ->
        let id = Db.create_instance db "k" in
        Db.set db id "a0" (Value.Int i);
        Db.set db id "note" (Value.Str "epoch-1"))
  done;
  Persist.checkpoint p;
  Persist.sync p;
  copy_dir dir stale;
  (* The real timeline moves on: another generation plus records. *)
  let pub1 = Publisher.start ~config:(Publisher.config ~heartbeat_s:0.25 ()) p in
  let port = Publisher.port pub1 in
  for i = 1 to 3 do
    Db.with_txn db (fun () ->
        let id = Db.create_instance db "k" in
        Db.set db id "a0" (Value.Int (10 + i));
        Db.set db id "note" (Value.Str "epoch-2"))
  done;
  Persist.checkpoint p;
  Db.with_txn db (fun () -> ignore (Db.create_instance db "k"));
  let f = follower ~cfg:(fast_cfg ~heartbeat_timeout_s:1.0 ()) port in
  Follower.run ~until_synced:true f;
  Alcotest.(check bool) "follower reached generation 2" true ((Follower.cursor f).P.gen >= 2);
  Publisher.stop pub1;
  Persist.close p;
  (* "Restart" the writer from the pre-divergence copy, on the same
     port: checkpoint generation 1, empty log. *)
  let p2 = Persist.recover ~sync_every:1 ~dir:stale (make_schema ()) in
  Alcotest.(check int) "stale writer is at generation 1" 1 (Persist.generation p2);
  let pub2 = Publisher.start ~config:(Publisher.config ~heartbeat_s:0.25 ~port ()) p2 in
  (match Follower.run f with
  | exception E.Refused { code; _ } ->
    Alcotest.(check string) "typed generation mismatch" E.code_generation_mismatch code
  | () -> Alcotest.fail "stale writer must refuse the ahead follower");
  (match Follower.status f with
  | Follower.Failed _ -> ()
  | _ -> Alcotest.fail "refusal is fatal: follower must report Failed");
  Alcotest.(check int) "refusal counted on the replica" 1 (counter (follower_db f) "repl.refused");
  Publisher.stop pub2;
  Persist.close p2;
  rm_rf dir;
  rm_rf stale

(* ------------------------------------------------------------------ *)
(* Fault-injection matrix                                              *)

(* [`Recon]: the fault must force at least one reconnect before
   convergence.  [`Clean]: the stream must survive on the very first
   connection (duplicates are skipped, not fatal).  Frame 0 of a fresh
   stream is the handshake heartbeat announcing the head, then
   [Batch(gen 0); Mark; Batch(gen 1)] — so frame faults target indices
   1-3. *)
let fault_matrix =
  [
    (Proxy.Pass, `Clean);
    (Proxy.Truncate_after 3, `Recon);
    (Proxy.Truncate_after 60, `Recon);
    (Proxy.Truncate_after 700, `Recon);
    (Proxy.Corrupt_byte 5, `Recon);
    (Proxy.Corrupt_byte 120, `Recon);
    (Proxy.Corrupt_byte 701, `Recon);
    (Proxy.Drop_after_frames 2, `Recon);
    (Proxy.Duplicate_frame 1, `Clean);
    (Proxy.Duplicate_frame 2, `Clean);
    (Proxy.Reorder_frames 1, `Recon);
    (Proxy.Reorder_frames 2, `Recon);
    (Proxy.Stall_after (200, 1.6), `Recon);
  ]

let test_fault_matrix () =
  let env = writer_env () in
  (* Twelve fat records, a checkpoint, twelve more: the shipped stream
     a fresh follower sees is [Batch(gen 0); Mark; Batch(gen 1)], with
     kilobytes of body on either side of the mark for the byte-offset
     faults to land in. *)
  commit_n env ~pad:60 12;
  Persist.checkpoint env.p;
  commit_n env ~pad:60 12;
  List.iter
    (fun (fault, expect) ->
      let name = Proxy.fault_name fault in
      let proxy = Proxy.start ~target_port:(Publisher.port env.pub) [ fault ] in
      let f = follower ~cfg:(fast_cfg ~heartbeat_timeout_s:1.0 ()) (Proxy.port proxy) in
      Follower.run ~until_synced:true f;
      assert_converged ~msg:name env.db f;
      (match expect with
      | `Recon ->
        Alcotest.(check bool) (name ^ ": reconnected") true (Proxy.served proxy >= 2)
      | `Clean -> Alcotest.(check int) (name ^ ": first connection survived") 1 (Proxy.served proxy));
      Follower.stop f;
      Proxy.stop proxy)
    fault_matrix;
  stop_env env

(* End-to-end torn-stream sweep: cut the shipped bytes at every offset
   through the head of the stream (and a few deeper) — whatever the cut
   hits (frame header, message CRC, record body), the follower must
   reconnect and converge to the writer's exact state. *)
let test_torn_stream_every_offset () =
  let env = writer_env () in
  commit_n env ~pad:24 3;
  let cuts = List.init 48 (fun i -> i + 1) @ [ 60; 90; 130; 200 ] in
  List.iter
    (fun cut ->
      let proxy = Proxy.start ~target_port:(Publisher.port env.pub) [ Proxy.Truncate_after cut ] in
      let f = follower ~cfg:(fast_cfg ~heartbeat_timeout_s:1.0 ()) (Proxy.port proxy) in
      Follower.run ~until_synced:true f;
      assert_converged ~msg:(Printf.sprintf "cut@%d" cut) env.db f;
      Follower.stop f;
      Proxy.stop proxy)
    cuts;
  stop_env env

(* Same sweep for bit rot: flip every byte through the head of the
   stream, frame length prefixes included.  A flipped length byte can
   declare a phantom frame far larger than anything in flight; live
   heartbeat bytes keep feeding the decoder so the receive timeout
   never fires, and only the follower's frame-assembly deadline turns
   the black hole into a typed Transport error.  The short heartbeat
   timeout here keeps that deadline (3x) quick. *)
let test_flipped_byte_every_offset () =
  let env = writer_env () in
  commit_n env ~pad:24 3;
  List.iter
    (fun off ->
      let proxy = Proxy.start ~target_port:(Publisher.port env.pub) [ Proxy.Corrupt_byte off ] in
      let f = follower ~cfg:(fast_cfg ~heartbeat_timeout_s:0.5 ()) (Proxy.port proxy) in
      Follower.run ~until_synced:true f;
      assert_converged ~msg:(Printf.sprintf "flip@%d" off) env.db f;
      Alcotest.(check bool)
        (Printf.sprintf "flip@%d forced a reconnect" off)
        true
        (Proxy.served proxy >= 2);
      Follower.stop f;
      Proxy.stop proxy)
    (List.init 49 (fun i -> i));
  stop_env env

(* ------------------------------------------------------------------ *)
(* Property: any prefix of the shipped log equals the writer           *)

type pact =
  | PCreate of int
  | PSet of int * int * int
  | PLink of int * int
  | PAddIntr of int * int
  | PAddRule of int * int * int
  | PUndo
  | PRedo
  | PCheckpoint

let cname cl = Printf.sprintf "k%d" cl

let gen_pacts rng (cfg : G.cfg) n =
  let count = ref 0 in
  let classes = ref [] in
  let pos = ref 0 and redo = ref 0 in
  let ctr = ref 0 in
  let acts = ref [] in
  for _ = 1 to n do
    let pick = Rng.int rng 100 in
    let act =
      if pick < 30 || !count = 0 then begin
        let cl = Rng.int rng cfg.G.classes in
        classes := cl :: !classes;
        incr count;
        incr pos;
        redo := 0;
        PCreate cl
      end
      else if pick < 55 then begin
        incr pos;
        redo := 0;
        PSet (Rng.int rng !count, Rng.int rng cfg.G.intrinsics, Rng.int rng 50)
      end
      else if pick < 63 then begin
        let arr = Array.of_list (List.rev !classes) in
        let pairs = ref [] in
        Array.iteri
          (fun i ci ->
            Array.iteri (fun j cj -> if j > i && ci = cj then pairs := (i, j) :: !pairs) arr)
          arr;
        incr pos;
        redo := 0;
        match !pairs with
        | [] -> PSet (Rng.int rng !count, 0, Rng.int rng 50)
        | l ->
          let i, j = Rng.pick_list rng l in
          PLink (i, j)
      end
      else if pick < 72 then begin
        incr ctr;
        incr pos;
        redo := 0;
        PAddIntr (Rng.int rng cfg.G.classes, !ctr)
      end
      else if pick < 80 then begin
        incr ctr;
        incr pos;
        redo := 0;
        PAddRule (Rng.int rng cfg.G.classes, !ctr, Rng.int rng 10)
      end
      else if pick < 88 && !pos > 0 then begin
        decr pos;
        incr redo;
        PUndo
      end
      else if pick < 93 && !redo > 0 then begin
        incr pos;
        decr redo;
        PRedo
      end
      else PCheckpoint
    in
    acts := act :: !acts
  done;
  List.rev !acts

let exec_pact db ids = function
  | PCreate cl ->
    ids := !ids @ [ Db.create_instance db (cname cl) ];
    None
  | PSet (k, a, v) -> (
    let id = List.nth !ids k in
    try
      Db.set db id (Printf.sprintf "a%d" a) (Value.Int v);
      None
    with Cactis.Errors.Unknown m | Cactis.Errors.Type_error m -> Some m)
  | PLink (i, j) -> (
    let from_id = List.nth !ids i and to_id = List.nth !ids j in
    try
      if not (List.mem to_id (Db.related db from_id "down")) then
        Db.link db ~from_id ~rel:"down" ~to_id;
      None
    with Cactis.Errors.Unknown m | Cactis.Errors.Type_error m -> Some m)
  | PAddIntr (cl, n) -> (
    try
      Db.add_attr db ~type_name:(cname cl)
        (Rule.intrinsic (Printf.sprintf "x%d" n) (Value.Int n));
      None
    with Cactis.Errors.Unknown m | Cactis.Errors.Type_error m -> Some m)
  | PAddRule (cl, n, k) -> (
    let src = Printf.sprintf "a0 * 2 + %d" k in
    try
      Db.add_attr db ~expr:src ~type_name:(cname cl)
        (Rule.derived (Printf.sprintf "d%d" n) (parse_rule src));
      None
    with Cactis.Errors.Unknown m | Cactis.Errors.Type_error m -> Some m)
  | PUndo -> (
    try
      Db.undo_last db;
      None
    with Cactis.Errors.Unknown m | Cactis.Errors.Type_error m -> Some m)
  | PRedo -> (
    try
      Db.redo db;
      None
    with Cactis.Errors.Unknown m | Cactis.Errors.Type_error m -> Some m)
  | PCheckpoint -> None

(* A captured shipped-stream item, exactly what the publisher would put
   on the wire: a record with its prev/after cursors, or a generation
   mark. *)
type cap = Cap_rec of P.cursor * P.cursor * string | Cap_mark of P.cursor * int

let run_prefix_property (cfg, aseed) =
  let src = G.schema_source ~cross:true cfg in
  let dir = temp_dir () in
  let db = Db.create (Cactis_ddl.Elaborate.load_string src) in
  let p = Persist.attach ~sync_every:0 ~dir db in
  (* Capture the shipped log by chaining after the WAL hook, reading
     the post-append cursor exactly as the publisher does. *)
  let entries = ref [] in
  let chain = ref P.cursor_zero in
  let prior = Db.commit_hook db in
  Db.set_commit_hook db
    (Some
       (fun delta ->
         (match prior with Some h -> h delta | None -> ());
         let cur = { P.gen = Persist.generation p; records = Persist.wal_records p } in
         if cur.P.gen > (!chain).P.gen && cur.P.records >= 1 then begin
           entries := Cap_mark (!chain, cur.P.gen) :: !entries;
           chain := { P.gen = cur.P.gen; records = 0 }
         end;
         entries := Cap_rec (!chain, cur, Codec.encode_delta delta) :: !entries;
         chain := cur));
  let actions = gen_pacts (Rng.create aseed) cfg 26 in
  let ids = ref [] in
  let points = ref [] in
  List.iter
    (fun act ->
      (match act with
      | PCheckpoint ->
        Persist.checkpoint p;
        let gen = Persist.generation p in
        if gen > (!chain).P.gen && Persist.wal_records p = 0 then begin
          entries := Cap_mark (!chain, gen) :: !entries;
          chain := { P.gen = gen; records = 0 }
        end
      | act -> ignore (exec_pact db ids act));
      points := (List.length !entries, observe db) :: !points)
    actions;
  let ents = Array.of_list (List.rev !entries) in
  let points = List.rev !points in
  (* Replay the captured stream one item at a time into a fresh
     replica; at every prefix the writer observed, the replica must
     observe the same. *)
  let rep =
    Replica.create ~cursor:P.cursor_zero (Db.create (Cactis_ddl.Elaborate.load_string src))
  in
  let remaining = ref points in
  let flush_points applied =
    let rec go () =
      match !remaining with
      | (k, expected) :: rest when k <= applied ->
        if not (String.equal expected (observe (Replica.db rep))) then
          QCheck.Test.fail_reportf
            "prefix %d diverged for schema:\n%s\nwriter:\n%s\nreplica:\n%s" k src expected
            (observe (Replica.db rep));
        remaining := rest;
        go ()
      | _ -> ()
    in
    go ()
  in
  flush_points 0;
  Array.iteri
    (fun i ent ->
      (match ent with
      | Cap_rec (prev, cursor, record) -> (
        match
          Replica.apply_entry rep
            { P.e_seq = i; e_prev = prev; e_cursor = cursor; e_record = record }
        with
        | Replica.Applied -> ()
        | Replica.Skipped -> QCheck.Test.fail_reportf "clean replay skipped record %d" i)
      | Cap_mark (prev, generation) -> (
        match Replica.apply_mark rep ~seq:i ~prev ~generation with
        | Replica.Applied -> ()
        | Replica.Skipped -> QCheck.Test.fail_reportf "clean replay skipped mark %d" i));
      flush_points (i + 1))
    ents;
  let ok_cursor = P.cursor_compare (Replica.cursor rep) !chain = 0 in
  let ok_integrity = Integrity.check (Replica.db rep) = [] in
  Persist.close p;
  rm_rf dir;
  if not ok_cursor then
    QCheck.Test.fail_reportf "replica cursor %s does not match writer chain %s"
      (P.cursor_to_string (Replica.cursor rep))
      (P.cursor_to_string !chain);
  if not ok_integrity then QCheck.Test.fail_reportf "replica failed the integrity audit";
  true

let prop_prefix =
  QCheck.Test.make
    ~name:"a follower replaying any prefix of the shipped log equals the writer at that version"
    ~count:60
    QCheck.(
      make
        ~print:(fun (cfg, s) -> G.print_cfg cfg ^ Printf.sprintf " aseed=%d" s)
        Gen.(pair G.gen (int_range 0 1_000_000)))
    run_prefix_property

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "repl"
    [
      ( "proto",
        [
          Alcotest.test_case "messages roundtrip" `Quick test_proto_roundtrip;
          Alcotest.test_case "cursor ordering" `Quick test_cursor_order;
          Alcotest.test_case "every truncation and byte flip is a typed Corrupt" `Quick
            test_torn_and_flipped_messages;
        ] );
      ( "cursor",
        [ Alcotest.test_case "persist exposes the replication cursor" `Quick test_persist_cursor ]
      );
      ( "replica",
        [
          Alcotest.test_case "chain rules: apply, skip, gap, mark" `Quick test_chain_rules;
          Alcotest.test_case "undecodable record is typed Corrupt" `Quick test_default_apply_corrupt;
          Alcotest.test_case "error taxonomy and recoverability" `Quick test_error_taxonomy;
        ] );
      ( "live",
        [
          Alcotest.test_case "stream converges across commits and checkpoints" `Quick
            test_stream_convergence;
          Alcotest.test_case "snapshot bootstrap then log catch-up" `Quick
            test_bootstrap_from_checkpoint;
          Alcotest.test_case "read-only follower server serves what it is fed" `Quick
            test_follower_server;
          Alcotest.test_case "mid-stream truncation resumes without re-bootstrap" `Quick
            test_reconnect_resume;
        ] );
      ( "refusal",
        [
          Alcotest.test_case "hello refusal codes" `Quick test_hello_refusal_codes;
          Alcotest.test_case "stale writer refuses an ahead follower" `Quick
            test_stale_writer_refused;
        ] );
      ( "faults",
        [
          Alcotest.test_case "matrix: converge or typed error, never divergence" `Quick
            test_fault_matrix;
          Alcotest.test_case "torn stream at every offset" `Quick test_torn_stream_every_offset;
          Alcotest.test_case "flipped byte at every offset" `Quick test_flipped_byte_every_offset;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_prefix ]);
    ]
