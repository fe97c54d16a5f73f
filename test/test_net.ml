(* The TCP serving layer: frame robustness (partial reads, torn frames,
   oversized headers), QCheck protocol roundtrips, and an in-process
   end-to-end server exercising every verb, read-your-writes,
   multi-domain clients and the WAL chain.  Also the load drivers'
   child-process protocol ([Load]), against children that are this
   test binary re-executed in a [load-child] role. *)

module Value = Cactis.Value
module Db = Cactis.Db
module Schema = Cactis.Schema
module Rule = Cactis.Rule
module Persist = Cactis.Persist
module Frame = Cactis_net.Frame
module Proto = Cactis_net.Proto
module Server = Cactis_net.Server
module Client = Cactis_net.Client
module Load = Cactis_net.Load

let int n = Value.Int n

(* ---- Load: the child-process protocol ---- *)

(* Child roles, dispatched before Alcotest parses argv. *)
let load_child = function
  | "lines" ->
    (* Two tagged lines, then an unterminated last line at EOF. *)
    print_string "RESULT a=1 bare b=x=y\nSTAT s.n=2\nSTAT s.m=3\ntail k=v";
    exit 0
  | "serve" ->
    (* Silent until SIGTERM, which it traps to exit cleanly. *)
    let await_stop = Load.trap_sigterm () in
    print_endline "READY";
    await_stop ();
    exit 0
  | "orphaner" ->
    (* Spawns a server grandchild, reports its pid, then fails without
       stopping it: Load's at-exit hook must kill and reap it. *)
    let g = Load.spawn ~args:[ "load-child"; "serve" ] in
    ignore (Load.until g "READY");
    Printf.printf "PID pid=%d\n%!" (Load.pid g);
    failwith "orphaner fails mid-run"
  | role -> failwith ("unknown load-child role " ^ role)

let test_load_kv () =
  Alcotest.(check (list (pair string string)))
    "tag, pairs, bare token dropped"
    [ ("_tag", "RESULT"); ("a", "1"); ("b", "x=y") ]
    (Load.kv "RESULT a=1 bare b=x=y");
  let c = Load.spawn ~args:[ "load-child"; "lines" ] in
  let lines = Load.finish c in
  Alcotest.(check int) "four lines, the last unterminated" 4 (List.length lines);
  Alcotest.(check (list (pair string string)))
    "unterminated last line still parsed" [ ("_tag", "tail"); ("k", "v") ]
    (List.nth lines 3);
  Alcotest.(check (list (pair string string)))
    "STAT lines merged" [ ("s.n", "2"); ("s.m", "3") ] (Load.tagged "STAT" lines);
  Alcotest.(check string) "field" "x=y" (Load.field (List.hd lines) "b");
  Alcotest.check_raises "missing field names the tag" (Failure "child line RESULT lacks zz")
    (fun () -> ignore (Load.field (List.hd lines) "zz"))

let test_load_timeout_and_terminate () =
  let c = Load.spawn ~args:[ "load-child"; "serve" ] in
  ignore (Load.until c "READY");
  (match Load.read_line ~timeout_s:0.2 c with
  | _ -> Alcotest.fail "a silent child must time out"
  | exception Failure _ -> ());
  let lines, status = Load.terminate c in
  Alcotest.(check (list string)) "no output" [] lines;
  Alcotest.(check bool) "SIGTERM gives a clean exit 0" true (status = Unix.WEXITED 0)

let test_load_until_child_exits_first () =
  let c = Load.spawn ~args:[ "load-child"; "lines" ] in
  (match Load.until c "DONE" with
  | _ -> Alcotest.fail "DONE never comes"
  | exception Failure msg ->
    Alcotest.(check string) "names the tag" (Printf.sprintf "child %d exited before DONE" (Load.pid c)) msg);
  Alcotest.(check int) "reaped after" 0 (List.length (Load.finish c))

let test_load_reaps_at_exit () =
  let c = Load.spawn ~args:[ "load-child"; "orphaner" ] in
  let grandchild = int_of_string (Load.field (Load.until c "PID") "pid") in
  let _, status = Load.wait c in
  Alcotest.(check bool) "the failing child exits 2" true (status = Unix.WEXITED 2);
  match Unix.kill grandchild 0 with
  | () ->
    (try Unix.kill grandchild Sys.sigkill with Unix.Unix_error _ -> ());
    Alcotest.fail "the grandchild outlived its failed parent"
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ()

(* ---- Frames ---- *)

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      let d = Frame.decoder () in
      Frame.feed d (Frame.encode payload);
      Alcotest.(check (option string)) "roundtrip" (Some payload) (Frame.next d);
      Alcotest.(check (option string)) "drained" None (Frame.next d);
      Alcotest.(check int) "no residue" 0 (Frame.buffered d))
    [ ""; "x"; String.make 1000 '\xff'; "embedded\x00nul\nnewline" ]

let test_frame_byte_at_a_time () =
  let payload = "hello frames" in
  let wire = Frame.encode payload in
  let d = Frame.decoder () in
  String.iteri
    (fun i c ->
      (* Until the last byte arrives, no frame may be produced. *)
      if i < String.length wire - 1 then
        Alcotest.(check (option string))
          (Printf.sprintf "partial at %d" i) None (Frame.next d);
      Frame.feed d (String.make 1 c))
    wire;
  Alcotest.(check (option string)) "complete" (Some payload) (Frame.next d)

let test_frame_torn_then_completed () =
  let a = Frame.encode "first" and b = Frame.encode "second" in
  let d = Frame.decoder () in
  (* Feed: all of a + half of b's header, then the rest. *)
  Frame.feed d (a ^ String.sub b 0 2);
  Alcotest.(check (option string)) "first pops" (Some "first") (Frame.next d);
  Alcotest.(check (option string)) "second torn" None (Frame.next d);
  Frame.feed d (String.sub b 2 (String.length b - 2));
  Alcotest.(check (option string)) "second completes" (Some "second") (Frame.next d)

let test_frame_multiple_in_one_feed () =
  let d = Frame.decoder () in
  Frame.feed d (Frame.encode "a" ^ Frame.encode "bb" ^ Frame.encode "ccc");
  Alcotest.(check (list string)) "all three" [ "a"; "bb"; "ccc" ]
    (List.filter_map (fun () -> Frame.next d) [ (); (); () ])

let test_frame_oversized_rejected () =
  (* A poisoned header must raise as soon as it is visible, before the
     body arrives — the receiver must not wait for (or allocate) 2 GiB. *)
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 0x7fff_ffffl;
  let d = Frame.decoder () in
  Frame.feed d (Bytes.to_string hdr);
  (match Frame.next d with
  | exception Frame.Too_large n -> Alcotest.(check int) "length reported" 0x7fffffff n
  | _ -> Alcotest.fail "expected Too_large");
  match Frame.encode (String.make (Frame.max_payload + 1) 'x') with
  | exception Frame.Too_large _ -> ()
  | _ -> Alcotest.fail "encode should reject oversized payload"

(* ---- Protocol roundtrips ---- *)

let value_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let scalar =
          oneof
            [
              return Value.Null;
              map (fun b -> Value.Bool b) bool;
              map (fun i -> Value.Int i) small_signed_int;
              map (fun f -> Value.Float f) (float_bound_inclusive 1e6);
              map (fun s -> Value.Str s) string_small;
            ]
        in
        if n = 0 then scalar
        else
          frequency
            [
              (4, scalar);
              (1, map (fun vs -> Value.Arr (Array.of_list vs)) (list_size (int_bound 4) (self (n / 2))));
            ]))

let update_gen =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun instance attr value -> Proto.Set { instance; attr; value })
          small_nat string_small value_gen;
        map (fun type_name -> Proto.Create { type_name }) string_small;
        map3 (fun from_id rel to_id -> Proto.Link { from_id; rel; to_id }) small_nat string_small
          small_nat;
        map3
          (fun from_id rel to_id -> Proto.Unlink { from_id; rel; to_id })
          small_nat string_small small_nat;
      ])

let req_gen =
  QCheck.Gen.(
    oneof
      [
        return Proto.Ping;
        return Proto.Open_session;
        return Proto.Stats;
        map3
          (fun min_version instance attr -> Proto.Read { min_version; instance; attr })
          small_nat small_nat string_small;
        map3
          (fun min_version root (rel, depth) ->
            Proto.Traverse { min_version; root; rel; attr = "total"; depth })
          small_nat small_nat
          (pair string_small (int_range (-1) 8));
        map (fun updates -> Proto.Commit updates) (list_size (int_bound 6) update_gen);
      ])

let env_gen =
  QCheck.Gen.(map2 (fun req_id span_id -> { Proto.req_id; span_id }) small_nat small_nat)

let test_qcheck_req_roundtrip =
  QCheck.Test.make ~count:500 ~name:"request encode/decode roundtrip"
    (QCheck.make QCheck.Gen.(pair env_gen req_gen))
    (fun (env, req) ->
      let env', req' = Proto.decode_req (Proto.encode_req env req) in
      env' = env && req' = req)

let resp_gen =
  QCheck.Gen.(
    oneof
      [
        return Proto.Pong;
        map3
          (fun version readers instances -> Proto.Opened { version; readers; instances })
          small_nat small_nat small_nat;
        map2 (fun version value -> Proto.Value { version; value }) small_nat value_gen;
        map3
          (fun version visited total -> Proto.Traversed { version; visited; total })
          small_nat small_nat value_gen;
        map2
          (fun version created -> Proto.Committed { version; created })
          small_nat
          (list_size (int_bound 5) small_nat);
        map2
          (fun counters latencies ->
            let latencies =
              List.map
                (fun (l_name, l_count) ->
                  {
                    Proto.l_name;
                    l_count;
                    l_mean = 1e-4;
                    l_p50 = 1e-4;
                    l_p95 = 2e-4;
                    l_p99 = 3e-4;
                    l_max = 4e-4;
                  })
                latencies
            in
            Proto.Stats_reply { counters; latencies })
          (list_size (int_bound 5) (pair string_small small_signed_int))
          (list_size (int_bound 3) (pair string_small small_nat));
        map2
          (fun tag message ->
            let code =
              match tag mod 7 with
              | 0 -> Proto.E_unknown
              | 1 -> Proto.E_type
              | 2 -> Proto.E_constraint
              | 3 -> Proto.E_cardinality
              | 4 -> Proto.E_cycle
              | 5 -> Proto.E_protocol
              | _ -> Proto.E_server
            in
            Proto.Error { code; message })
          small_nat string_small;
      ])

let test_qcheck_resp_roundtrip =
  QCheck.Test.make ~count:500 ~name:"response encode/decode roundtrip"
    (QCheck.make QCheck.Gen.(pair env_gen resp_gen))
    (fun (env, resp) ->
      let env', resp' = Proto.decode_resp (Proto.encode_resp env resp) in
      env' = env && resp' = resp)

let test_malformed_payloads () =
  List.iter
    (fun bad ->
      match Proto.decode_req bad with
      | exception Proto.Malformed _ -> ()
      | _ -> Alcotest.failf "payload %S should not decode" bad)
    [
      "";
      "\x00";  (* envelope truncated *)
      "\x00\x00\x63";  (* unknown verb tag 99 *)
      Proto.encode_req { Proto.req_id = 1; span_id = 0 } Proto.Ping ^ "junk";
    ]

(* ---- End-to-end server ---- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let node_schema () =
  let sch = Schema.create () in
  Schema.add_type sch "node";
  Schema.declare_relationship sch ~from_type:"node" ~rel:"deps" ~to_type:"node" ~inverse:"rdeps"
    ~card:Schema.Multi ~inverse_card:Schema.Multi;
  Schema.add_attr sch ~type_name:"node" (Rule.intrinsic "local" (int 1));
  Schema.add_attr sch ~type_name:"node"
    (Rule.derived "total"
       (Rule.combine_self_rel "local" "deps" "total" ~f:(fun own totals ->
            Value.add own (Value.sum totals))));
  sch

(* Three-node chain a -> b -> c with local values 1, 2, 3. *)
let chain_db () =
  let db = Db.create (node_schema ()) in
  let a = Db.create_instance db "node" in
  let b = Db.create_instance db "node" in
  let c = Db.create_instance db "node" in
  Db.link db ~from_id:a ~rel:"deps" ~to_id:b;
  Db.link db ~from_id:b ~rel:"deps" ~to_id:c;
  Db.set db a "local" (int 1);
  Db.set db b "local" (int 2);
  Db.set db c "local" (int 3);
  (db, a, b, c)

let with_server ?(readers = 2) ?(prepare = fun _ -> ()) ?(make_schema = node_schema) f =
  let db, a, b, c = chain_db () in
  prepare db;
  let server = Server.start ~config:(Server.config ~readers ()) ~make_schema db in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server (a, b, c))

let test_server_verbs () =
  with_server (fun server (a, _, c) ->
      let cl = Client.connect ~port:(Server.port server) () in
      Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
      Client.ping cl;
      let info = Client.open_session cl in
      Alcotest.(check int) "readers" 2 info.Client.readers;
      Alcotest.(check int) "instances" 3 info.Client.instances;
      (* Reads come from a reader replica, never the writer. *)
      let v, ver = Client.read cl ~instance:c ~attr:"local" in
      Alcotest.(check bool) "c local" true (Value.equal v (int 3));
      Alcotest.(check int) "snapshot version 0" 0 ver;
      let visited, total, _ = Client.traverse cl ~root:a ~rel:"deps" ~attr:"local" in
      Alcotest.(check int) "traversal visits chain" 3 visited;
      Alcotest.(check bool) "traversal total" true (Value.equal total (int 6));
      let visited, total, _ = Client.traverse cl ~depth:1 ~root:a ~rel:"deps" ~attr:"local" in
      Alcotest.(check int) "depth 1 stops at b" 2 visited;
      Alcotest.(check bool) "depth 1 total" true (Value.equal total (int 3));
      let visited, _, _ = Client.traverse cl ~depth:0 ~root:a ~rel:"deps" ~attr:"local" in
      Alcotest.(check int) "depth 0 is just the root" 1 visited;
      (* Derived attribute on the replica. *)
      let v, _ = Client.read cl ~instance:a ~attr:"total" in
      Alcotest.(check bool) "derived total" true (Value.equal v (int 6)))

let test_read_your_writes () =
  with_server (fun server (a, _, c) ->
      let cl = Client.connect ~port:(Server.port server) () in
      Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
      let version, created =
        Client.commit cl [ Proto.Set { instance = c; attr = "local"; value = int 30 } ]
      in
      Alcotest.(check int) "first commit is version 1" 1 version;
      Alcotest.(check (list int)) "nothing created" [] created;
      (* Default min_version is the commit we just made: the replica
         must show the write and the derived ripple. *)
      let v, ver = Client.read cl ~instance:c ~attr:"local" in
      Alcotest.(check bool) "write visible" true (Value.equal v (int 30));
      Alcotest.(check bool) "served at or after commit" true (ver >= version);
      let v, _ = Client.read cl ~instance:a ~attr:"total" in
      Alcotest.(check bool) "derived rippled" true (Value.equal v (int 33));
      (* Create + link through the wire. *)
      let _, created =
        Client.commit cl
          [
            Proto.Create { type_name = "node" };
            Proto.Set { instance = a; attr = "local"; value = int 10 };
          ]
      in
      (match created with
      | [ fresh ] ->
        let version, _ =
          Client.commit cl
            [
              Proto.Link { from_id = fresh; rel = "deps"; to_id = a };
              Proto.Set { instance = fresh; attr = "local"; value = int 100 };
            ]
        in
        let visited, total, ver = Client.traverse cl ~root:fresh ~rel:"deps" ~attr:"local" in
        Alcotest.(check int) "new node reaches chain" 4 visited;
        Alcotest.(check bool) "totals include new node" true
          (Value.equal total (int (100 + 10 + 2 + 30)));
        Alcotest.(check bool) "fresh enough" true (ver >= version)
      | other -> Alcotest.failf "expected one created id, got %d" (List.length other)))

let test_typed_errors () =
  with_server (fun server (a, _, _) ->
      let cl = Client.connect ~port:(Server.port server) () in
      Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
      (match Client.read cl ~instance:a ~attr:"no_such_attr" with
      | exception Client.Remote { code = Proto.E_unknown; _ } -> ()
      | _ -> Alcotest.fail "expected E_unknown");
      (match Client.read cl ~instance:99999 ~attr:"local" with
      | exception Client.Remote { code = Proto.E_unknown; _ } -> ()
      | _ -> Alcotest.fail "expected E_unknown for missing instance");
      (* Writing a derived attribute is a type error, and the failed
         transaction must not poison the writer. *)
      (match
         Client.commit cl [ Proto.Set { instance = a; attr = "total"; value = int 0 } ]
       with
      | exception Client.Remote { code = Proto.E_type; _ } -> ()
      | _ -> Alcotest.fail "expected E_type");
      let version, _ =
        Client.commit cl [ Proto.Set { instance = a; attr = "local"; value = int 5 } ]
      in
      Alcotest.(check bool) "writer survives failed txn" true (version >= 1);
      (* Asking for an uncommitted version is a protocol error. *)
      match Client.read cl ~min_version:9999 ~instance:a ~attr:"local" with
      | exception Client.Remote { code = Proto.E_protocol; _ } -> ()
      | _ -> Alcotest.fail "expected E_protocol")

let test_stats_verb () =
  with_server (fun server (a, b, c) ->
      let cl = Client.connect ~port:(Server.port server) () in
      Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
      Client.ping cl;
      ignore (Client.read cl ~instance:a ~attr:"local");
      let commits = 3 in
      for i = 1 to commits do
        ignore (Client.commit cl [ Proto.Set { instance = a; attr = "local"; value = int (i + 1) } ])
      done;
      (* A read-your-writes read of every instance reaches every reader,
         and each answers only after applying every commit. *)
      List.iter (fun id -> ignore (Client.read cl ~instance:id ~attr:"local")) [ a; b; c ];
      let counters, latencies = Client.stats cl in
      (match List.find_opt (fun l -> l.Proto.l_name = "replica.apply") latencies with
      | Some l ->
        Alcotest.(check int) "one apply per commit per reader" (commits * Server.readers server)
          l.Proto.l_count
      | None -> Alcotest.fail "replica.apply latency missing");
      let get name = Option.value ~default:0 (List.assoc_opt name counters) in
      Alcotest.(check bool) "ping counted" true (get "server.req.ping" >= 1);
      Alcotest.(check bool) "read counted" true (get "server.req.read" >= 1);
      Alcotest.(check bool) "commit counted" true (get "server.req.commit" >= 1);
      Alcotest.(check bool) "connection counted" true (get "server.connections" >= 1);
      Alcotest.(check bool) "db counters forwarded" true
        (List.exists (fun (n, _) -> String.length n > 3 && String.sub n 0 3 = "db.") counters);
      let lat_names = List.map (fun l -> l.Proto.l_name) latencies in
      Alcotest.(check bool) "read latency present" true (List.mem "serve.read" lat_names);
      Alcotest.(check bool) "commit latency present" true (List.mem "serve.commit" lat_names);
      List.iter
        (fun l ->
          Alcotest.(check bool)
            (l.Proto.l_name ^ " quantiles ordered")
            true
            (l.Proto.l_p50 <= l.Proto.l_p99 +. 1e-12 && l.Proto.l_count > 0))
        latencies)

let test_garbage_frame_gets_protocol_error () =
  with_server (fun server _ ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
      Frame.send fd "\xde\xad\xbe\xef";
      match Frame.recv fd with
      | Some payload -> (
        match Proto.decode_resp payload with
        | _, Proto.Error { code = Proto.E_protocol; _ } -> ()
        | _ -> Alcotest.fail "expected protocol error response")
      | None -> Alcotest.fail "expected a response frame")

let test_concurrent_clients () =
  with_server ~readers:2 (fun server (a, b, c) ->
      let port = Server.port server in
      let clients = 4 and rounds = 50 in
      let workers =
        Array.init clients (fun w ->
            Domain.spawn (fun () ->
                let cl = Client.connect ~port () in
                Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
                let writes = ref 0 in
                for i = 1 to rounds do
                  if w = 0 then begin
                    (* One writer client; the others read under it. *)
                    let _ =
                      Client.commit cl
                        [ Proto.Set { instance = c; attr = "local"; value = int i } ]
                    in
                    incr writes;
                    let v, _ = Client.read cl ~instance:c ~attr:"local" in
                    if not (Value.equal v (int i)) then failwith "lost read-your-write"
                  end
                  else begin
                    let target = match i mod 3 with 0 -> a | 1 -> b | _ -> c in
                    let v, _ = Client.read cl ~min_version:0 ~instance:target ~attr:"local" in
                    ignore v;
                    let visited, _, _ =
                      Client.traverse cl ~min_version:0 ~root:a ~rel:"deps" ~attr:"local"
                    in
                    if visited < 3 then failwith "truncated traversal"
                  end
                done;
                !writes))
      in
      let writes = Array.fold_left (fun acc d -> acc + Domain.join d) 0 workers in
      Alcotest.(check int) "writer client committed every round" rounds writes;
      Alcotest.(check int) "all commits published" rounds (Server.published_version server))

(* Cross-client read-your-writes: the version one client's commit
   returned is readable at once by every other client, on both readers.
   Readers park no reads; this holds because the writer fills every
   reader's mailbox before it publishes the version.  Commit i sets c to
   i and is version i, so a reader at version v must show c = v (3 at
   version 0) and a = 1 + 2 + c. *)
let test_cross_client_min_version () =
  with_server ~readers:2 (fun server (a, _, c) ->
      let port = Server.port server in
      let rounds = 100 in
      let latest = Atomic.make 0 and finished = Atomic.make false in
      let writer =
        Domain.spawn (fun () ->
            let cl = Client.connect ~port () in
            Fun.protect ~finally:(fun () -> Client.close cl; Atomic.set finished true) @@ fun () ->
            for i = 1 to rounds do
              let version, _ =
                Client.commit cl [ Proto.Set { instance = c; attr = "local"; value = int i } ]
              in
              Atomic.set latest version
            done)
      in
      let reader () =
        Domain.spawn (fun () ->
            let cl = Client.connect ~port () in
            Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
            let fresh = ref 0 in
            let check ~instance ~attr expected_of =
              let min_version = Atomic.get latest in
              let v, version = Client.read cl ~min_version ~instance ~attr in
              if version < min_version then
                Alcotest.failf "served version %d below min_version %d" version min_version;
              let c_at = if version = 0 then 3 else version in
              if not (Value.equal v (int (expected_of c_at))) then
                Alcotest.failf "%s at version %d is %s" attr version (Value.to_string v);
              if min_version > 0 then incr fresh
            in
            while not (Atomic.get finished) do
              check ~instance:c ~attr:"local" Fun.id;
              check ~instance:a ~attr:"total" (fun c_at -> 1 + 2 + c_at)
            done;
            !fresh)
      in
      let readers = [ reader (); reader () ] in
      Domain.join writer;
      let fresh = List.fold_left (fun acc d -> acc + Domain.join d) 0 readers in
      Alcotest.(check bool) "reads named a committed version" true (fresh > 0);
      Alcotest.(check int) "all commits published" rounds (Server.published_version server))

(* Replicas whose schema carries a constraint the master lacks: a commit
   the master accepts then fails every replica's apply. *)
let capped_schema () =
  let sch = node_schema () in
  Schema.add_attr sch ~type_name:"node"
    (Rule.constraint_attr "capped" ~message:"local < 100"
       (Rule.map1 "local" (fun v -> Value.Bool (Value.as_int v < 100))));
  sch

(* One request on its own socket, answered within [timeout_s] or failed,
   so a reply that never comes fails the test instead of hanging it. *)
let request_within ~timeout_s ~port req =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
  Frame.send fd (Proto.encode_req { Proto.req_id = 1; span_id = 0 } req);
  match Frame.recv fd with
  | Some payload -> snd (Proto.decode_resp payload)
  | None -> Alcotest.fail "connection closed without a reply"
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Alcotest.failf "no reply within %.0f s" timeout_s

let test_replica_failure_is_typed () =
  with_server ~make_schema:capped_schema (fun server (a, _, c) ->
      let port = Server.port server in
      let cl = Client.connect ~port () in
      Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
      (* Bring the constraint up to date on c's replica: an out-of-date
         slot is cut off when marked and would never be re-checked. *)
      let ok, _ = Client.read cl ~instance:c ~attr:"capped" in
      Alcotest.(check bool) "constraint holds" true (Value.equal ok (Value.Bool true));
      let version, _ =
        Client.commit cl [ Proto.Set { instance = c; attr = "local"; value = int 1000 } ]
      in
      let expect_server_error what req =
        match request_within ~timeout_s:5.0 ~port req with
        | Proto.Error { code = Proto.E_server; message } ->
          Alcotest.(check bool) (what ^ " names the reader") true (contains message "reader-");
          Alcotest.(check bool)
            (what ^ " names the version") true
            (contains message (Printf.sprintf "version %d" version))
        | _ -> Alcotest.failf "%s: expected E_server" what
      in
      expect_server_error "read-your-writes read"
        (Proto.Read { min_version = version; instance = c; attr = "local" });
      expect_server_error "later read"
        (Proto.Read { min_version = 0; instance = a; attr = "local" });
      Server.stop server;
      Alcotest.(check int) "every replica failed" (Server.readers server)
        (Cactis_util.Counters.get (Server.counters server) "server.replica_failures"))

(* Random commit sequences against a server and a reference Db fed the
   same updates.  Reads come only every [k]-th step, so a replica's cones
   stay out of date across several commits and later marks cut off
   there; every answer must equal a fresh evaluation. *)
type step = Set_local of int * int | Create_node | Link_nodes of int * int

let step_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map2 (fun i v -> Set_local (i, v)) small_nat (int_bound 50));
        (1, return Create_node);
        (1, map2 (fun i j -> Link_nodes (i, j)) small_nat small_nat);
      ])

let test_qcheck_lazy_replicas =
  QCheck.Test.make ~count:25 ~name:"lazy replicas answer like a fresh evaluation"
    (QCheck.make
       QCheck.Gen.(pair (int_range 2 5) (list_size (int_range 5 40) (pair step_gen small_nat))))
    (fun (k, steps) ->
      let reference, a, b, c = chain_db () in
      with_server (fun server _ ->
          let cl = Client.connect ~port:(Server.port server) () in
          Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
          let ids = ref [| a; b; c |] in
          let pick i = !ids.(i mod Array.length !ids) in
          let check id =
            let v, _ = Client.read cl ~instance:id ~attr:"total" in
            let expected = Cactis.Engine.oracle_value (Db.engine reference) id "total" in
            if not (Value.equal v expected) then
              QCheck.Test.fail_reportf "total of %d: replica %s, fresh evaluation %s" id
                (Value.to_string v) (Value.to_string expected)
          in
          let apply_ref created = function
            | Proto.Set { instance; attr; value } -> Db.set reference instance attr value
            | Proto.Create { type_name } ->
              created := Db.create_instance reference type_name :: !created
            | Proto.Link { from_id; rel; to_id } -> Db.link reference ~from_id ~rel ~to_id
            | Proto.Unlink _ -> assert false
          in
          List.iteri
            (fun i (step, r) ->
              let updates =
                match step with
                | Set_local (x, v) -> [ Proto.Set { instance = pick x; attr = "local"; value = int v } ]
                | Create_node -> [ Proto.Create { type_name = "node" } ]
                | Link_nodes (x, y) ->
                  (* Links run from lower to higher ids, like the chain's,
                     so the graph stays acyclic. *)
                  let lo = min (pick x) (pick y) and hi = max (pick x) (pick y) in
                  if lo = hi || List.mem hi (Db.related reference lo "deps") then []
                  else [ Proto.Link { from_id = lo; rel = "deps"; to_id = hi } ]
              in
              if updates <> [] then begin
                let created = ref [] in
                Db.with_txn reference (fun () -> List.iter (apply_ref created) updates);
                let _, created' = Client.commit cl updates in
                if created' <> List.rev !created then QCheck.Test.fail_report "created ids diverge";
                ids := Array.append !ids (Array.of_list created')
              end;
              if (i + 1) mod k = 0 then check (pick r))
            steps;
          Array.iter check !ids;
          true))

(* ---- Observability endpoints ---- *)

let with_server_cfg config f =
  let db, a, b, c = chain_db () in
  let server = Server.start ~config ~make_schema:node_schema db in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server (a, b, c))

let test_metrics_verb () =
  with_server_cfg (Server.config ()) (fun server (a, _, _) ->
      let cl = Client.connect ~port:(Server.port server) () in
      Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
      Client.ping cl;
      ignore (Client.read cl ~instance:a ~attr:"local");
      let text = Client.metrics cl in
      (match Cactis_obs.Metrics.lint text with
      | [] -> ()
      | errors ->
        Alcotest.failf "exposition fails lint:\n%s" (String.concat "\n" errors));
      Alcotest.(check bool) "ping counted" true (contains text "cactis_server_req_ping_total");
      Alcotest.(check bool) "read latency exposed" true
        (contains text "cactis_serve_read_seconds_bucket");
      Alcotest.(check bool) "db-side merged in" true (contains text "cactis_db_"))

(* A raw HTTP/1.0 scrape against the metrics listener: status line,
   OpenMetrics content type, body identical in validity to the proto
   verb's. *)
let test_http_metrics_scrape () =
  with_server_cfg (Server.config ~metrics_port:0 ()) (fun server _ ->
      let mport =
        match Server.metrics_port server with
        | Some p -> p
        | None -> Alcotest.fail "metrics port not bound"
      in
      let scrape path =
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, mport));
        let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
        ignore (Unix.write_substring fd req 0 (String.length req));
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec drain () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        in
        drain ();
        Buffer.contents buf
      in
      let resp = scrape "/metrics" in
      Alcotest.(check bool) "200" true (contains resp "HTTP/1.0 200 OK");
      Alcotest.(check bool) "openmetrics content type" true
        (contains resp "application/openmetrics-text");
      let body =
        match String.index_opt resp '\n' with
        | None -> Alcotest.fail "no header/body split"
        | Some _ -> (
          let rec find i =
            if i + 4 > String.length resp then Alcotest.fail "no blank line"
            else if String.sub resp i 4 = "\r\n\r\n" then String.sub resp (i + 4) (String.length resp - i - 4)
            else find (i + 1)
          in
          find 0)
      in
      (match Cactis_obs.Metrics.lint body with
      | [] -> ()
      | errors -> Alcotest.failf "scraped body fails lint:\n%s" (String.concat "\n" errors));
      (* Anything but /metrics is a 404; the server survives both. *)
      let resp404 = scrape "/other" in
      Alcotest.(check bool) "404 for other paths" true (contains resp404 "404"))

let test_slowlog_catches_slow_verbs () =
  let mu = Mutex.create () in
  let lines = ref [] in
  let sink l =
    Mutex.lock mu;
    lines := l :: !lines;
    Mutex.unlock mu
  in
  (* A 1 ns deadline makes every op "slow": the log must fire with the
     verb, version and pager fields populated. *)
  with_server_cfg
    (Server.config ~slow_ms:1e-6 ~slowlog_sink:sink ())
    (fun server (a, _, c) ->
      let cl = Client.connect ~port:(Server.port server) () in
      Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
      ignore (Client.commit cl [ Proto.Set { instance = c; attr = "local"; value = int 7 } ]);
      ignore (Client.read cl ~instance:a ~attr:"total");
      Mutex.lock mu;
      let all = String.concat "\n" !lines in
      Mutex.unlock mu;
      Alcotest.(check bool) "commit logged" true (contains all "\"verb\":\"commit\"");
      Alcotest.(check bool) "read logged" true (contains all "\"verb\":\"read\"");
      Alcotest.(check bool) "domain attributed" true (contains all "\"domain\":\"");
      Alcotest.(check bool) "version stamped" true (contains all "\"version\":1");
      match Server.slowlog server with
      | Some sl -> Alcotest.(check bool) "logged counter" true (Cactis_obs.Slowlog.logged sl >= 2)
      | None -> Alcotest.fail "slowlog not enabled")

let test_flight_records_server_era () =
  Cactis_obs.Flight.reset ();
  with_server_cfg (Server.config ()) (fun server (_, _, c) ->
      let cl = Client.connect ~port:(Server.port server) () in
      Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
      ignore (Client.commit cl [ Proto.Set { instance = c; attr = "local"; value = int 9 } ]);
      ignore (Client.read cl ~instance:c ~attr:"local");
      ignore (Client.request cl (Proto.Read { min_version = 0; instance = 999999; attr = "x" }));
      ());
  (* After stop the domains are joined: the snapshot is complete. *)
  let dump = Cactis_obs.Flight.snapshot () in
  let all_events =
    List.concat_map (fun (s : Cactis_obs.Flight.section) -> s.Cactis_obs.Flight.fs_events)
      dump.Cactis_obs.Flight.d_sections
  in
  let names =
    List.map (fun (s : Cactis_obs.Flight.section) -> s.Cactis_obs.Flight.fs_name)
      dump.Cactis_obs.Flight.d_sections
  in
  let has_kind k =
    List.exists (fun (e : Cactis_obs.Flight.event) -> e.Cactis_obs.Flight.fe_kind = k) all_events
  in
  Alcotest.(check bool) "net_accept recorded" true (has_kind Cactis_obs.Flight.Net_accept);
  Alcotest.(check bool) "net_verb recorded" true (has_kind Cactis_obs.Flight.Net_verb);
  Alcotest.(check bool) "txn_commit recorded" true (has_kind Cactis_obs.Flight.Txn_commit);
  Alcotest.(check bool) "error recorded" true (has_kind Cactis_obs.Flight.Net_error);
  Alcotest.(check bool) "writer named" true (List.mem "writer" names);
  Alcotest.(check bool) "frontend named" true (List.mem "frontend" names)

let test_wal_chain_survives_restart () =
  let dir = "net_scratch_wal" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o755;
  let captured = ref [] in
  with_server
    ~prepare:(fun db -> ignore (Persist.attach ~dir db))
    (fun server (a, _, c) ->
      let cl = Client.connect ~port:(Server.port server) () in
      Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
      ignore (Client.commit cl [ Proto.Set { instance = c; attr = "local"; value = int 42 } ]);
      ignore (Client.commit cl [ Proto.Set { instance = a; attr = "local"; value = int 7 } ]);
      captured := [ (a, 7); (c, 42) ]);
  (* The server is gone; the WAL (written by the chained hook) must
     replay both commits. *)
  let p = Persist.recover ~dir (node_schema ()) in
  let db = Persist.db p in
  List.iter
    (fun (id, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "instance %d recovered" id)
        true
        (Value.equal (Db.get db id "local") (int expected)))
    !captured;
  Persist.close p;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let () =
  (match Array.to_list Sys.argv with _ :: "load-child" :: role :: _ -> load_child role | _ -> ());
  Alcotest.run "cactis-net"
    [
      ( "load",
        [
          Alcotest.test_case "kv and lines" `Quick test_load_kv;
          Alcotest.test_case "read_line timeout, terminate" `Quick test_load_timeout_and_terminate;
          Alcotest.test_case "until: child exits first" `Quick test_load_until_child_exits_first;
          Alcotest.test_case "children reaped at exit" `Quick test_load_reaps_at_exit;
        ] );
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "byte at a time" `Quick test_frame_byte_at_a_time;
          Alcotest.test_case "torn then completed" `Quick test_frame_torn_then_completed;
          Alcotest.test_case "multiple per feed" `Quick test_frame_multiple_in_one_feed;
          Alcotest.test_case "oversized rejected" `Quick test_frame_oversized_rejected;
        ] );
      ( "proto",
        [
          QCheck_alcotest.to_alcotest test_qcheck_req_roundtrip;
          QCheck_alcotest.to_alcotest test_qcheck_resp_roundtrip;
          Alcotest.test_case "malformed payloads" `Quick test_malformed_payloads;
        ] );
      ( "server",
        [
          Alcotest.test_case "verbs" `Quick test_server_verbs;
          Alcotest.test_case "read your writes" `Quick test_read_your_writes;
          Alcotest.test_case "typed errors" `Quick test_typed_errors;
          Alcotest.test_case "stats" `Quick test_stats_verb;
          Alcotest.test_case "garbage frame" `Quick test_garbage_frame_gets_protocol_error;
          Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
          Alcotest.test_case "cross-client min_version" `Quick test_cross_client_min_version;
          Alcotest.test_case "replica failure is typed" `Quick test_replica_failure_is_typed;
          QCheck_alcotest.to_alcotest test_qcheck_lazy_replicas;
          Alcotest.test_case "wal chain survives restart" `Quick test_wal_chain_survives_restart;
        ] );
      ( "observability",
        [
          Alcotest.test_case "metrics verb lints clean" `Quick test_metrics_verb;
          Alcotest.test_case "http scrape" `Quick test_http_metrics_scrape;
          Alcotest.test_case "slowlog fires" `Quick test_slowlog_catches_slow_verbs;
          Alcotest.test_case "flight records server era" `Quick test_flight_records_server_era;
        ] );
    ]
