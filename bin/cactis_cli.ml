(* cactis — command-line front end.

   Subcommands:
     check   FILE.cactis            parse + elaborate a schema, report it
     fmt     FILE.cactis            pretty-print the schema
     lint    FILE.cactis...         static analysis: circularity, dead rules, dangling refs
                                    (--fix applies machine-applicable repairs via the printer)
     analyze FILE.cactis            cost/convergence abstract interpretation (--db, --json)
     run     FILE.cactis SCRIPT     load a schema and execute a script
     serve   FILE.cactis            serve the database to TCP clients (parallel readers)
                                    (--repl-port ships the WAL to follower replicas;
                                     --follow makes this process a read-only replica)
     replicate FILE.cactis          headless follower: mirror a writer, report lag/integrity
     stats   FILE.cactis SCRIPT     run a script, report counters/latencies/profile
     stats   --connect PORT         live counters/latencies of a running server (--watch)
     trace   FILE.cactis SCRIPT     run a script, export a Chrome trace JSON
     save    FILE.cactis SNAPSHOT   re-encode a snapshot (text <-> binary)
     recover FILE.cactis DIR        recover a database from checkpoint + WAL
     log     FILE.cactis DIR        show version history incl. schema steps
     doctor  DUMP.cfr               post-mortem: flight-dump timeline correlated with the WAL
     metrics-lint FILE              validate an OpenMetrics text exposition (CI scrape check)
     demo    milestones|make|flow   run a built-in demonstration

   Built with cmdliner; see `cactis --help`. *)

module Schema = Cactis.Schema
module Db = Cactis.Db
module Snapshot = Cactis.Snapshot
module Persist = Cactis.Persist
module Counters = Cactis_util.Counters
module Histogram = Cactis_obs.Histogram
module Profile = Cactis_obs.Profile
module Server = Cactis_net.Server
module Client = Cactis_net.Client
module Publisher = Cactis_repl.Publisher
module Follower = Cactis_repl.Follower
module Repl_error = Cactis_repl.Repl_error
module Repl_proto = Cactis_repl.Repl_proto
module Flight = Cactis_obs.Flight
module Metrics = Cactis_obs.Metrics
module Watchdog = Cactis_obs.Watchdog
module Doctor = Cactis.Doctor

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_schema path =
  let src = read_file path in
  (Cactis_ddl.Parser.parse_schema src, Cactis_ddl.Elaborate.load_string src)

let handle_errors f =
  try f () with
  | Cactis_ddl.Lexer.Error { line; col; message } ->
    Printf.eprintf "lexical error at %d:%d: %s\n" line col message;
    exit 1
  | Cactis_ddl.Parser.Error { line; col; message } ->
    Printf.eprintf "syntax error at %d:%d: %s\n" line col message;
    exit 1
  | Cactis_ddl.Elaborate.Error message ->
    Printf.eprintf "schema error: %s\n" message;
    exit 1
  | Cactis.Errors.Unknown m | Cactis.Errors.Type_error m ->
    Printf.eprintf "error: %s\n" m;
    exit 1
  | Script.Script_error (line, message) ->
    Printf.eprintf "script error at line %d: %s\n" line message;
    exit 1
  | Snapshot.Parse_error { line; message } ->
    Printf.eprintf "snapshot error at line %d: %s\n" line message;
    exit 1
  | Cactis.Codec.Error { offset; message } ->
    Printf.eprintf "snapshot error at byte %d: %s\n" offset message;
    exit 1
  | Sys_error m ->
    Printf.eprintf "%s\n" m;
    exit 1

(* Snapshots are auto-detected: binary by magic, text otherwise. *)
let load_snapshot sch data =
  if Snapshot.is_binary data then Snapshot.load_binary sch data else Snapshot.load sch data

(* ---- check ---- *)

let check_cmd path verbose =
  handle_errors (fun () ->
      let items, sch = load_schema path in
      (match Cactis_ddl.Typecheck.check items with
      | [] -> ()
      | errors ->
        List.iter (fun e -> Printf.eprintf "type error: %s\n" e) errors;
        exit 1);
      Printf.printf "%s: ok (parsed, type-checked, elaborated)\n" path;
      if verbose then print_string (Schema.describe sch);
      List.iter
        (fun tn ->
          let attrs = Schema.attrs sch ~type_name:tn in
          let derived =
            List.length
              (List.filter
                 (fun (d : Schema.attr_def) ->
                   match d.Schema.kind with Schema.Derived _ -> true | _ -> false)
                 attrs)
          in
          let cons =
            List.length (List.filter (fun (d : Schema.attr_def) -> d.Schema.constraint_ <> None) attrs)
          in
          Printf.printf "  class %-20s %2d attrs (%d derived, %d constraints), %d relationships\n"
            tn (List.length attrs) derived cons
            (List.length (Schema.rels sch ~type_name:tn)))
        (Schema.type_names sch);
      List.iter (fun s -> Printf.printf "  subtype %s\n" s) (Schema.subtype_names sch))

(* ---- fmt ---- *)

let fmt_cmd path =
  handle_errors (fun () ->
      let items, _ = load_schema path in
      print_string (Cactis_ddl.Pretty.schema_to_string items))

(* ---- run ---- *)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let run_cmd schema_path script_path snapshot persist save_path save_text =
  handle_errors (fun () ->
      let _, sch = load_schema schema_path in
      let p, db =
        match (persist, snapshot) with
        | Some dir, _ ->
          let p = Persist.recover ~dir sch in
          (Some p, Persist.db p)
        | None, Some path -> (None, load_snapshot sch (read_file path))
        | None, None -> (None, Db.create sch)
      in
      let output = Script.run db (read_file script_path) in
      print_string output;
      (match save_path with
      | Some out ->
        write_file out (if save_text then Snapshot.save db else Snapshot.save_binary db)
      | None -> ());
      match p with Some p -> Persist.close p | None -> ())

(* ---- repl ---- *)

let repl_cmd schema_path snapshot =
  handle_errors (fun () ->
      let _, sch = load_schema schema_path in
      let db =
        match snapshot with
        | Some path -> load_snapshot sch (read_file path)
        | None -> Db.create sch
      in
      print_endline "Cactis interactive session. Commands: new/set/get/link/unlink/delete,";
      print_endline "begin/commit/abort, undo/redo, tag/checkout, select, members, dump, quit.";
      Script.repl db ~input:stdin ~output:stdout)

(* ---- save (snapshot re-encoding) ---- *)

let save_cmd schema_path snapshot_path out text =
  handle_errors (fun () ->
      let _, sch = load_schema schema_path in
      let data = read_file snapshot_path in
      let db = load_snapshot sch data in
      let encoded = if text then Snapshot.save db else Snapshot.save_binary db in
      (match out with
      | Some path -> write_file path encoded
      | None -> print_string encoded);
      Printf.eprintf "%s: %d instances, %d -> %d bytes (%s)\n" snapshot_path
        (List.length (Db.instance_ids db))
        (String.length data) (String.length encoded)
        (if text then "text" else "binary"))

(* ---- recover ---- *)

let recover_cmd schema_path dir script checkpoint =
  handle_errors (fun () ->
      let _, sch = load_schema schema_path in
      let p = Persist.recover ~dir sch in
      let db = Persist.db p in
      Printf.printf "recovered %s: %d instances, %d logged deltas replayed%s\n" dir
        (List.length (Db.instance_ids db))
        (Persist.replayed p)
        (if Persist.recovered_torn p then " (torn log tail discarded)" else "");
      (match script with
      | Some path -> print_string (Script.run db (read_file path))
      | None -> ());
      if checkpoint then begin
        Persist.checkpoint p;
        Printf.printf "checkpointed: log truncated\n"
      end;
      Persist.close p)

(* ---- log ---- *)

let log_cmd schema_path dir ops =
  handle_errors (fun () ->
      let _, sch = load_schema schema_path in
      let p = Persist.recover ~dir sch in
      let db = Persist.db p in
      let history = Db.history db in
      Printf.printf "%s: %d committed versions, schema version %d\n" dir (List.length history)
        (Db.schema_step_count db);
      List.iter
        (fun (vid, (delta : Cactis.Txn.delta)) ->
          let schema_ops = List.filter Cactis.Txn.is_schema_op delta.Cactis.Txn.ops in
          Printf.printf "v%-4d %3d op%s%s%s\n" vid
            (List.length delta.Cactis.Txn.ops)
            (if List.length delta.Cactis.Txn.ops = 1 then "" else "s")
            (match delta.Cactis.Txn.label with Some l -> "  [" ^ l ^ "]" | None -> "")
            (if schema_ops = [] then ""
             else Printf.sprintf "  (%d schema step%s)" (List.length schema_ops)
                 (if List.length schema_ops = 1 then "" else "s"));
          let shown = if ops then delta.Cactis.Txn.ops else schema_ops in
          List.iter (fun op -> Format.printf "        %a@." Cactis.Txn.pp_op op) shown)
        history;
      Persist.close p)

(* ---- stats / trace ---- *)

(* Open the database the way `run` does: fresh, or recovered from a
   persistence directory so the WAL/checkpoint instrumentation is live. *)
let open_script_db sch persist =
  match persist with
  | Some dir ->
    let p = Persist.recover ~dir sch in
    (Some p, Persist.db p)
  | None -> (None, Db.create sch)

let pp_duration s =
  if s >= 1.0 then Printf.sprintf "%.3fs" s
  else if s >= 1e-3 then Printf.sprintf "%.3fms" (s *. 1e3)
  else Printf.sprintf "%.1fus" (s *. 1e6)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let profile_json (s : Profile.snapshot) =
  Printf.sprintf
    "{\"nodes_marked\":%d,\"edges_walked\":%d,\"cutoffs\":%d,\"evals\":%d,\
     \"distinct_evaluated\":%d,\"max_evals_per_attr\":%d,\"bound\":%d,\"work\":%d,\
     \"at_most_once\":%b,\"work_ratio\":%.4f}"
    s.Profile.p_nodes_marked s.p_edges_walked s.p_cutoffs s.p_evals s.p_distinct_evaluated
    s.p_max_evals_per_attr s.p_bound s.p_work (Profile.at_most_once s) (Profile.work_ratio s)

let hist_json (st : Histogram.stats) =
  Printf.sprintf
    "{\"name\":\"%s\",\"count\":%d,\"sum_s\":%.6f,\"mean_us\":%.2f,\"p50_us\":%.2f,\
     \"p95_us\":%.2f,\"p99_us\":%.2f,\"max_us\":%.2f}"
    (json_escape st.Histogram.st_name)
    st.Histogram.st_count st.Histogram.st_sum (st.Histogram.st_mean *. 1e6)
    (st.Histogram.st_p50 *. 1e6) (st.Histogram.st_p95 *. 1e6) (st.Histogram.st_p99 *. 1e6)
    (st.Histogram.st_max *. 1e6)

(* Remote mode: sample a running server's counters and per-verb service
   latencies over its own Stats verb.  With [--watch] the tables refresh
   in place (ANSI home+clear) every [interval] seconds until
   interrupted, reconnecting with exponential backoff (0.5 s doubling
   to 5 s) when the server restarts mid-watch. *)
let remote_stats port watch interval json =
  let render c =
    let counters, lats = Client.stats c in
    if json then begin
      let counters_j =
        counters
        |> List.map (fun (n, v) -> Printf.sprintf "\"%s\":%d" (json_escape n) v)
        |> String.concat ","
      in
      let lat_j =
        lats
        |> List.map (fun (l : Cactis_net.Proto.latency) ->
               Printf.sprintf
                 "{\"name\":\"%s\",\"count\":%d,\"mean_us\":%.2f,\"p50_us\":%.2f,\
                  \"p95_us\":%.2f,\"p99_us\":%.2f,\"max_us\":%.2f}"
                 (json_escape l.l_name) l.l_count (l.l_mean *. 1e6) (l.l_p50 *. 1e6)
                 (l.l_p95 *. 1e6) (l.l_p99 *. 1e6) (l.l_max *. 1e6))
        |> String.concat ","
      in
      Printf.printf "{\"counters\":{%s},\"latencies\":[%s]}\n%!" counters_j lat_j
    end
    else begin
      Printf.printf "== server counters (127.0.0.1:%d) ==\n" port;
      List.iter (fun (n, v) -> Printf.printf "  %-28s %d\n" n v) counters;
      print_endline "== per-verb service latencies ==";
      Printf.printf "  %-16s %8s  %10s %10s %10s %10s\n" "verb" "count" "p50" "p95" "p99" "max";
      List.iter
        (fun (l : Cactis_net.Proto.latency) ->
          Printf.printf "  %-16s %8d  %10s %10s %10s %10s\n" l.l_name l.l_count
            (pp_duration l.l_p50) (pp_duration l.l_p95) (pp_duration l.l_p99)
            (pp_duration l.l_max))
        lats;
      flush stdout
    end
  in
  if not watch then begin
    let c =
      try Client.connect ~port ()
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot connect to 127.0.0.1:%d: %s\n" port (Unix.error_message e);
        exit 1
    in
    Fun.protect ~finally:(fun () -> try Client.close c with _ -> ()) (fun () -> render c)
  end
  else begin
    let conn = ref None in
    let backoff = ref 0.5 in
    while true do
      (match !conn with
      | Some c -> (
        match
          (* Home + clear-to-end: repaint without scrollback spam. *)
          print_string "\027[H\027[J";
          render c;
          flush stdout
        with
        | () ->
          backoff := 0.5;
          Unix.sleepf interval
        | exception (Client.Transport _ | Unix.Unix_error _ | Sys_error _) ->
          (try Client.close c with _ -> ());
          conn := None)
      | None -> (
        match Client.connect ~port () with
        | c -> conn := Some c
        | exception (Unix.Unix_error _ | Sys_error _) ->
          Printf.printf "\027[H\027[Jcactis stats: 127.0.0.1:%d unreachable, retrying in %.1fs\n%!"
            port !backoff;
          Unix.sleepf !backoff;
          backoff := Float.min 5.0 (!backoff *. 2.0)))
    done
  end

let stats_cmd connect watch interval schema_path script_path persist json show_output =
  match connect with
  | Some port -> remote_stats port watch interval json
  | None ->
  let schema_path, script_path =
    match (schema_path, script_path) with
    | Some a, Some b -> (a, b)
    | _ ->
      prerr_endline "stats: SCHEMA and SCRIPT are required (or use --connect PORT)";
      exit 2
  in
  handle_errors (fun () ->
      let _, sch = load_schema schema_path in
      let p, db = open_script_db sch persist in
      Db.set_profiling db true;
      let output = Script.run db (read_file script_path) in
      if show_output then print_string output;
      (match p with Some p -> Persist.close p | None -> ());
      let counters = Counters.snapshot (Db.counters db) in
      let hists = Histogram.snapshot (Db.obs db).Cactis_obs.Ctx.hists in
      let prof = Db.last_profile db in
      (* Storage maintenance summary: buffer-pool effectiveness and
         incremental re-clustering progress (§2.3). *)
      let pager = Cactis.Store.pager (Db.store db) in
      let pool = Cactis_storage.Pager.pool pager in
      let hits = Cactis_storage.Buffer_pool.hits pool in
      let misses = Cactis_storage.Buffer_pool.misses pool in
      let hit_rate = 100. *. float_of_int hits /. float_of_int (max 1 (hits + misses)) in
      let recluster_steps = Counters.get (Db.counters db) "recluster_steps" in
      let recluster_moves = Counters.get (Db.counters db) "recluster_moves" in
      let pending = Cactis.Store.pending_moves (Db.store db) in
      if json then begin
        let counters_j =
          counters
          |> List.map (fun (n, v) -> Printf.sprintf "\"%s\":%d" (json_escape n) v)
          |> String.concat ","
        in
        let hists_j = hists |> List.map hist_json |> String.concat "," in
        let prof_j = match prof with Some s -> profile_json s | None -> "null" in
        let storage_j =
          Printf.sprintf
            "{\"pool_hits\":%d,\"pool_misses\":%d,\"hit_rate_pct\":%.1f,\
             \"recluster_steps\":%d,\"recluster_moves\":%d,\"pending_moves\":%d}"
            hits misses hit_rate recluster_steps recluster_moves pending
        in
        Printf.printf "{\"counters\":{%s},\"storage\":%s,\"histograms\":[%s],\"last_profile\":%s}\n"
          counters_j storage_j hists_j prof_j
      end
      else begin
        print_endline "== counters ==";
        List.iter (fun (n, v) -> Printf.printf "  %-28s %d\n" n v) counters;
        print_endline "== storage ==";
        Printf.printf "  pager hit rate               %.1f%% (%d hits / %d misses)\n" hit_rate
          hits misses;
        Printf.printf "  recluster steps              %d (%d moves, %d pending)\n" recluster_steps
          recluster_moves pending;
        print_endline "== latencies ==";
        Printf.printf "  %-16s %8s  %10s %10s %10s %10s\n" "histogram" "count" "p50" "p95" "p99"
          "max";
        List.iter
          (fun (st : Histogram.stats) ->
            Printf.printf "  %-16s %8d  %10s %10s %10s %10s\n" st.Histogram.st_name
              st.Histogram.st_count (pp_duration st.st_p50) (pp_duration st.st_p95)
              (pp_duration st.st_p99) (pp_duration st.st_max))
          hists;
        match prof with
        | Some s ->
          print_endline "== last propagation profile ==";
          Printf.printf "  %s\n" (Profile.to_string s);
          Printf.printf "  evaluated-at-most-once: %s\n"
            (if Profile.at_most_once s then "holds" else "VIOLATED")
        | None -> ()
      end)

let trace_cmd schema_path script_path persist out show_output =
  handle_errors (fun () ->
      let _, sch = load_schema schema_path in
      let p, db = open_script_db sch persist in
      let output = Script.run db (read_file script_path) in
      if show_output then print_string output;
      (match p with Some p -> Persist.close p | None -> ());
      let d = Flight.snapshot () in
      write_file out (Flight.to_chrome_json d);
      let kept, total =
        List.fold_left
          (fun (k, n) (s : Flight.section) ->
            (k + List.length s.Flight.fs_events, n + s.Flight.fs_total))
          (0, 0) d.Flight.d_sections
      in
      Printf.printf "%s: %d events (%d dropped) — load in Perfetto or chrome://tracing\n" out
        kept (total - kept))

(* ---- serve ---- *)

let parse_hostport s =
  match String.rindex_opt s ':' with
  | Some i -> (
    let host = String.sub s 0 i in
    let host = if host = "" then "127.0.0.1" else host in
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some p -> (host, p)
    | None ->
      Printf.eprintf "error: bad HOST:PORT %S\n" s;
      exit 1)
  | None -> (
    match int_of_string_opt s with
    | Some p -> ("127.0.0.1", p)
    | None ->
      Printf.eprintf "error: bad HOST:PORT %S\n" s;
      exit 1)

let serve_cmd schema_path script_path port readers persist metrics_port slow_ms
    watchdog_interval flight_dir repl_port follow =
  handle_errors (fun () ->
      let src = read_file schema_path in
      (* Each reader replica needs its own schema (schemas are mutable
         and cannot cross domains): re-elaborate from source per call. *)
      let make_schema () = Cactis_ddl.Elaborate.load_string src in
      let follower =
        match follow with
        | None -> None
        | Some upstream ->
          if persist <> None || script_path <> None || repl_port <> None then begin
            Printf.eprintf
              "error: --follow is exclusive with --persist, --script and --repl-port (the \
               replica's state comes from the writer)\n";
            exit 1
          end;
          let fhost, fport = parse_hostport upstream in
          (* Drift checks stay off: once the server starts, the replica
             db belongs to its writer domain. *)
          Some
            (Follower.create
               ~config:(Follower.config ~check_every:0 ())
               ~make_schema ~host:fhost ~port:fport ())
      in
      let p, db =
        match follower with
        | Some f ->
          Printf.printf "cactis: bootstrapping replica from %s ...\n%!" (Option.get follow);
          (None, Follower.sync f)
        | None -> open_script_db (make_schema ()) persist
      in
      (match script_path with
      | Some s -> ignore (Script.run db (read_file s))
      | None -> ());
      let publisher =
        match repl_port with
        | None -> None
        | Some rp -> (
          match p with
          | None ->
            Printf.eprintf "error: --repl-port requires --persist (the WAL is what is shipped)\n";
            exit 1
          | Some p ->
            (* Before Server.start, so the server's delta broadcast
               chains after the shipping hook. *)
            Some (Publisher.start ~config:(Publisher.config ~port:rp ()) p))
      in
      let watchdog =
        Option.map
          (fun s -> { Watchdog.default_config with Watchdog.wd_interval_s = s })
          watchdog_interval
      in
      let server =
        Server.start
          ~config:
            (Server.config ~port ~readers ?metrics_port ~slow_ms ?watchdog
               ?flight_dir ~read_only:(follower <> None) ())
          ~make_schema db
      in
      (* Replica mode: shipped records now route through the server's
         writer domain, so the master and its reader replicas advance
         together. *)
      let follower_domain =
        Option.map
          (fun f ->
            Follower.set_apply f (Some (fun record -> ignore (Server.inject server record)));
            Domain.spawn (fun () ->
                try Follower.run f
                with e ->
                  Printf.eprintf "cactis: replication stopped: %s\n%!" (Repl_error.to_string e)))
          follower
      in
      Printf.printf "cactis: serving on 127.0.0.1:%d  (%d reader domain%s, version %d)\n"
        (Server.port server) readers
        (if readers = 1 then "" else "s")
        (Server.published_version server);
      (match Server.metrics_port server with
      | Some mp -> Printf.printf "cactis: metrics:     curl http://127.0.0.1:%d/metrics\n" mp
      | None -> ());
      (match publisher with
      | Some pub ->
        Printf.printf
          "cactis: shipping WAL on 127.0.0.1:%d  (replicate with: cactis serve %s --follow \
           127.0.0.1:%d)\n"
          (Publisher.port pub) schema_path (Publisher.port pub)
      | None -> ());
      (match follower with
      | Some _ ->
        Printf.printf "cactis: read-only replica of %s (commits are refused here)\n"
          (Option.get follow)
      | None -> ());
      Printf.printf "cactis: live stats:  cactis stats --connect %d --watch\n" (Server.port server);
      Printf.printf "cactis: stop with Ctrl-C\n%!";
      let stop = Atomic.make false in
      let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
      Sys.set_signal Sys.sigint handler;
      Sys.set_signal Sys.sigterm handler;
      (* SIGQUIT / SIGUSR2: dump the flight recorder without stopping —
         "what is the server doing right now" from another terminal. *)
      let dump_handler =
        Sys.Signal_handle
          (fun _ ->
            match Server.dump_flight server ~reason:"signal" with
            | Some path -> Printf.eprintf "cactis: flight dump written to %s\n%!" path
            | None -> Printf.eprintf "cactis: flight dump skipped (no --flight-dir)\n%!")
      in
      (try Sys.set_signal Sys.sigquit dump_handler with _ -> ());
      (try Sys.set_signal Sys.sigusr2 dump_handler with _ -> ());
      while not (Atomic.get stop) do
        try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      Printf.printf "\ncactis: shutting down (version %d)\n%!" (Server.published_version server);
      (match follower with Some f -> Follower.stop f | None -> ());
      (match follower_domain with Some d -> Domain.join d | None -> ());
      (match publisher with Some pub -> Publisher.stop pub | None -> ());
      Server.stop server;
      (match p with Some p -> Persist.close p | None -> ());
      List.iter
        (fun (n, v) -> Printf.printf "  %-28s %d\n" n v)
        (Counters.snapshot (Server.counters server)))

(* ---- doctor ---- *)

let doctor_cmd dump_path wal_dir json limit =
  handle_errors (fun () ->
      match Doctor.load dump_path with
      | Error msg ->
        Printf.eprintf "%s: %s\n" dump_path msg;
        exit 1
      | Ok dump ->
        let report = Doctor.analyze ?wal_dir dump in
        if json then print_endline (Doctor.render_json report)
        else print_string (Doctor.render ?limit report))

(* ---- metrics-lint ---- *)

let metrics_lint_cmd path =
  handle_errors (fun () ->
      let text = if path = "-" then In_channel.input_all stdin else read_file path in
      match Metrics.lint text with
      | [] -> Printf.printf "%s: valid OpenMetrics exposition\n" path
      | errors ->
        List.iter (fun e -> Printf.eprintf "%s: %s\n" path e) errors;
        exit 1)

(* ---- lint ---- *)

module Diag = Cactis_analysis.Diag
module Analyze = Cactis_analysis.Analyze

(* Built-in application schemas, linted with `--apps` — these live in
   OCaml, not in .cactis files, so they are reconstructed here. *)
let app_schemas () =
  let module A = Cactis_apps in
  [
    ("app:milestone", Db.schema (A.Milestone.db (A.Milestone.create ())));
    ("app:configman", Db.schema (A.Configman.db (A.Configman.create ())));
    ("app:traceability", Db.schema (A.Traceability.db (A.Traceability.create ())));
    ("app:makefac", Db.schema (A.Makefac.db (A.Makefac.create (A.Fs_sim.create ()))));
    ("app:uidemo", Db.schema (A.Uidemo.db (A.Uidemo.create ())));
    ("app:flowan", A.Flowan.schema ());
  ]

let lint_cmd paths apps json strict fix dry_run =
  handle_errors (fun () ->
      let counters = Counters.create () in
      let lint_ast items =
        Cactis_ddl.Lint.typecheck_diags items @ Cactis_ddl.Lint.analyze_ast ~counters items
      in
      (* --fix: apply the machine-applicable fix directives to a
         fixpoint and re-emit through the pretty-printer; --dry-run
         prints the patched DDL instead of rewriting the file. *)
      let fix_file path =
        let items = Cactis_ddl.Parser.parse_schema (read_file path) in
        let items', applied = Cactis_ddl.Fix.run ~lint:lint_ast items in
        (match applied with
        | [] -> Printf.eprintf "%s: no applicable fixes\n" path
        | ds ->
          List.iter
            (fun d ->
              Printf.eprintf "%s: %s %s\n" path
                (if dry_run then "would apply" else "applied")
                (Cactis_ddl.Fix.directive_to_string d))
            ds);
        if applied <> [] then begin
          let out = Cactis_ddl.Pretty.schema_to_string items' in
          if dry_run then print_string out else write_file path out
        end
      in
      if fix then List.iter fix_file paths;
      if fix && dry_run then exit 0;
      let lint_file path =
        let items = Cactis_ddl.Parser.parse_schema (read_file path) in
        (path, List.stable_sort Diag.compare (lint_ast items))
      in
      let reports =
        List.map lint_file paths
        @
        if apps then
          List.map (fun (name, sch) -> (name, Analyze.analyze_schema ~counters sch)) (app_schemas ())
        else []
      in
      let failing d = Diag.is_error d || (strict && d.Diag.severity = Diag.Warning) in
      let any_failing = List.exists (fun (_, ds) -> List.exists failing ds) reports in
      if json then begin
        let file_json (name, ds) =
          Printf.sprintf "{\"file\":\"%s\",\"diagnostics\":%s}" (json_escape name)
            (Analyze.to_json ds)
        in
        Printf.printf "[%s]\n" (String.concat "," (List.map file_json reports))
      end
      else
        List.iter
          (fun (name, ds) ->
            match ds with
            | [] -> Printf.printf "%s: clean\n" name
            | ds ->
              Printf.printf "%s: %s\n" name (Diag.summary ds);
              List.iter (fun d -> Printf.printf "  %s\n" (Diag.to_string d)) ds)
          reports;
      if any_failing then exit 1)

(* ---- analyze ---- *)

module Cost = Cactis_analysis.Cost

let analyze_cmd path db_dir json =
  handle_errors (fun () ->
      let _, sch = load_schema path in
      let diags = List.stable_sort Diag.compare (Analyze.analyze_schema sch) in
      let finish cost hot =
        if json then
          Printf.printf "{\"file\":\"%s\",\"diagnostics\":%s,\"cost\":%s}\n" (json_escape path)
            (Analyze.to_json diags) (Cost.to_json cost)
        else begin
          (match Analyze.render diags with
          | "" -> Printf.printf "%s: no findings\n" path
          | r -> print_string r);
          print_string (Cost.render cost);
          match hot with
          | [] -> ()
          | hot ->
            print_endline "hot relationships (usage crossings):";
            List.iter (fun (rel, n) -> Printf.printf "  %-24s %6d\n" rel n) hot
        end
      in
      match db_dir with
      | None -> finish (Cost.analyze_schema sch) []
      | Some dir ->
        (* A live database sharpens fan-out bounds to measured values and
           prices I/O from the links' decaying-average tags. *)
        let p = Persist.recover ~dir sch in
        let db = Persist.db p in
        let cost = Cost.analyze_schema ~db sch in
        let hot = Cactis_storage.Usage.rel_totals (Cactis.Store.usage (Db.store db)) in
        Persist.close p;
        finish cost hot)

(* ---- demo ---- *)

let demo_cmd which =
  handle_errors (fun () ->
      match which with
      | "milestones" ->
        let module M = Cactis_apps.Milestone in
        let m = M.create () in
        let a = M.add m ~name:"design" ~scheduled:10.0 ~local_work:5.0 in
        let b = M.add m ~name:"build" ~scheduled:30.0 ~local_work:12.0 in
        M.depends_on m b a;
        print_string (M.report m);
        print_endline "-- design slips 20 days --";
        M.slip m a 20.0;
        print_string (M.report m)
      | "make" ->
        let module Fs = Cactis_apps.Fs_sim in
        let module Mk = Cactis_apps.Makefac in
        let fs = Fs.create () in
        Fs.write_file fs "main.c" "int main(){}";
        let mk = Mk.create fs in
        let src = Mk.add_rule mk ~file:"main.c" ~command:"" in
        let exe = Mk.add_rule mk ~file:"main" ~command:"cc main.c -o main" in
        Mk.add_dependency mk ~rule:exe ~on:src;
        List.iter print_endline (Mk.build mk exe);
        print_endline "-- rebuild (current) --";
        (match Mk.build mk exe with
        | [] -> print_endline "(nothing to do)"
        | cmds -> List.iter print_endline cmds)
      | "flow" ->
        let module F = Cactis_apps.Flowan in
        let p =
          F.Seq
            ( F.Assign { target = "x"; uses = [ "input" ]; label = "X" },
              F.Assign { target = "y"; uses = [ "x" ]; label = "Y" } )
        in
        let t = F.analyze ~exit_live:[ "y" ] p in
        List.iter
          (fun n ->
            Printf.printf "%-5s live_in={%s}\n" (F.label t n) (String.concat "," (F.live_in t n)))
          (F.nodes t)
      | other ->
        Printf.eprintf "unknown demo %s (milestones|make|flow)\n" other;
        exit 1)

(* ---- cmdliner wiring ---- *)

open Cmdliner

let schema_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SCHEMA" ~doc:"Schema (.cactis) file.")

let check_t =
  let doc = "Parse, type-check and elaborate a schema file, reporting its classes." in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the full elaborated schema.")
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const check_cmd $ schema_arg $ verbose)

let fmt_t =
  let doc = "Pretty-print a schema file." in
  Cmd.v (Cmd.info "fmt" ~doc) Term.(const fmt_cmd $ schema_arg)

let run_t =
  let doc = "Load a schema and execute a script of database primitives." in
  let script_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"SCRIPT" ~doc:"Script file.")
  in
  let snapshot_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:"Load a data snapshot (text or binary, auto-detected) before running the script.")
  in
  let persist_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "persist" ] ~docv:"DIR"
          ~doc:
            "Run against a durable persistence directory: recover from its checkpoint and \
             write-ahead log, then log every commit the script makes.")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Write a snapshot of the final state to $(docv).")
  in
  let save_text_arg =
    Arg.(
      value & flag
      & info [ "text" ] ~doc:"With $(b,--save), use the textual snapshot format (default binary).")
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run_cmd $ schema_arg $ script_arg $ snapshot_arg $ persist_arg $ save_arg
      $ save_text_arg)

let save_t =
  let doc = "Re-encode a data snapshot (text to binary or back)." in
  let snapshot_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"SNAPSHOT" ~doc:"Snapshot file (text or binary, auto-detected).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (stdout when omitted).")
  in
  let text_arg =
    Arg.(value & flag & info [ "text" ] ~doc:"Emit the textual format (default binary).")
  in
  Cmd.v (Cmd.info "save" ~doc) Term.(const save_cmd $ schema_arg $ snapshot_arg $ out_arg $ text_arg)

let recover_t =
  let doc =
    "Recover a database from a persistence directory (checkpoint + write-ahead log), \
     discarding any torn log tail."
  in
  let dir_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DIR" ~doc:"Persistence directory.")
  in
  let script_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE" ~doc:"Run a script against the recovered database.")
  in
  let checkpoint_arg =
    Arg.(
      value & flag
      & info [ "checkpoint" ] ~doc:"Write a fresh checkpoint (and truncate the log) at the end.")
  in
  Cmd.v (Cmd.info "recover" ~doc)
    Term.(const recover_cmd $ schema_arg $ dir_arg $ script_arg $ checkpoint_arg)

let log_t =
  let doc =
    "Show the committed version history of a persistence directory: one line per version with \
     its delta size and label, schema steps (type/attribute/subtype declarations) spelled out."
  in
  let dir_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DIR" ~doc:"Persistence directory.")
  in
  let ops_arg =
    Arg.(value & flag & info [ "ops" ] ~doc:"Spell out every op of every delta, not just schema steps.")
  in
  Cmd.v (Cmd.info "log" ~doc) Term.(const log_cmd $ schema_arg $ dir_arg $ ops_arg)

let script_pos_arg =
  Arg.(required & pos 1 (some file) None & info [] ~docv:"SCRIPT" ~doc:"Script file.")

let persist_opt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "persist" ] ~docv:"DIR"
        ~doc:
          "Run against a durable persistence directory (recover first), so WAL appends, fsyncs \
           and checkpoints show up in the instrumentation.")

let show_output_arg =
  Arg.(value & flag & info [ "show-output" ] ~doc:"Also print the script's own output.")

let stats_t =
  let doc =
    "Execute a script with per-commit propagation profiling armed, then report event counters, \
     latency histograms (p50/p95/p99/max) and the last commit's propagation profile — including \
     whether the evaluated-at-most-once invariant held.  With $(b,--connect), report a running \
     $(b,cactis serve) instance's counters and per-verb service latencies instead (add \
     $(b,--watch) for a live view)."
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object instead of tables.")
  in
  let connect_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "connect" ] ~docv:"PORT"
          ~doc:"Query a running server on 127.0.0.1:$(docv) instead of executing a script.")
  in
  let watch_arg =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "With $(b,--connect): refresh the tables in place until interrupted, reconnecting \
             with backoff if the server goes away.")
  in
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECS"
          ~doc:"With $(b,--watch): seconds between refreshes (default 1).")
  in
  let schema_opt_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"SCHEMA" ~doc:"Schema (.cactis) file.")
  in
  let script_opt_arg =
    Arg.(value & pos 1 (some file) None & info [] ~docv:"SCRIPT" ~doc:"Script file.")
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const stats_cmd $ connect_arg $ watch_arg $ interval_arg $ schema_opt_arg $ script_opt_arg
      $ persist_opt_arg $ json_arg $ show_output_arg)

let serve_t =
  let doc =
    "Serve the database to TCP clients: one writer domain applies commits (through the \
     write-ahead log when $(b,--persist) is given), N reader domains answer reads and \
     traversals over immutable snapshot replicas kept current by per-commit delta broadcast.  \
     Listens on loopback; stop with Ctrl-C."
  in
  let script_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE" ~doc:"Populate the database with a script before serving.")
  in
  let port_arg =
    Arg.(
      value & opt int 0
      & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (default 0: pick an ephemeral port).")
  in
  let readers_arg =
    Arg.(
      value & opt int 2
      & info [ "readers" ] ~docv:"N" ~doc:"Reader domains serving snapshot reads (default 2).")
  in
  let metrics_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Also answer plain-HTTP $(b,GET /metrics) (OpenMetrics text) on loopback at $(docv) \
             (0: ephemeral, printed at startup).")
  in
  let slow_ms_arg =
    Arg.(
      value & opt float 100.0
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-op deadline: ops slower than $(docv) milliseconds are logged as one JSON line \
             each to stderr (0 disables; default 100).")
  in
  let watchdog_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "watchdog" ] ~docv:"SECS"
          ~doc:
            "Enable the latency/error watchdog, sampling per-verb latency windows every $(docv) \
             seconds; a p99 regression or error burst dumps the flight recorder.")
  in
  let flight_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-dir" ] ~docv:"DIR"
          ~doc:
            "Write flight-recorder dumps (domain crash, watchdog trip, SIGQUIT/SIGUSR2) to \
             $(docv); analyze them with $(b,cactis doctor).")
  in
  let repl_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "repl-port" ] ~docv:"PORT"
          ~doc:
            "Ship the write-ahead log to follower replicas on loopback at $(docv) (0: \
             ephemeral, printed at startup).  Requires $(b,--persist).")
  in
  let follow_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "follow" ] ~docv:"HOST:PORT"
          ~doc:
            "Run as a read-only replica of the writer shipping its WAL at $(docv): bootstrap \
             from its snapshot, stream its log, refuse client commits.")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve_cmd $ schema_arg $ script_arg $ port_arg $ readers_arg $ persist_opt_arg
      $ metrics_port_arg $ slow_ms_arg $ watchdog_arg $ flight_dir_arg $ repl_port_arg
      $ follow_arg)

let replicate_cmd schema_path from until_synced check_every lag_every =
  handle_errors (fun () ->
      let src = read_file schema_path in
      let make_schema () = Cactis_ddl.Elaborate.load_string src in
      let host, port = parse_hostport from in
      let f =
        Follower.create ~config:(Follower.config ~check_every ()) ~make_schema ~host ~port ()
      in
      let handler = Sys.Signal_handle (fun _ -> Follower.stop f) in
      Sys.set_signal Sys.sigint handler;
      Sys.set_signal Sys.sigterm handler;
      Printf.printf "cactis: replicating from %s:%d%s\n%!" host port
        (if until_synced then " (until synced)" else "");
      (* A progress line every [lag_every] seconds, from a domain of its
         own so the streaming thread never waits on stdout. *)
      let progress_stop = Atomic.make false in
      let progress =
        if lag_every <= 0.0 then None
        else
          Some
            (Domain.spawn (fun () ->
                 while not (Atomic.get progress_stop) do
                   Unix.sleepf lag_every;
                   if not (Atomic.get progress_stop) then
                     Printf.printf "cactis: replica %s applied_seq=%d head_seq=%d lag=%d\n%!"
                       (Repl_proto.cursor_to_string (Follower.cursor f))
                       (Follower.applied_seq f) (Follower.head_seq f)
                       (max 0 (Follower.head_seq f - Follower.applied_seq f))
                 done))
      in
      let finish () =
        Atomic.set progress_stop true;
        match progress with Some d -> Domain.join d | None -> ()
      in
      (try Follower.run ~until_synced f
       with e ->
         finish ();
         Printf.eprintf "cactis: replication failed: %s\n" (Repl_error.to_string e);
         exit 1);
      finish ();
      match Follower.db f with
      | None ->
        Printf.eprintf "cactis: stopped before any data arrived\n";
        exit 1
      | Some db ->
        let violations = Cactis.Integrity.check db in
        Printf.printf
          "cactis: replica %s applied_seq=%d head_seq=%d synced=%b integrity=%s instances=%d\n"
          (Repl_proto.cursor_to_string (Follower.cursor f))
          (Follower.applied_seq f) (Follower.head_seq f) (Follower.synced f)
          (if violations = [] then "clean" else "VIOLATED")
          (List.length (Db.instance_ids db));
        List.iter
          (fun (n, v) ->
            if String.length n >= 5 && String.sub n 0 5 = "repl." then
              Printf.printf "  %-28s %d\n" n v)
          (Counters.snapshot (Db.counters db));
        if violations <> [] then begin
          List.iter (fun v -> Printf.eprintf "  violation: %s\n" v) violations;
          exit 1
        end)

let replicate_t =
  let doc =
    "Maintain a live read-only replica of a $(b,cactis serve --repl-port) writer: bootstrap \
     from its checkpoint snapshot, stream its write-ahead log, verify integrity, report lag.  \
     With $(b,--until-synced), exit once the replica has caught up (CI smoke tests build on \
     this)."
  in
  let from_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "from" ] ~docv:"HOST:PORT" ~doc:"The writer's replication endpoint.")
  in
  let until_synced_arg =
    Arg.(
      value & flag
      & info [ "until-synced" ]
          ~doc:"Exit (successfully) as soon as the replica has applied the writer's head.")
  in
  let check_every_arg =
    Arg.(
      value & opt int 8
      & info [ "check-every" ] ~docv:"N"
          ~doc:
            "Run the structural integrity checker every $(docv) applied batches — the drift \
             detector (0 disables; default 8).")
  in
  let lag_every_arg =
    Arg.(
      value & opt float 0.0
      & info [ "lag-every" ] ~docv:"SECS"
          ~doc:"Print a lag progress line every $(docv) seconds (0 disables).")
  in
  Cmd.v (Cmd.info "replicate" ~doc)
    Term.(
      const replicate_cmd $ schema_arg $ from_arg $ until_synced_arg $ check_every_arg
      $ lag_every_arg)

let trace_t =
  let doc =
    "Execute a script and export the flight recorder's events as Chrome trace-event JSON, \
     loadable in Perfetto or chrome://tracing."
  in
  let out_arg =
    Arg.(
      value
      & opt string "trace.json"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Trace output file (default trace.json).")
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const trace_cmd $ schema_arg $ script_pos_arg $ persist_opt_arg $ out_arg $ show_output_arg)

let lint_t =
  let doc =
    "Statically analyze schema files without instantiating any objects: the attribute-grammar \
     circularity test (with a concrete witness cycle for every strongly connected component), \
     dead derived attributes, dangling references and constraint lint.  Exits non-zero when any \
     error-severity finding is reported."
  in
  let schemas_arg =
    Arg.(value & pos_all file [] & info [] ~docv:"SCHEMA" ~doc:"Schema (.cactis) files to lint.")
  in
  let apps_arg =
    Arg.(
      value & flag
      & info [ "apps" ] ~doc:"Also lint the built-in application schemas (milestone, flowan, …).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON array instead of text.")
  in
  let strict_arg =
    Arg.(value & flag & info [ "strict" ] ~doc:"Treat warnings as failing too (infos never fail).")
  in
  let fix_arg =
    Arg.(
      value & flag
      & info [ "fix" ]
          ~doc:
            "Apply machine-applicable fixes (dead rules dropped, dangling transmission targets \
             declared) and rewrite the schema files in place, then lint the result.")
  in
  let dry_run_arg =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:"With $(b,--fix): print the patched DDL to stdout instead of rewriting files.")
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const lint_cmd $ schemas_arg $ apps_arg $ json_arg $ strict_arg $ fix_arg $ dry_run_arg)

let analyze_t =
  let doc =
    "Abstract interpretation over the compiled rules and the dependency graph: per-attribute \
     evaluation-cost intervals (rule operation counts, transmit fan-out bounds, expected I/O \
     when a live database is attached with $(b,--db)) and a convergence verdict for every \
     potential cycle — the cost-model substrate for the query planner.  $(b,--json) emits a \
     stable document suitable for golden-file comparison."
  in
  let db_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "db" ] ~docv:"DIR"
          ~doc:"Persistence directory: sharpen static bounds with measured fan-outs and I/O tags.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object instead of text.")
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const analyze_cmd $ schema_arg $ db_arg $ json_arg)

let doctor_t =
  let doc =
    "Post-mortem analysis of a flight-recorder dump: merged per-domain event timeline, last \
     durable version against the last commit the process attempted (correlated with the WAL \
     when $(b,--dir) names the persistence directory), and what each domain had in flight."
  in
  let dump_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"DUMP" ~doc:"Flight dump (.cfr) written by the server or a signal.")
  in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Persistence directory whose WAL tail to correlate with the dump.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the verdict as one JSON object.")
  in
  let limit_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ] ~docv:"N" ~doc:"Show only the newest $(docv) timeline lines.")
  in
  Cmd.v (Cmd.info "doctor" ~doc)
    Term.(const doctor_cmd $ dump_arg $ dir_arg $ json_arg $ limit_arg)

let metrics_lint_t =
  let doc =
    "Validate an OpenMetrics text exposition (e.g. a file captured from $(b,GET /metrics)): \
     structure, type/suffix agreement, family contiguity, cumulative histogram buckets.  Exits \
     non-zero on any violation.  Reads stdin when FILE is $(b,-)."
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Exposition file ($(b,-) for stdin).")
  in
  Cmd.v (Cmd.info "metrics-lint" ~doc) Term.(const metrics_lint_cmd $ file_arg)

let demo_t =
  let doc = "Run a built-in demo (milestones, make, flow)." in
  let which = Arg.(required & pos 0 (some string) None & info [] ~docv:"DEMO" ~doc) in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const demo_cmd $ which)

let repl_t =
  let doc = "Interactive session against a schema (optionally over a snapshot)." in
  let snapshot_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "snapshot" ] ~docv:"FILE" ~doc:"Load a data snapshot before starting.")
  in
  Cmd.v (Cmd.info "repl" ~doc) Term.(const repl_cmd $ schema_arg $ snapshot_arg)

let main =
  let doc = "Cactis: object-oriented database with functionally-defined data" in
  Cmd.group
    (Cmd.info "cactis" ~version:"1.0.0" ~doc)
    [
      check_t; fmt_t; lint_t; analyze_t; run_t; repl_t; serve_t; replicate_t; stats_t; trace_t;
      save_t; recover_t; log_t; doctor_t; metrics_lint_t; demo_t;
    ]

let () =
  (* Register the analyzer as the schema validator, so Schema.validate /
     strict mode work for everything the CLI loads. *)
  Cactis_analysis.Analyze.install ();
  exit (Cmd.eval main)
