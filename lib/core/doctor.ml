module Flight = Cactis_obs.Flight
module Wal = Cactis_storage.Wal

type wal_info = {
  dw_generation : int;
  dw_schema_version : int;
  dw_records : int;
  dw_torn : bool;
  dw_undecodable : int;
  dw_data_ops : int;
  dw_schema_ops : int;
}

type report = {
  r_dump : Flight.dump;
  r_last_commit : int;
  r_last_attempt : int;
  r_open_txns : (string * int) list;
  r_wal : wal_info option;
  r_last_durable : int option;
}

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let s =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Flight.decode s

(* Mirrors Persist's on-disk layout (wal.log next to snapshot.bin). *)
let wal_path dir = Filename.concat dir "wal.log"

let read_wal dir =
  let r = Wal.read (wal_path dir) in
  let undecodable = ref 0 in
  let data_ops = ref 0 in
  let schema_ops = ref 0 in
  List.iter
    (fun payload ->
      match Codec.decode_delta payload with
      | exception _ -> incr undecodable
      | delta ->
        List.iter
          (fun op ->
            match op with Txn.Schema _ -> incr schema_ops | _ -> incr data_ops)
          delta.Txn.ops)
    r.Wal.records;
  {
    dw_generation = r.Wal.generation;
    dw_schema_version = r.Wal.schema_version;
    dw_records = List.length r.Wal.records;
    dw_torn = r.Wal.torn;
    dw_undecodable = !undecodable;
    dw_data_ops = !data_ops;
    dw_schema_ops = !schema_ops;
  }

let analyze ?wal_dir (dump : Flight.dump) =
  let last_commit = ref 0 in
  let last_attempt = ref 0 in
  let open_txns = ref [] in
  List.iter
    (fun (s : Flight.section) ->
      let open_v = ref 0 in
      List.iter
        (fun (e : Flight.event) ->
          match e.Flight.fe_kind with
          | Flight.Txn_begin ->
            open_v := e.Flight.fe_a;
            if e.Flight.fe_a > !last_attempt then last_attempt := e.Flight.fe_a
          | Flight.Txn_commit ->
            open_v := 0;
            if e.Flight.fe_a > !last_commit then last_commit := e.Flight.fe_a
          | Flight.Txn_abort -> open_v := 0
          | _ -> ())
        s.Flight.fs_events;
      if !open_v > 0 then open_txns := (s.Flight.fs_name, !open_v) :: !open_txns)
    dump.Flight.d_sections;
  let wal = Option.map read_wal wal_dir in
  {
    r_dump = dump;
    r_last_commit = !last_commit;
    r_last_attempt = !last_attempt;
    r_open_txns = List.rev !open_txns;
    r_wal = wal;
    r_last_durable = Option.map (fun w -> w.dw_records) wal;
  }

let describe_event (e : Flight.event) =
  let open Flight in
  match e.fe_kind with
  | Txn_begin -> Printf.sprintf "txn_begin v%d" e.fe_a
  | Txn_commit -> Printf.sprintf "txn_commit v%d (%d ops)" e.fe_a e.fe_b
  | Txn_abort -> Printf.sprintf "txn_abort (%d ops)" e.fe_a
  | Wal_append -> Printf.sprintf "wal_append %dB (#%d)" e.fe_a e.fe_b
  | Wal_fsync -> Printf.sprintf "wal_fsync (%d pending)" e.fe_a
  | Checkpoint -> Printf.sprintf "checkpoint gen %d (sv %d)" e.fe_a e.fe_b
  | Pager_miss -> Printf.sprintf "pager_miss block %d" e.fe_a
  | Pager_writeback -> Printf.sprintf "pager_writeback block %d" e.fe_a
  | Recluster_slice -> Printf.sprintf "recluster_slice %d moves" e.fe_a
  | Net_accept -> Printf.sprintf "net_accept (%d conns)" e.fe_a
  | Net_verb -> Printf.sprintf "net_verb %s %dus (req %d)" e.fe_detail e.fe_a e.fe_b
  | Net_error -> Printf.sprintf "net_error %s (req %d)" e.fe_detail e.fe_a
  | Schema_delta -> Printf.sprintf "schema_delta %s (v%d)" e.fe_detail e.fe_a
  | Watchdog -> Printf.sprintf "watchdog trip #%d: %s" e.fe_a e.fe_detail
  | Note -> Printf.sprintf "note %s" e.fe_detail
  | Span -> Printf.sprintf "span %s %dus (%d)" e.fe_detail (e.fe_a / 1000) e.fe_b

let merged_events (dump : Flight.dump) =
  List.concat_map
    (fun (s : Flight.section) ->
      List.map (fun e -> (e.Flight.fe_ts_ns, s.Flight.fs_name, e)) s.Flight.fs_events)
    dump.Flight.d_sections
  |> List.stable_sort (fun (t1, n1, _) (t2, n2, _) ->
         match Int64.compare t1 t2 with 0 -> String.compare n1 n2 | c -> c)

let utc_of_us us =
  let t = Unix.gmtime (Int64.to_float us /. 1e6) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
    t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

let render ?limit r =
  let buf = Buffer.create 4096 in
  let dump = r.r_dump in
  let events = merged_events dump in
  let total = List.length events in
  Buffer.add_string buf
    (Printf.sprintf "flight dump taken %s — %d domains, %d events\n" (utc_of_us dump.Flight.d_wall_us)
       (List.length dump.Flight.d_sections)
       total);
  List.iter
    (fun (s : Flight.section) ->
      Buffer.add_string buf
        (Printf.sprintf "  domain %-12s %d of %d events retained\n" s.Flight.fs_name
           (List.length s.Flight.fs_events)
           s.Flight.fs_total))
    dump.Flight.d_sections;
  Buffer.add_string buf "\ntimeline (ms since first retained event):\n";
  let shown, skipped =
    match limit with
    | Some l when total > l ->
      let rec drop n xs = if n <= 0 then xs else match xs with [] -> [] | _ :: t -> drop (n - 1) t in
      (drop (total - l) events, total - l)
    | _ -> (events, 0)
  in
  if skipped > 0 then Buffer.add_string buf (Printf.sprintf "  ... %d older events elided ...\n" skipped);
  (match events with
  | [] -> Buffer.add_string buf "  (no events)\n"
  | (t0, _, _) :: _ ->
    List.iter
      (fun (ts, name, e) ->
        let rel_ms = Int64.to_float (Int64.sub ts t0) *. 1e-6 in
        Buffer.add_string buf
          (Printf.sprintf "  +%10.3f  [%-10s]  %s\n" rel_ms name (describe_event e)))
      shown);
  Buffer.add_string buf "\nverdict:\n";
  Buffer.add_string buf
    (Printf.sprintf "  last committed version (flight) : %s\n"
       (if r.r_last_commit = 0 then "none" else Printf.sprintf "v%d" r.r_last_commit));
  Buffer.add_string buf
    (Printf.sprintf "  last attempted commit (flight)  : %s\n"
       (if r.r_last_attempt = 0 then "none" else Printf.sprintf "v%d" r.r_last_attempt));
  (match r.r_wal with
  | None -> Buffer.add_string buf "  wal                             : not inspected\n"
  | Some w ->
    Buffer.add_string buf
      (Printf.sprintf
         "  wal                             : generation %d, schema version %d, %d intact records%s%s\n"
         w.dw_generation w.dw_schema_version w.dw_records
         (if w.dw_torn then ", torn tail discarded" else "")
         (if w.dw_undecodable > 0 then Printf.sprintf ", %d UNDECODABLE" w.dw_undecodable else ""));
    Buffer.add_string buf
      (Printf.sprintf "  wal ops                         : %d data, %d schema\n" w.dw_data_ops
         w.dw_schema_ops);
    Buffer.add_string buf
      (Printf.sprintf "  last durable version            : checkpoint base + %d records\n" w.dw_records);
    if r.r_last_attempt > 0 && r.r_last_attempt > w.dw_records then
      Buffer.add_string buf
        (Printf.sprintf "  => attempted v%d never became durable (WAL stops at record %d)\n"
           r.r_last_attempt w.dw_records));
  (match r.r_open_txns with
  | [] -> Buffer.add_string buf "  in-flight at dump               : none\n"
  | open_txns ->
    Buffer.add_string buf "  in-flight at dump:\n";
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf (Printf.sprintf "    %s: txn v%d open\n" name v))
      open_txns);
  Buffer.contents buf

let render_json r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "{\"wall_us\":%Ld,\"domains\":%d,\"events\":%d,\"last_commit\":%d,\"last_attempt\":%d"
       r.r_dump.Flight.d_wall_us
       (List.length r.r_dump.Flight.d_sections)
       (List.fold_left (fun acc (s : Flight.section) -> acc + List.length s.Flight.fs_events) 0
          r.r_dump.Flight.d_sections)
       r.r_last_commit r.r_last_attempt);
  Buffer.add_string buf ",\"open_txns\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%d" (Flight.json_escape name) v))
    r.r_open_txns;
  Buffer.add_string buf "},\"spans\":[";
  List.iteri
    (fun i (_, domain, (e : Flight.event)) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"domain\":\"%s\",\"name\":\"%s\",\"us\":%d,\"count\":%d}"
           (Flight.json_escape domain) (Flight.json_escape e.Flight.fe_detail) (e.Flight.fe_a / 1000)
           e.Flight.fe_b))
    (List.filter (fun (_, _, e) -> e.Flight.fe_kind = Flight.Span) (merged_events r.r_dump));
  Buffer.add_char buf ']';
  (match r.r_wal with
  | None -> Buffer.add_string buf ",\"wal\":null"
  | Some w ->
    Buffer.add_string buf
      (Printf.sprintf
         ",\"wal\":{\"generation\":%d,\"schema_version\":%d,\"records\":%d,\"torn\":%b,\"undecodable\":%d,\"data_ops\":%d,\"schema_ops\":%d}"
         w.dw_generation w.dw_schema_version w.dw_records w.dw_torn w.dw_undecodable w.dw_data_ops
         w.dw_schema_ops));
  (match r.r_last_durable with
  | None -> Buffer.add_string buf ",\"last_durable\":null"
  | Some d -> Buffer.add_string buf (Printf.sprintf ",\"last_durable\":%d" d));
  Buffer.add_string buf "}";
  Buffer.contents buf
