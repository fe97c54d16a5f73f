(* Observability layer tests: Chrome export of flight dumps,
   log-bucketed histograms, the propagation profile's at-most-once
   accounting, and the end-to-end wiring through Db. *)

module Histogram = Cactis_obs.Histogram
module Profile = Cactis_obs.Profile
module Ctx = Cactis_obs.Ctx
module Clock = Cactis_obs.Clock
module Flight = Cactis_obs.Flight
module Metrics = Cactis_obs.Metrics
module Slowlog = Cactis_obs.Slowlog
module Watchdog = Cactis_obs.Watchdog
module Counters = Cactis_util.Counters
module Value = Cactis.Value
module Schema = Cactis.Schema
module Rule = Cactis.Rule
module Db = Cactis.Db
module Persist = Cactis.Persist
module Doctor = Cactis.Doctor

let int n = Value.Int n

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---- Chrome trace export ---- *)

let sole_section (d : Flight.dump) =
  match d.Flight.d_sections with
  | [ s ] -> s
  | ss -> Alcotest.failf "expected one section, got %d" (List.length ss)

let count_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc else go (i + 1) (if String.sub hay i nn = needle then acc + 1 else acc)
  in
  go 0 0

let test_chrome_json_shape () =
  let ev ts kind a b detail =
    { Flight.fe_ts_ns = ts; fe_kind = kind; fe_a = a; fe_b = b; fe_detail = detail }
  in
  let dump =
    {
      Flight.d_wall_us = 0L;
      d_mono_ns = 0L;
      d_sections =
        [
          {
            Flight.fs_domain = 1;
            fs_name = "writer";
            fs_total = 6;
            fs_events =
              [
                ev 1_000_000L Flight.Txn_begin 3 0 "";
                ev 1_500_000L Flight.Span 400_000 7 "mark_wave";
                ev 1_600_000L Flight.Wal_append 64 1 "";
                ev 2_000_000L Flight.Txn_commit 3 2 "";
                ev 2_100_000L Flight.Note 0 0 "q\"uote\\";
                ev 2_200_000L Flight.Txn_begin 4 0 "";
              ];
          };
          {
            Flight.fs_domain = 2;
            fs_name = "frontend";
            fs_total = 1;
            fs_events = [ ev 1_800_000L Flight.Net_verb 250 9 "read" ];
          };
        ];
    }
  in
  let json = Flight.to_chrome_json dump in
  let has needle = contains json needle in
  Alcotest.(check bool) "traceEvents wrapper" true (has "\"traceEvents\"");
  Alcotest.(check int) "one thread_name per section" 2 (count_sub json "\"thread_name\"");
  Alcotest.(check bool) "span is X with dur" true
    (has "\"name\":\"mark_wave\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":100.000,\"dur\":400.000");
  Alcotest.(check bool) "span count arg" true (has "\"count\":7");
  Alcotest.(check bool) "net verb is X with dur" true
    (has "\"name\":\"read\",\"cat\":\"net\",\"ph\":\"X\",\"ts\":550.000,\"dur\":250.000");
  Alcotest.(check bool) "net verb req arg" true (has "\"req\":9");
  Alcotest.(check bool) "begin/commit paired into a txn span" true
    (has "\"name\":\"txn\",\"cat\":\"txn\",\"ph\":\"X\",\"ts\":0.000,\"dur\":1000.000");
  Alcotest.(check bool) "txn args" true (has "\"v\":3,\"end\":\"txn_commit\",\"ops\":2");
  Alcotest.(check bool) "other kinds are instants" true
    (has "\"name\":\"wal_append\",\"cat\":\"flight\",\"ph\":\"i\"");
  Alcotest.(check bool) "instant args" true (has "\"a\":64,\"b\":1,\"detail\":\"\"");
  Alcotest.(check bool) "detail escaped" true (has "\"detail\":\"q\\\"uote\\\\\"");
  Alcotest.(check int) "only the unclosed begin stays an instant" 1
    (count_sub json "\"name\":\"txn_begin\"");
  Alcotest.(check int) "paired commit is not an instant" 0
    (count_sub json "\"name\":\"txn_commit\"")

(* ---- Histogram ---- *)

let test_histogram_quantiles () =
  let reg = Histogram.create () in
  let h = Histogram.cell reg "latency" in
  (* 90 fast observations around 2us, 10 slow around 1ms. *)
  for _ = 1 to 90 do
    Histogram.observe h 2e-6
  done;
  for _ = 1 to 10 do
    Histogram.observe h 1e-3
  done;
  Alcotest.(check int) "count" 100 (Histogram.count h);
  let p50 = Histogram.quantile h 0.5 and p99 = Histogram.quantile h 0.99 in
  Alcotest.(check bool) "p50 in the fast bucket" true (p50 < 1e-4);
  Alcotest.(check bool) "p99 in the slow bucket" true (p99 > 1e-4);
  let st = Histogram.stats "latency" h in
  Alcotest.(check bool) "max is exact" true (st.Histogram.st_max = 1e-3);
  Alcotest.(check bool) "quantiles clamp at max" true (st.Histogram.st_p99 <= st.Histogram.st_max)

let test_histogram_snapshot_and_reset () =
  let reg = Histogram.create () in
  let h = Histogram.cell reg "b" in
  Histogram.observe h 1e-5;
  Histogram.observe_named reg "a" 2e-5;
  ignore (Histogram.cell reg "never_observed");
  Alcotest.(check (list string))
    "non-empty only, sorted" [ "a"; "b" ]
    (List.map (fun st -> st.Histogram.st_name) (Histogram.snapshot reg));
  Histogram.reset reg;
  Alcotest.(check (list string)) "reset empties" []
    (List.map (fun st -> st.Histogram.st_name) (Histogram.snapshot reg));
  (* Cached cells survive a reset. *)
  Histogram.observe h 1e-5;
  Alcotest.(check int) "cached cell still live" 1 (Histogram.count h)

let test_ctx_time_observes_on_raise () =
  Flight.reset ();
  let ctx = Ctx.create () in
  let h = Histogram.cell ctx.Ctx.hists "op" in
  (try Ctx.time ~h "op" ~count:(fun () -> 5) (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "histogram fed" 1 (Histogram.count h);
  match (sole_section (Flight.snapshot ())).Flight.fs_events with
  | [ e ] ->
    Alcotest.(check string) "span recorded" "span" (Flight.kind_name e.Flight.fe_kind);
    Alcotest.(check string) "site name" "op" e.Flight.fe_detail;
    Alcotest.(check int) "count" 5 e.Flight.fe_b;
    Alcotest.(check bool) "duration non-negative" true (e.Flight.fe_a >= 0)
  | evs -> Alcotest.failf "expected one span, got %d events" (List.length evs)

(* ---- Domain safety (per-domain shards, merge-on-read) ---- *)

let test_counters_multi_domain_hammer () =
  let module Counters = Cactis_util.Counters in
  let c = Counters.create () in
  let domains = 4 and per_domain = 50_000 in
  let workers =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            (* Each domain hammers a shared name through its own cached
               cell plus the cold [incr] path. *)
            let r = Counters.cell c "hits" in
            for _ = 1 to per_domain do
              Stdlib.incr r
            done;
            Counters.add c "per_domain" 1;
            Counters.incr c (Printf.sprintf "domain_%d" d)))
  in
  Array.iter Domain.join workers;
  Alcotest.(check int) "no lost increments" (domains * per_domain) (Counters.get c "hits");
  Alcotest.(check int) "adds merged" domains (Counters.get c "per_domain");
  for d = 0 to domains - 1 do
    Alcotest.(check int) "per-domain name" 1 (Counters.get c (Printf.sprintf "domain_%d" d))
  done;
  (* Merge-on-read snapshots must diff cleanly in both directions
     (Counters.diff reports before-only names as negative deltas). *)
  let before = Counters.snapshot c in
  Counters.incr c "hits";
  let after = Counters.snapshot c in
  Alcotest.(check (list (pair string int)))
    "diff sees the merged increase"
    [ ("hits", 1) ]
    (List.filter (fun (_, v) -> v <> 0) (Counters.diff ~before ~after));
  Alcotest.(check (list (pair string int)))
    "reverse diff is the negation"
    [ ("hits", -1) ]
    (List.filter (fun (_, v) -> v <> 0) (Counters.diff ~before:after ~after:before));
  Counters.reset c;
  Alcotest.(check int) "reset zeroes all shards" 0 (Counters.get c "hits")

let test_histogram_multi_domain_hammer () =
  let reg = Histogram.create () in
  let domains = 4 and per_domain = 20_000 in
  let workers =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            let h = Histogram.cell reg "lat" in
            for i = 1 to per_domain do
              (* Spread observations across buckets; one domain owns the
                 global maximum so the merged max is checkable. *)
              Histogram.observe h (float_of_int (1 + (i mod 64)) *. 1e-6)
            done;
            if d = 0 then Histogram.observe h 1.0))
  in
  Array.iter Domain.join workers;
  match Histogram.snapshot reg with
  | [ st ] ->
    Alcotest.(check string) "name" "lat" st.Histogram.st_name;
    Alcotest.(check int) "no lost observations" ((domains * per_domain) + 1) st.Histogram.st_count;
    Alcotest.(check (float 1e-9)) "merged max" 1.0 st.Histogram.st_max;
    Alcotest.(check bool) "p99 below max" true (st.Histogram.st_p99 <= st.Histogram.st_max);
    Histogram.reset reg;
    Alcotest.(check int) "reset zeroes all shards" 0
      (List.length (Histogram.snapshot reg))
  | other -> Alcotest.failf "expected one merged histogram, got %d" (List.length other)

(* ---- Profile ---- *)

let test_profile_at_most_once () =
  let p = Profile.create () in
  Profile.on_mark p ~key:1;
  Profile.on_mark p ~key:2;
  Profile.on_edge p;
  Profile.on_edge p;
  Profile.on_edge p;
  Profile.on_cutoff p;
  Profile.on_eval p ~key:1;
  Profile.on_eval p ~key:2;
  let s = Profile.snapshot p in
  Alcotest.(check int) "marked" 2 s.Profile.p_nodes_marked;
  Alcotest.(check int) "edges" 3 s.Profile.p_edges_walked;
  Alcotest.(check int) "cutoffs" 1 s.Profile.p_cutoffs;
  Alcotest.(check int) "evals" 2 s.Profile.p_evals;
  Alcotest.(check int) "distinct" 2 s.Profile.p_distinct_evaluated;
  Alcotest.(check bool) "invariant holds" true (Profile.at_most_once s);
  Alcotest.(check int) "bound = nodes+edges" 5 s.Profile.p_bound;
  Alcotest.(check int) "work = marks+cutoffs+evals" 5 s.Profile.p_work

let test_profile_detects_double_eval () =
  let p = Profile.create () in
  Profile.on_eval p ~key:7;
  Profile.on_eval p ~key:7;
  Alcotest.(check bool) "double eval flagged" false (Profile.at_most_once (Profile.snapshot p))

let test_profile_remark_permits_reeval () =
  let p = Profile.create () in
  Profile.on_eval p ~key:7;
  (* An invalidation between the two evaluations makes the second one
     legitimate (recovery actions do this). *)
  Profile.on_mark p ~key:7;
  Profile.on_eval p ~key:7;
  let s = Profile.snapshot p in
  Alcotest.(check bool) "re-marked eval is legitimate" true (Profile.at_most_once s);
  Alcotest.(check int) "both evals counted" 2 s.Profile.p_evals;
  Alcotest.(check int) "one distinct attr" 1 s.Profile.p_distinct_evaluated

(* ---- End-to-end through Db ---- *)

let diamond_schema () =
  (* top depends on left and right, which both depend on base: the
     diamond that makes naive triggers evaluate top twice. *)
  let sch = Schema.create () in
  Schema.add_type sch "node";
  Schema.declare_relationship sch ~from_type:"node" ~rel:"deps" ~to_type:"node" ~inverse:"rdeps"
    ~card:Schema.Multi ~inverse_card:Schema.Multi;
  Schema.add_attr sch ~type_name:"node" (Rule.intrinsic "local" (int 1));
  Schema.add_attr sch ~type_name:"node"
    (Rule.derived "total"
       (Rule.combine_self_rel "local" "deps" "total" ~f:(fun local totals ->
            Value.add local (Value.sum totals))));
  sch

let diamond db =
  let n () = Db.create_instance db "node" in
  let top = n () and left = n () and right = n () and base = n () in
  Db.link db ~from_id:top ~rel:"deps" ~to_id:left;
  Db.link db ~from_id:top ~rel:"deps" ~to_id:right;
  Db.link db ~from_id:left ~rel:"deps" ~to_id:base;
  Db.link db ~from_id:right ~rel:"deps" ~to_id:base;
  (top, base)

let test_db_profile_on_diamond () =
  let db = Db.create (diamond_schema ()) in
  let top, base = diamond db in
  Alcotest.(check string) "diamond total" "5" (Value.to_string (Db.get db top "total"));
  Db.set_profiling db true;
  Db.begin_txn db;
  Db.set db base "local" (int 10);
  Db.commit db;
  let s = match Db.last_profile db with Some s -> s | None -> Alcotest.fail "no profile" in
  Alcotest.(check bool) "marks happened" true (s.Profile.p_nodes_marked > 0);
  Alcotest.(check bool) "evals happened" true (s.Profile.p_evals > 0);
  Alcotest.(check bool) "at most once on the diamond" true (Profile.at_most_once s);
  Alcotest.(check bool) "work within constant of bound" true
    (Profile.work_ratio s <= 2.0);
  (* The profile is per-commit: an unprofiled commit leaves the last
     snapshot in place, a profiled one replaces it. *)
  Db.set_profiling db false;
  Db.begin_txn db;
  Db.set db base "local" (int 11);
  Db.commit db;
  Alcotest.(check bool) "snapshot kept" true (Db.last_profile db = Some s)

let test_db_tracing_and_histograms () =
  let db = Db.create (diamond_schema ()) in
  let top, base = diamond db in
  ignore (Db.get db top "total");
  Flight.reset ();
  Db.begin_txn db;
  Db.set db base "local" (int 3);
  Db.commit db;
  let names =
    List.map
      (fun (e : Flight.event) ->
        match e.Flight.fe_kind with
        | Flight.Span -> e.Flight.fe_detail
        | k -> Flight.kind_name k)
      (sole_section (Flight.snapshot ())).Flight.fs_events
  in
  Alcotest.(check bool) "txn_begin event" true (List.mem "txn_begin" names);
  Alcotest.(check bool) "mark wave span" true (List.mem "mark_wave" names);
  Alcotest.(check bool) "txn_commit event" true (List.mem "txn_commit" names);
  let hists = Histogram.snapshot (Db.obs db).Cactis_obs.Ctx.hists in
  let hnames = List.map (fun st -> st.Histogram.st_name) hists in
  Alcotest.(check bool) "commit histogram" true (List.mem "commit" hnames);
  Alcotest.(check bool) "mark_wave histogram" true (List.mem "mark_wave" hnames)

(* ---- Flight recorder ---- *)

let test_flight_wraparound () =
  Flight.reset ();
  let n = Flight.capacity + 100 in
  for i = 1 to n do
    Flight.record Flight.Note ~a:i ~b:0
  done;
  let s = sole_section (Flight.snapshot ()) in
  Alcotest.(check int) "total counts every record" n s.Flight.fs_total;
  let events = s.Flight.fs_events in
  Alcotest.(check bool) "retained at most capacity" true
    (List.length events <= Flight.capacity);
  Alcotest.(check bool) "retained most of capacity" true
    (List.length events >= Flight.capacity - 1);
  (match List.rev events with
  | last :: _ -> Alcotest.(check int) "newest survives the wrap" n last.Flight.fe_a
  | [] -> Alcotest.fail "no events retained");
  (* Oldest-first, contiguous: the wrap dropped a prefix, nothing else. *)
  ignore
    (List.fold_left
       (fun prev (e : Flight.event) ->
         (match prev with
         | Some p -> Alcotest.(check int) "contiguous run" (p + 1) e.Flight.fe_a
         | None -> ());
         Some e.Flight.fe_a)
       None events)

let test_flight_roundtrip () =
  Flight.reset ();
  Flight.name_domain "main";
  Flight.record Flight.Txn_begin ~a:1 ~b:0;
  Flight.record Flight.Txn_commit ~a:1 ~b:3;
  Flight.record_s Flight.Net_verb ~a:1500 ~b:7 "read";
  Flight.record_s Flight.Schema_delta ~a:2 ~b:0 "add_type";
  Flight.note "marker";
  let now = Clock.now_ns () in
  Flight.span "eval_wave" ~start_ns:(Int64.sub now 2_000L) ~end_ns:now 4;
  let d = Flight.snapshot () in
  Alcotest.(check string) "span recorded last" "span"
    (match List.rev (sole_section d).Flight.fs_events with
    | e :: _ -> Flight.kind_name e.Flight.fe_kind
    | [] -> "none");
  match Flight.decode (Flight.encode d) with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok d' ->
    Alcotest.(check int64) "wall clock survives" d.Flight.d_wall_us d'.Flight.d_wall_us;
    Alcotest.(check int64) "mono clock survives" d.Flight.d_mono_ns d'.Flight.d_mono_ns;
    let s = sole_section d and s' = sole_section d' in
    Alcotest.(check string) "domain name survives" s.Flight.fs_name s'.Flight.fs_name;
    Alcotest.(check int) "total survives" s.Flight.fs_total s'.Flight.fs_total;
    Alcotest.(check (list string))
      "kinds survive"
      (List.map (fun e -> Flight.kind_name e.Flight.fe_kind) s.Flight.fs_events)
      (List.map (fun e -> Flight.kind_name e.Flight.fe_kind) s'.Flight.fs_events);
    List.iter2
      (fun (e : Flight.event) (e' : Flight.event) ->
        Alcotest.(check int64) "ts survives" e.Flight.fe_ts_ns e'.Flight.fe_ts_ns;
        Alcotest.(check int) "a survives" e.Flight.fe_a e'.Flight.fe_a;
        Alcotest.(check int) "b survives" e.Flight.fe_b e'.Flight.fe_b;
        Alcotest.(check string) "detail survives" e.Flight.fe_detail e'.Flight.fe_detail)
      s.Flight.fs_events s'.Flight.fs_events

(* A dump written before the Span kind existed, one event of each of
   the 15 kinds it knew, must decode and re-encode to the same bytes;
   the golden renders it with one Span added. *)
let test_flight_cfr1_fixture () =
  let raw = read_file "fixtures/obs/flight_cfr1.cfr" in
  let d = match Flight.decode raw with Ok d -> d | Error m -> Alcotest.failf "fixture: %s" m in
  Alcotest.(check bool) "re-encodes byte-for-byte" true (Flight.encode d = raw);
  let kinds =
    List.concat_map
      (fun (s : Flight.section) ->
        List.map (fun e -> Flight.kind_name e.Flight.fe_kind) s.Flight.fs_events)
      d.Flight.d_sections
  in
  Alcotest.(check int) "one event of each kind" 15 (List.length (List.sort_uniq compare kinds));
  let with_span =
    {
      d with
      Flight.d_sections =
        List.map
          (fun (s : Flight.section) ->
            if s.Flight.fs_name <> "writer" then s
            else
              {
                s with
                Flight.fs_total = s.Flight.fs_total + 1;
                fs_events =
                  s.Flight.fs_events
                  @ [
                      {
                        Flight.fe_ts_ns = 1_000_950_000L;
                        fe_kind = Flight.Span;
                        fe_a = 850_000;
                        fe_b = 3;
                        fe_detail = "eval_wave";
                      };
                    ];
              })
          d.Flight.d_sections;
    }
  in
  let d' =
    match Flight.decode (Flight.encode with_span) with
    | Ok d -> d
    | Error m -> Alcotest.failf "span dump: %s" m
  in
  let report = Doctor.analyze d' in
  Alcotest.(check string) "golden timeline"
    (read_file "fixtures/obs/flight_cfr1_golden.txt")
    (Doctor.render report);
  Alcotest.(check bool) "span in the JSON verdict" true
    (contains (Doctor.render_json report)
       "\"spans\":[{\"domain\":\"writer\",\"name\":\"eval_wave\",\"us\":850,\"count\":3}]")

let test_flight_decode_rejects_garbage () =
  (match Flight.decode "not a dump" with
  | Ok _ -> Alcotest.fail "garbage decoded"
  | Error _ -> ());
  let good = Flight.encode (Flight.snapshot ()) in
  match Flight.decode (String.sub good 0 (String.length good - 3)) with
  | Ok _ -> Alcotest.fail "truncated dump decoded"
  | Error _ -> ()

(* The tentpole consistency claim: snapshots taken while other domains
   record see, per domain, a contiguous oldest-first run with no torn
   or reordered events. *)
let test_flight_snapshot_while_recording () =
  Flight.reset ();
  let per_domain = 30_000 in
  let writers = 3 in
  let workers =
    Array.init writers (fun d ->
        Domain.spawn (fun () ->
            Flight.name_domain (Printf.sprintf "hammer-%d" d);
            for i = 1 to per_domain do
              Flight.record Flight.Note ~a:i ~b:d
            done))
  in
  for _ = 1 to 25 do
    let d = Flight.snapshot () in
    List.iter
      (fun (s : Flight.section) ->
        Alcotest.(check bool) "within capacity" true
          (List.length s.Flight.fs_events <= Flight.capacity);
        ignore
          (List.fold_left
             (fun prev (e : Flight.event) ->
               (match prev with
               | Some p ->
                 if e.Flight.fe_a <> p + 1 then
                   Alcotest.failf "torn snapshot: %d then %d" p e.Flight.fe_a
               | None -> ());
               Some e.Flight.fe_a)
             None s.Flight.fs_events))
      d.Flight.d_sections
  done;
  Array.iter Domain.join workers;
  let d = Flight.snapshot () in
  Alcotest.(check int) "all rings present" writers (List.length d.Flight.d_sections);
  List.iter
    (fun (s : Flight.section) ->
      Alcotest.(check int) "nothing lost" per_domain s.Flight.fs_total;
      match List.rev s.Flight.fs_events with
      | last :: _ -> Alcotest.(check int) "last record retained" per_domain last.Flight.fe_a
      | [] -> Alcotest.fail "empty section")
    d.Flight.d_sections

let test_flight_recording_switch () =
  Flight.reset ();
  Flight.record Flight.Note ~a:1 ~b:0;
  Flight.set_recording false;
  Flight.record Flight.Note ~a:2 ~b:0;
  Flight.set_recording true;
  Flight.record Flight.Note ~a:3 ~b:0;
  let s = sole_section (Flight.snapshot ()) in
  Alcotest.(check (list int))
    "suppressed window recorded nothing" [ 1; 3 ]
    (List.map (fun e -> e.Flight.fe_a) s.Flight.fs_events)

(* Ring slots are unboxed int columns: a record stores five words and
   bumps the index, allocating nothing (the timestamp included). *)
let test_flight_record_allocation_free () =
  Flight.reset ();
  let record_all () =
    for k = 0 to 9_999 do
      Flight.record Flight.Pager_miss ~a:k ~b:(k + 1)
    done
  in
  let before = Gc.minor_words () in
  record_all ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "10k records allocate %.0f words" words)
    true (words <= 16.);
  let s = sole_section (Flight.snapshot ()) in
  Alcotest.(check int) "all counted" 10_000 s.Flight.fs_total;
  Alcotest.(check int) "newest kept" 9_999 (List.hd (List.rev s.Flight.fs_events)).Flight.fe_a;
  Flight.reset ()

(* ---- Histogram exactness and error bound ---- *)

let test_histogram_sum_count_exact () =
  let reg = Histogram.create () in
  let h = Histogram.cell reg "lat" in
  let values = [ 1e-6; 3e-5; 4.2e-4; 0.011; 0.25; 1.75 ] in
  List.iter (Histogram.observe h) values;
  Alcotest.(check int) "count exact" (List.length values) (Histogram.count h);
  Alcotest.(check (float 1e-12)) "sum exact" (List.fold_left ( +. ) 0.0 values) (Histogram.sum h);
  Alcotest.(check (float 1e-12)) "max exact" 1.75 (Histogram.max_value h)

(* Log2 buckets promise relative error <= sqrt 2 on any quantile: for a
   single observation v, the reconstructed median is the geometric
   bucket midpoint clamped by the exact max, so it lands in
   [v/sqrt 2, v].  Pinned across nine orders of magnitude. *)
let test_histogram_error_bound () =
  let check_value v =
    let reg = Histogram.create () in
    let h = Histogram.cell reg "one" in
    Histogram.observe h v;
    let q = Histogram.quantile h 0.5 in
    if q > v +. 1e-15 then Alcotest.failf "q50 %g above exact value %g" q v;
    if q < (v /. sqrt 2.0) -. 1e-15 then
      Alcotest.failf "q50 %g below %g / sqrt 2 (relative error > sqrt 2)" q v
  in
  List.iter check_value
    [ 1e-6; 2.5e-6; 7e-6; 1e-5; 9e-5; 1.3e-4; 1e-3; 0.02; 0.6; 1.0; 5.0; 60.0; 900.0 ]

(* ---- OpenMetrics exposition ---- *)

let sample_registry () =
  let ctrs = Counters.create () in
  Counters.add ctrs "server.req.read" 7;
  Counters.add ctrs "server.req.commit" 3;
  Counters.add ctrs "server.error.type_error" 1;
  let lats = Histogram.create () in
  let h = Histogram.cell lats "serve.read" in
  List.iter (Histogram.observe h) [ 1e-5; 2e-5; 4e-4; 0.01 ];
  Histogram.observe (Histogram.cell lats "serve.commit") 3e-4;
  (Counters.snapshot ctrs, Histogram.merged_cells lats)

let test_metrics_render_passes_lint () =
  let counters, hists = sample_registry () in
  let text = Metrics.render ~counters ~hists in
  (match Metrics.lint text with
  | [] -> ()
  | errors -> Alcotest.failf "self-lint failed:\n%s" (String.concat "\n" errors));
  let has needle = contains text needle in
  Alcotest.(check bool) "counter family" true (has "# TYPE cactis_server_req_read counter");
  Alcotest.(check bool) "counter sample" true (has "cactis_server_req_read_total 7");
  Alcotest.(check bool) "histogram family" true
    (has "# TYPE cactis_serve_read_seconds histogram");
  Alcotest.(check bool) "+Inf bucket" true (has "cactis_serve_read_seconds_bucket{le=\"+Inf\"} 4");
  Alcotest.(check bool) "exact count" true (has "cactis_serve_read_seconds_count 4");
  Alcotest.(check bool) "sum present" true (has "cactis_serve_read_seconds_sum ");
  Alcotest.(check bool) "EOF terminated" true
    (String.length text >= 6 && String.sub text (String.length text - 6) 6 = "# EOF\n")

let test_metrics_name_collision_sums () =
  (* "a.b" and "a:b"? no — both sanitize differently; "a.b" and "a b"
     both become a_b and must merge into one counter. *)
  let text = Metrics.render ~counters:[ ("a.b", 2); ("a b", 3) ] ~hists:[] in
  (match Metrics.lint text with
  | [] -> ()
  | errors -> Alcotest.failf "collision lint failed:\n%s" (String.concat "\n" errors));
  let has needle = contains text needle in
  Alcotest.(check bool) "collided counters summed" true (has "cactis_a_b_total 5")

let test_metrics_lint_rejects () =
  let reject label text =
    match Metrics.lint text with
    | [] -> Alcotest.failf "%s: lint accepted invalid exposition" label
    | _ -> ()
  in
  reject "missing EOF" "# TYPE cactis_x counter\ncactis_x_total 1\n";
  reject "no final newline" "# TYPE cactis_x counter\ncactis_x_total 1\n# EOF";
  reject "bad suffix for counter" "# TYPE cactis_x counter\ncactis_x_sum 1\n# EOF\n";
  reject "duplicate TYPE"
    "# TYPE cactis_x counter\ncactis_x_total 1\n# TYPE cactis_x counter\ncactis_x_total 2\n# EOF\n";
  reject "non-cumulative buckets"
    "# TYPE cactis_h histogram\n\
     cactis_h_bucket{le=\"0.1\"} 5\n\
     cactis_h_bucket{le=\"1\"} 3\n\
     cactis_h_bucket{le=\"+Inf\"} 5\n\
     cactis_h_sum 1\ncactis_h_count 5\n# EOF\n";
  reject "missing +Inf bucket"
    "# TYPE cactis_h histogram\n\
     cactis_h_bucket{le=\"0.1\"} 5\ncactis_h_sum 1\ncactis_h_count 5\n# EOF\n";
  reject "+Inf disagrees with count"
    "# TYPE cactis_h histogram\n\
     cactis_h_bucket{le=\"+Inf\"} 4\ncactis_h_sum 1\ncactis_h_count 5\n# EOF\n";
  reject "interleaved families"
    "# TYPE cactis_a counter\n# TYPE cactis_b counter\n\
     cactis_a_total 1\ncactis_b_total 1\ncactis_a_total 2\n# EOF\n";
  reject "unparseable sample" "# TYPE cactis_x counter\ncactis_x_total banana\n# EOF\n"

(* ---- Slow-op log ---- *)

let slow_records =
  [
    (* Under the 100 ms default deadline: never logged. *)
    {
      Slowlog.sr_wall_us = 1_700_000_000_000_000L;
      sr_verb = "read";
      sr_dur_s = 0.012;
      sr_deadline_s = 0.0;
      sr_span = 6;
      sr_req = 41;
      sr_version = 9;
      sr_domain = "reader-0";
      sr_pager_hits = 2;
      sr_pager_misses = 0;
    };
    {
      Slowlog.sr_wall_us = 1_700_000_000_100_000L;
      sr_verb = "read";
      sr_dur_s = 0.25;
      sr_deadline_s = 0.0;
      sr_span = 7;
      sr_req = 42;
      sr_version = 9;
      sr_domain = "reader-0";
      sr_pager_hits = 10;
      sr_pager_misses = 3;
    };
    (* Slower than the default but the per-verb commit deadline is what
       gets stamped into the line. *)
    {
      Slowlog.sr_wall_us = 1_700_000_000_200_000L;
      sr_verb = "commit";
      sr_dur_s = 0.3;
      sr_deadline_s = 0.0;
      sr_span = 8;
      sr_req = 43;
      sr_version = 10;
      sr_domain = "writer";
      sr_pager_hits = 0;
      sr_pager_misses = 1;
    };
  ]

let test_slowlog_golden () =
  let lines = ref [] in
  let sl =
    Slowlog.create ~deadline_s:0.1
      ~per_verb:[ ("commit", 0.25) ]
      ~sink:(fun l -> lines := l :: !lines)
      ()
  in
  Alcotest.(check (float 0.0)) "per-verb deadline" 0.25 (Slowlog.deadline_for sl "commit");
  Alcotest.(check (float 0.0)) "default deadline" 0.1 (Slowlog.deadline_for sl "read");
  let verdicts = List.map (Slowlog.observe sl) slow_records in
  Alcotest.(check (list bool)) "only deadline-blowers logged" [ false; true; true ] verdicts;
  Alcotest.(check int) "logged count" 2 (Slowlog.logged sl);
  let got = String.concat "\n" (List.rev !lines) ^ "\n" in
  Alcotest.(check string) "golden JSONL" (read_file "fixtures/obs/slowlog_golden.jsonl") got

(* ---- Watchdog ---- *)

let test_watchdog_p99_regression () =
  let lats = Histogram.create () in
  let h = Histogram.cell lats "serve.read" in
  let trips = ref [] in
  let now = ref 0.0 in
  let wd =
    Watchdog.create ~now:(fun () -> !now)
      { Watchdog.wd_interval_s = 1.0; wd_p99_factor = 4.0; wd_min_count = 50; wd_error_burst = 0 }
      ~lats
      ~errors:(fun () -> 0)
      ~on_trip:(fun ~reason ~detail -> trips := (reason, detail) :: !trips)
  in
  (* Window 1: healthy baseline. *)
  for _ = 1 to 100 do
    Histogram.observe h 1e-5
  done;
  Watchdog.check_now wd;
  Alcotest.(check int) "baseline never trips" 0 (Watchdog.trips wd);
  (* Window 2: 1000x regression. *)
  for _ = 1 to 100 do
    Histogram.observe h 1e-2
  done;
  Watchdog.check_now wd;
  Alcotest.(check int) "regression trips" 1 (Watchdog.trips wd);
  (match !trips with
  | [ (reason, detail) ] ->
    Alcotest.(check string) "reason" "p99-regression" reason;
    Alcotest.(check bool) "detail names the verb" true (contains detail "serve.read")
  | _ -> Alcotest.fail "expected exactly one trip");
  (* Window 3: still slow but no further regression — no re-trip. *)
  for _ = 1 to 100 do
    Histogram.observe h 1e-2
  done;
  Watchdog.check_now wd;
  Alcotest.(check int) "steady state does not re-trip" 1 (Watchdog.trips wd)

let test_watchdog_small_windows_never_judged () =
  let lats = Histogram.create () in
  let h = Histogram.cell lats "serve.read" in
  let trips = ref 0 in
  let wd =
    Watchdog.create ~now:(fun () -> 0.0)
      { Watchdog.wd_interval_s = 1.0; wd_p99_factor = 2.0; wd_min_count = 64; wd_error_burst = 0 }
      ~lats
      ~errors:(fun () -> 0)
      ~on_trip:(fun ~reason:_ ~detail:_ -> incr trips)
  in
  for _ = 1 to 10 do
    Histogram.observe h 1e-5
  done;
  Watchdog.check_now wd;
  for _ = 1 to 10 do
    Histogram.observe h 1.0
  done;
  Watchdog.check_now wd;
  Alcotest.(check int) "10-sample windows below min_count" 0 !trips

let test_watchdog_error_burst () =
  let lats = Histogram.create () in
  let errors = ref 0 in
  let trips = ref [] in
  let wd =
    Watchdog.create ~now:(fun () -> 0.0)
      { Watchdog.wd_interval_s = 1.0; wd_p99_factor = 4.0; wd_min_count = 64; wd_error_burst = 32 }
      ~lats
      ~errors:(fun () -> !errors)
      ~on_trip:(fun ~reason ~detail:_ -> trips := reason :: !trips)
  in
  errors := 10;
  Watchdog.check_now wd;
  Alcotest.(check int) "small burst tolerated" 0 (Watchdog.trips wd);
  errors := 10 + 33;
  Watchdog.check_now wd;
  Alcotest.(check (list string)) "burst trips" [ "error-burst" ] !trips

(* ---- Doctor ---- *)

let golden_dump () =
  let ev ts kind a b detail =
    { Flight.fe_ts_ns = ts; fe_kind = kind; fe_a = a; fe_b = b; fe_detail = detail }
  in
  {
    Flight.d_wall_us = 1_700_000_000_000_000L;
    d_mono_ns = 2_000_000_000L;
    d_sections =
      [
        {
          Flight.fs_domain = 1;
          fs_name = "writer";
          fs_total = 4;
          fs_events =
            [
              ev 1_000_000_000L Flight.Txn_begin 1 0 "";
              ev 1_002_000_000L Flight.Txn_commit 1 2 "";
              ev 1_010_000_000L Flight.Wal_append 64 1 "";
              ev 1_015_000_000L Flight.Txn_begin 2 0 "";
            ];
        };
        {
          Flight.fs_domain = 2;
          fs_name = "frontend";
          fs_total = 2;
          fs_events =
            [
              ev 1_001_000_000L Flight.Net_accept 1 0 "";
              ev 1_012_000_000L Flight.Net_verb 1500 7 "read";
            ];
        };
      ];
  }

let test_doctor_golden_timeline () =
  let report = Doctor.analyze (golden_dump ()) in
  Alcotest.(check int) "last commit" 1 report.Doctor.r_last_commit;
  Alcotest.(check int) "last attempt" 2 report.Doctor.r_last_attempt;
  Alcotest.(check (list (pair string int)))
    "writer holds v2 open"
    [ ("writer", 2) ]
    report.Doctor.r_open_txns;
  Alcotest.(check string) "golden timeline"
    (read_file "fixtures/obs/doctor_golden.txt")
    (Doctor.render report)

let test_doctor_limit_elides () =
  let report = Doctor.analyze (golden_dump ()) in
  let out = Doctor.render ~limit:2 report in
  let has needle = contains out needle in
  Alcotest.(check bool) "elision marker" true (has "4 older events elided");
  Alcotest.(check bool) "newest line kept" true (has "txn_begin v2");
  Alcotest.(check bool) "oldest line dropped" false (has "txn_begin v1")

(* The acceptance scenario: a server-era process crashes with a txn in
   flight; the flight dump plus the WAL tail must reconstruct what was
   durable.  We drive a persistent Db to three durable commits, open a
   fourth txn, dump mid-txn (the "crash"), and check the doctor's
   verdict against what recovery actually replays. *)
let obs_tmp_seq = ref 0

let temp_dir () =
  incr obs_tmp_seq;
  let dir = Printf.sprintf "obs_scratch_%d" !obs_tmp_seq in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

let simple_schema () =
  let sch = Schema.create () in
  Schema.add_type sch "item";
  Schema.add_attr sch ~type_name:"item" (Rule.intrinsic "n" (int 0));
  sch

let test_doctor_crash_matches_recovery () =
  Flight.reset ();
  let dir = temp_dir () in
  let p = Persist.recover ~dir (simple_schema ()) in
  let db = Persist.db p in
  Db.begin_txn db;
  let id = Db.create_instance db "item" in
  Db.commit db;
  Db.begin_txn db;
  Db.set db id "n" (int 1);
  Db.commit db;
  Db.begin_txn db;
  Db.set db id "n" (int 2);
  Db.commit db;
  (* Fourth transaction opened, never committed: the crash window. *)
  Db.begin_txn db;
  Db.set db id "n" (int 99);
  let dump_path = Flight.dump_to_file ~dir ~reason:"test-crash" in
  (* Process "dies" here: no commit, no close. *)
  let dump =
    match Doctor.load dump_path with
    | Ok d -> d
    | Error m -> Alcotest.failf "dump unreadable: %s" m
  in
  let report = Doctor.analyze ~wal_dir:dir dump in
  Alcotest.(check int) "three commits visible in flight" 3 report.Doctor.r_last_commit;
  Alcotest.(check int) "fourth txn attempted" 4 report.Doctor.r_last_attempt;
  Alcotest.(check bool) "open txn attributed" true
    (List.exists (fun (_, v) -> v = 4) report.Doctor.r_open_txns);
  let durable =
    match report.Doctor.r_last_durable with
    | Some d -> d
    | None -> Alcotest.fail "no WAL verdict"
  in
  (* The doctor's durable count must match what recovery replays. *)
  let p2 = Persist.recover ~dir (simple_schema ()) in
  Alcotest.(check int) "doctor verdict = recovery replay" (Persist.replayed p2) durable;
  Alcotest.(check string) "uncommitted write rolled back" "2"
    (Value.to_string (Db.get (Persist.db p2) id "n"));
  Persist.close p2;
  let rendered = Doctor.render report in
  let has needle = contains rendered needle in
  Alcotest.(check bool) "verdict calls out the lost txn" true
    (has "attempted v4 never became durable")

let () =
  Alcotest.run "cactis-obs"
    [
      ("trace", [ Alcotest.test_case "chrome json shape" `Quick test_chrome_json_shape ]);
      ( "histogram",
        [
          Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "snapshot and reset" `Quick test_histogram_snapshot_and_reset;
          Alcotest.test_case "ctx time on raise" `Quick test_ctx_time_observes_on_raise;
        ] );
      ( "domain-safe",
        [
          Alcotest.test_case "counters hammer" `Quick test_counters_multi_domain_hammer;
          Alcotest.test_case "histogram hammer" `Quick test_histogram_multi_domain_hammer;
        ] );
      ( "profile",
        [
          Alcotest.test_case "at most once" `Quick test_profile_at_most_once;
          Alcotest.test_case "double eval detected" `Quick test_profile_detects_double_eval;
          Alcotest.test_case "remark permits re-eval" `Quick test_profile_remark_permits_reeval;
        ] );
      ( "db",
        [
          Alcotest.test_case "profile on diamond" `Quick test_db_profile_on_diamond;
          Alcotest.test_case "tracing and histograms" `Quick test_db_tracing_and_histograms;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring wraps, newest wins" `Quick test_flight_wraparound;
          Alcotest.test_case "CFR1 round-trip" `Quick test_flight_roundtrip;
          Alcotest.test_case "CFR1 fixture stays readable" `Quick test_flight_cfr1_fixture;
          Alcotest.test_case "decode rejects garbage" `Quick test_flight_decode_rejects_garbage;
          Alcotest.test_case "snapshot while recording" `Quick test_flight_snapshot_while_recording;
          Alcotest.test_case "recording switch" `Quick test_flight_recording_switch;
          Alcotest.test_case "record allocates nothing" `Quick test_flight_record_allocation_free;
        ] );
      ( "histogram-exact",
        [
          Alcotest.test_case "sum/count/max exact" `Quick test_histogram_sum_count_exact;
          Alcotest.test_case "log2 error bound" `Quick test_histogram_error_bound;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "render passes own lint" `Quick test_metrics_render_passes_lint;
          Alcotest.test_case "name collisions sum" `Quick test_metrics_name_collision_sums;
          Alcotest.test_case "lint rejects invalid" `Quick test_metrics_lint_rejects;
        ] );
      ( "slowlog",
        [ Alcotest.test_case "golden JSONL" `Quick test_slowlog_golden ] );
      ( "watchdog",
        [
          Alcotest.test_case "p99 regression" `Quick test_watchdog_p99_regression;
          Alcotest.test_case "small windows ignored" `Quick test_watchdog_small_windows_never_judged;
          Alcotest.test_case "error burst" `Quick test_watchdog_error_burst;
        ] );
      ( "doctor",
        [
          Alcotest.test_case "golden timeline" `Quick test_doctor_golden_timeline;
          Alcotest.test_case "limit elides oldest" `Quick test_doctor_limit_elides;
          Alcotest.test_case "crash verdict matches recovery" `Quick
            test_doctor_crash_matches_recovery;
        ] );
    ]
