(* The Cactis benchmark.  See README.md.

   bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
   bash benchmark/run.sh --workload all --repeat N [--out FILE]
   bash benchmark/run.sh compare A.json B.json
   bash benchmark/run.sh smoke

   A single run prints a report and, as its last line, one JSON object:
   correct, attempted, failed, and the metrics with their units
   (end-to-end metrics untraced, per-layer metrics with --trace 1). *)

let usage () =
  prerr_endline
    "usage: main.exe --workload browse|plan_edit|plan_embedded|cold_traverse|all [--seed N] \
     [--seconds S] [--trace 0|1] [--repeat N] [--out FILE]\n\
    \       main.exe compare A.json B.json [--bounds BENCHMARK.json]\n\
    \       main.exe smoke [--bounds BENCHMARK.json]";
  exit 2

(* Full sizes, a 3 s discarded warm-up, and three timed set-ups per
   run whose median is [setup_s]; smoke shrinks them through the record. *)
let config () =
  let trace = Proc.arg "--trace" "0" in
  if trace <> "0" && trace <> "1" then usage ();
  {
    Runner.seed = Proc.arg_int "--seed" 1;
    seconds = float_of_string (Proc.arg "--seconds" "25");
    warmup = 3.0;
    trace = trace = "1";
    setups = 3;
    tiny = false;
    dir = "benchmark/_out";
  }

let workloads () =
  match Proc.arg "--workload" "all" with
  | "all" -> Wl.all
  | s -> ( match Wl.of_string s with Some w -> [ w ] | None -> usage ())

(* ---- several runs: medians and quartiles ---- *)

let summary cfg runs =
  let by_wl =
    List.map
      (fun w ->
        let mine = List.filter_map (fun (w', o) -> if w' = w then Some o else None) runs in
        let names = match mine with o :: _ -> List.map fst o.Runner.metrics | [] -> [] in
        ( Wl.to_string w,
          Json.Obj
            (List.map
               (fun k ->
                 let values = List.map (fun o -> List.assoc k o.Runner.metrics) mine in
                 let q1, q2, q3 = Stats.quartiles values in
                 ( k,
                   Json.Obj
                     [
                       ("unit", Json.Str (Runner.unit_of k)); ("median", Json.Num q2);
                       ("q1", Json.Num q1); ("q3", Json.Num q3);
                       ("values", Json.Arr (List.map (fun v -> Json.Num v) values));
                     ] ))
               names) ))
      (List.sort_uniq compare (List.map fst runs))
  in
  let ok = List.for_all (fun (_, o) -> o.Runner.correct) runs in
  Json.Obj
    [
      ("correct", Json.Bool ok);
      ("attempted", Json.Num (float_of_int (List.fold_left (fun a (_, o) -> a + o.Runner.attempted) 0 runs)));
      ("failed", Json.Num (float_of_int (List.fold_left (fun a (_, o) -> a + o.Runner.failed) 0 runs)));
      ("seed", Json.Num (float_of_int cfg.Runner.seed));
      ("seconds", Json.Num cfg.Runner.seconds);
      ("warmup", Json.Num cfg.Runner.warmup);
      ("trace", Json.Bool cfg.Runner.trace);
      ("cores", Json.Num (float_of_int (Proc.cores ())));
      ("runs", Json.Num (float_of_int (List.length runs)));
      ("results", Json.Obj by_wl);
    ]

let print_summary j =
  print_endline "\nsummary: median [q1, q3] (IQR/median) over the runs";
  List.iter
    (fun (w, metrics) ->
      Printf.printf "%s\n" w;
      match metrics with
      | Json.Obj l ->
        List.iter
          (fun (k, v) ->
            let g f = Json.to_num (Json.member f v) in
            let med = g "median" in
            Printf.printf "  %-32s %14.4f [%.4f, %.4f] %6.1f%% %s\n" k med (g "q1") (g "q3")
              (if med <> 0.0 then (g "q3" -. g "q1") /. Float.abs med *. 100.0 else 0.0)
              (Json.to_str (Json.member "unit" v)))
          l
      | _ -> ())
    (match Json.member "results" j with Json.Obj l -> l | _ -> [])

let run_many cfg ws ~repeat =
  let runs =
    List.concat_map
      (fun rep ->
        List.map
          (fun w ->
            let o = Runner.run w { cfg with Runner.seed = cfg.Runner.seed + rep } in
            print_endline (Json.to_string (Runner.to_json o));
            (w, o))
          ws)
      (List.init repeat Fun.id)
  in
  let j = summary cfg runs in
  print_summary j;
  (match Proc.arg "--out" "" with
  | "" -> ()
  | path ->
    let oc = open_out path in
    output_string oc (Json.to_string j ^ "\n");
    close_out oc;
    Printf.printf "wrote %s\n" path);
  print_endline (Json.to_string j);
  if not (List.for_all (fun (_, o) -> o.Runner.correct) runs) then exit 1

(* ---- smoke: tiny sizes, short windows; checks gates and shape ---- *)

(* The metric names and units this binary prints must be the ones
   BENCHMARK.json declares. *)
let declared_metrics path =
  let bm = Json.read_file path in
  let names key =
    List.map
      (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
      (Json.to_list (Json.member key bm))
  in
  names "end_to_end" = List.map (fun k -> (k, Runner.unit_of k)) Runner.end_to_end
  && names "per_layer" = List.map (fun k -> (k, Runner.unit_of k)) Layers.per_layer_names

let smoke () =
  let dir = "benchmark/_out/smoke" in
  let failures = ref [] in
  if not (declared_metrics (Proc.arg "--bounds" "BENCHMARK.json")) then
    failures := "metric names or units differ from BENCHMARK.json" :: !failures;
  List.iter
    (fun trace ->
      List.iter
        (fun w ->
          let cfg =
            { Runner.seed = 3; seconds = 0.6; warmup = 0.2; trace; setups = 1; tiny = true; dir }
          in
          let o = Runner.run w cfg in
          let want = if trace then Layers.per_layer_names else Runner.end_to_end in
          let shape = List.map fst o.Runner.metrics = want in
          let finite = List.for_all (fun (_, v) -> Float.is_finite v) o.Runner.metrics in
          let traced = (not trace) || Sys.file_exists (Filename.concat dir ("trace-" ^ Wl.to_string w ^ ".json")) in
          if not (o.Runner.correct && o.Runner.attempted > 0 && shape && finite && traced) then
            failures := Printf.sprintf "%s trace=%b" (Wl.to_string w) trace :: !failures)
        Wl.all)
    [ false; true ];
  Proc.rm_rf dir;
  match !failures with
  | [] -> print_endline "benchmark smoke: ok"
  | l ->
    List.iter (fun f -> Printf.eprintf "benchmark smoke: FAILED %s\n" f) l;
    exit 1

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "" with
  | "child-serve" -> Served.serve_main ()
  | "child-load" -> Served.load_main ()
  | "child-embed" -> Embedded.main ()
  | "child-replay" -> Replay.main ()
  | "compare" ->
    if Array.length Sys.argv < 4 then usage ();
    Compare.main ~a:Sys.argv.(2) ~b:Sys.argv.(3) ~bounds:(Proc.arg "--bounds" "BENCHMARK.json")
  | "smoke" -> smoke ()
  | _ -> (
    let cfg = config () in
    let repeat = max 1 (Proc.arg_int "--repeat" 1) in
    match workloads () with
    | [ w ] when repeat = 1 ->
      let o = Runner.run w cfg in
      print_endline (Json.to_string (Runner.to_json o));
      if not o.Runner.correct then exit 1
    | ws -> run_many cfg ws ~repeat)
