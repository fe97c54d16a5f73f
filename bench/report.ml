(* Reporting helpers shared by the experiment harness. *)

module Counters = Cactis_util.Counters
module Table = Cactis_util.Ascii_table

(* ------------------------------------------------------------------ *)
(* Optional JSON capture (--json): every section/table printed is also
   recorded, then dumped as machine-readable JSON at exit.             *)

type jtable = {
  headers : string list;
  rows : string list list;
}

type jsection = {
  sid : string;
  title : string;
  mutable tables : jtable list;  (* newest first *)
}

let capturing = ref false
let captured : jsection list ref = ref []  (* newest first *)

let enable_capture () = capturing := true

let section id title claim =
  Printf.printf "\n%s\n%s %s\n%s\n" (String.make 78 '=') id title (String.make 78 '-');
  Printf.printf "paper claim: %s\n" claim;
  if !capturing then captured := { sid = id; title; tables = [] } :: !captured

let table ~headers rows =
  print_string (Table.render ~headers rows);
  if !capturing then
    match !captured with
    | s :: _ -> s.tables <- { headers; rows } :: s.tables
    | [] -> ()

(* ------------------------------------------------------------------ *)
(* Gates: an experiment's pass/fail checks.  [gate] records one row;
   [close_gates] prints the experiment's rows as one table (so they
   ride into --json too) and returns the names of the failed ones.
   A [skip] reason replaces the verdict when the check cannot judge
   this run.                                                          *)

let gate_rows : string list list ref = ref []  (* newest first *)

let gate ?skip ~name ~ok detail =
  let verdict =
    match skip with
    | Some why -> Printf.sprintf "skipped (%s)" why
    | None -> if ok then "pass" else "FAIL"
  in
  gate_rows := [ name; verdict; detail ] :: !gate_rows

let close_gates () =
  let rows = List.rev !gate_rows in
  gate_rows := [];
  if rows <> [] then table ~headers:[ "gate"; "verdict"; "detail" ] rows;
  List.filter_map (function [ name; "FAIL"; _ ] -> Some name | _ -> None) rows

let json_string s = Printf.sprintf "\"%s\"" (Cactis_obs.Flight.json_escape s)

(* Cells holding plain numbers are emitted as JSON numbers so counters
   can be consumed without re-parsing. *)
let json_cell s =
  match int_of_string_opt s with
  | Some n -> string_of_int n
  | None -> (
    match float_of_string_opt s with
    | Some f when Float.is_finite f -> Printf.sprintf "%g" f
    | Some _ | None -> json_string s)

let write_json path =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"experiments\": [\n";
  let sections = List.rev !captured in
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf "    {\"id\": %s, \"title\": %s, \"tables\": [" (json_string s.sid)
           (json_string s.title));
      List.iteri
        (fun j (t : jtable) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf "{\"headers\": [";
          Buffer.add_string buf (String.concat ", " (List.map json_string t.headers));
          Buffer.add_string buf "], \"rows\": [";
          List.iteri
            (fun k row ->
              if k > 0 then Buffer.add_string buf ", ";
              Buffer.add_string buf "[";
              Buffer.add_string buf (String.concat ", " (List.map json_cell row));
              Buffer.add_string buf "]")
            t.rows;
          Buffer.add_string buf "]}")
        (List.rev s.tables);
      Buffer.add_string buf "]}")
    sections;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

(* [measure db f] runs [f] and returns the per-counter increase. *)
let measure db f =
  let c = Cactis.Db.counters db in
  let before = Counters.snapshot c in
  f ();
  Counters.diff ~before ~after:(Counters.snapshot c)

let count diff name = match List.assoc_opt name diff with Some v -> v | None -> 0

(* Disk reads of a database's pager. *)
let disk_reads db =
  Cactis_storage.Disk.reads (Cactis_storage.Pager.disk (Cactis.Store.pager (Cactis.Db.store db)))

(* Counter and latency-histogram snapshots of one database, printed as
   tables so they ride into the --json capture with everything else. *)
let obs_tables db =
  let hists = Cactis_obs.Histogram.snapshot (Cactis.Db.obs db).Cactis_obs.Ctx.hists in
  let us f = Printf.sprintf "%.1f" (f *. 1e6) in
  table
    ~headers:[ "histogram"; "count"; "p50 (us)"; "p95 (us)"; "p99 (us)"; "max (us)" ]
    (List.map
       (fun (st : Cactis_obs.Histogram.stats) ->
         [
           st.Cactis_obs.Histogram.st_name;
           string_of_int st.st_count;
           us st.st_p50;
           us st.st_p95;
           us st.st_p99;
           us st.st_max;
         ])
       hists);
  table ~headers:[ "counter"; "value" ]
    (List.map (fun (n, v) -> [ n; string_of_int v ]) (Counters.snapshot (Cactis.Db.counters db)))

(* ------------------------------------------------------------------ *)
(* Bechamel timing                                                     *)

let run_timing ~quota tests =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let rows =
    List.concat_map
      (fun test ->
        let raw = Benchmark.all cfg [ instance ] test in
        let analyzed = Analyze.all ols instance raw in
        Hashtbl.fold
          (fun name result acc ->
            let estimate =
              match Analyze.OLS.estimates result with
              | Some [ e ] -> Printf.sprintf "%.0f" e
              | Some _ | None -> "-"
            in
            (name, estimate) :: acc)
          analyzed [])
      tests
    |> List.sort compare
  in
  table ~headers:[ "benchmark"; "ns/run" ] (List.map (fun (n, e) -> [ n; e ]) rows)
