(* [compare A.json B.json]: two saved [--repeat] summaries (A the
   baseline, B the candidate) judged metric by metric, workload by
   workload, against the regression bounds in BENCHMARK.json.

   worse       B's median is worse than A's by more than the bound
   unresolved  A's own spread (IQR / median) exceeds the bound, and not
               every run of B beats every run of A
   better      B's interquartile range lies wholly on the better side
               of A's
   unchanged   otherwise

   Exits 1 when any pair is worse. *)

let verdict ~lower ~bound a b =
  let qa1, ma, qa3 = Stats.quartiles a and qb1, mb, qb3 = Stats.quartiles b in
  let better x y = if lower then x < y else x > y in
  let worse_by = (if lower then mb -. ma else ma -. mb) /. Float.abs ma in
  let spread = (qa3 -. qa1) /. Float.abs ma in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) a) b in
  if spread > bound && not all_better then "unresolved"
  else if worse_by > bound then "worse"
  else if (lower && qb3 < qa1) || ((not lower) && qb1 > qa3) then "better"
  else "unchanged"

let values j wl metric =
  List.map Json.to_num
    (Json.to_list (Json.member "values" (Json.member metric (Json.member wl (Json.member "results" j)))))

let main ~a ~b ~bounds =
  let ja = Json.read_file a and jb = Json.read_file b and bm = Json.read_file bounds in
  let metrics =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          Json.to_str (Json.member "better" m) = "lower",
          Json.to_num (Json.member "bound" m) ))
      (Json.to_list (Json.member "end_to_end" bm))
  in
  let workloads = match Json.member "results" ja with Json.Obj l -> List.map fst l | _ -> [] in
  Printf.printf "%-14s %-16s %12s %12s %8s %6s  %s\n" "workload" "metric" "A median" "B median" "change"
    "bound" "verdict";
  let worse = ref 0 in
  List.iter
    (fun wl ->
      List.iter
        (fun (name, lower, bound) ->
          match (values ja wl name, values jb wl name) with
          | [], _ | _, [] -> Printf.printf "%-14s %-16s missing\n" wl name
          | va, vb ->
            let v = verdict ~lower ~bound va vb in
            if v = "worse" then incr worse;
            let ma = Stats.median va and mb = Stats.median vb in
            Printf.printf "%-14s %-16s %12.4g %12.4g %+7.1f%% %5.0f%%  %s\n" wl name ma mb
              ((mb -. ma) /. Float.abs ma *. 100.0)
              (bound *. 100.0) v)
        metrics)
    workloads;
  if !worse > 0 then exit 1
