(* The benchmark's own span recorder.

   A span wraps one call into a layer's public function, from the
   benchmark's code: name, layer, start, end and parent.  At both
   boundaries the recorder reads a fixed set of counters (rule
   evaluations, mark visits, block misses, disk reads) and a few
   cumulative layer timers (the library's always-on histogram sums), so
   a span also knows the work and the layer time that happened inside
   it.  A span's self time is its duration minus its children's; the
   part of it covered by a layer timer is credited to that layer.

   Spans stay in memory; a recorder keeps its first [cap] for the
   Chrome trace, and all of them feed the aggregates.  One recorder per
   domain. *)

let now_ns () = Cactis_obs.Clock.now_ns ()

type probes = {
  counter_names : string array;
  read_counters : unit -> int array;
  timer_layers : string array;  (* layer credited by each timer *)
  read_timers : unit -> float array;  (* cumulative seconds *)
}

let no_probes =
  {
    counter_names = [||];
    read_counters = (fun () -> [||]);
    timer_layers = [||];
    read_timers = (fun () -> [||]);
  }

type frame = {
  f_id : int;
  f_name : string;
  f_layer : string;
  f_start : int64;
  f_c0 : int array;
  f_t0 : float array;
  mutable f_child_ns : float;
  f_child_timers : float array;  (* timer time already credited inside children *)
}

type event = {
  e_id : int;
  e_parent : int;
  e_name : string;
  e_layer : string;
  e_start_ns : int64;
  e_dur_ns : float;
  e_deltas : int array;
}

type agg = {
  mutable a_count : int;
  mutable a_dur_s : float;
}

type t = {
  tid : int;
  probes : probes;
  mutable stack : frame list;
  mutable next_id : int;
  mutable events : event list;  (* newest first *)
  mutable kept : int;
  layer_self : (string, float ref) Hashtbl.t;
  by_name : (string, agg) Hashtbl.t;
}

(* Spans kept for the Chrome trace, per recorder. *)
let cap = 10_000

let create ?(probes = no_probes) ~tid () =
  {
    tid;
    probes;
    stack = [];
    next_id = 1;
    events = [];
    kept = 0;
    layer_self = Hashtbl.create 16;
    by_name = Hashtbl.create 32;
  }

let credit t layer s =
  match Hashtbl.find_opt t.layer_self layer with
  | Some r -> r := !r +. s
  | None -> Hashtbl.add t.layer_self layer (ref s)

let finish t f =
  let stop = now_ns () in
  let dur = Int64.to_float (Int64.sub stop f.f_start) in
  let c1 = t.probes.read_counters () in
  let t1 = t.probes.read_timers () in
  let deltas = Array.mapi (fun i c -> c - f.f_c0.(i)) c1 in
  let timer_d = Array.mapi (fun i x -> x -. f.f_t0.(i)) t1 in
  (* Layer time inside this span but outside its children: credited to
     the timer's layer, and taken out of this span's own self time. *)
  let own_timers = Array.mapi (fun i d -> Float.max 0.0 (d -. f.f_child_timers.(i))) timer_d in
  let timed = Array.fold_left ( +. ) 0.0 own_timers in
  let self_ns = Float.max 0.0 (dur -. f.f_child_ns -. (timed *. 1e9)) in
  Array.iteri (fun i s -> if s > 0.0 then credit t t.probes.timer_layers.(i) s) own_timers;
  credit t f.f_layer (self_ns *. 1e-9);
  t.stack <- List.tl t.stack;
  (match t.stack with
  | parent :: _ ->
    parent.f_child_ns <- parent.f_child_ns +. dur;
    Array.iteri
      (fun i d -> parent.f_child_timers.(i) <- parent.f_child_timers.(i) +. d)
      timer_d
  | [] -> ());
  let a =
    match Hashtbl.find_opt t.by_name f.f_name with
    | Some a -> a
    | None ->
      let a = { a_count = 0; a_dur_s = 0.0 } in
      Hashtbl.add t.by_name f.f_name a;
      a
  in
  a.a_count <- a.a_count + 1;
  a.a_dur_s <- a.a_dur_s +. (dur *. 1e-9);
  if t.kept < cap then begin
    t.kept <- t.kept + 1;
    t.events <-
      {
        e_id = f.f_id;
        e_parent = (match t.stack with p :: _ -> p.f_id | [] -> 0);
        e_name = f.f_name;
        e_layer = f.f_layer;
        e_start_ns = f.f_start;
        e_dur_ns = dur;
        e_deltas = deltas;
      }
      :: t.events
  end

let with_span t ~layer name f =
  let nt = Array.length t.probes.timer_layers in
  let c0 = t.probes.read_counters () in
  let t0 = t.probes.read_timers () in
  let frame =
    {
      f_id = t.next_id;
      f_name = name;
      f_layer = layer;
      f_start = now_ns ();
      f_c0 = c0;
      f_t0 = t0;
      f_child_ns = 0.0;
      f_child_timers = Array.make nt 0.0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- frame :: t.stack;
  match f () with
  | v ->
    finish t frame;
    v
  | exception e ->
    finish t frame;
    raise e

(* Count and total duration (seconds) of the spans named [name]. *)
let stats t name =
  match Hashtbl.find_opt t.by_name name with
  | Some a -> (a.a_count, a.a_dur_s)
  | None -> (0, 0.0)

let mean_us t name =
  let n, dur = stats t name in
  if n = 0 then 0.0 else dur /. float_of_int n *. 1e6

let layer_self t = Hashtbl.fold (fun l r acc -> (l, !r) :: acc) t.layer_self []

(* ---- Export ----

   Processes exchange spans as lines of a part file: one Chrome trace
   event per line.  The parent merges the parts into one
   [trace-<workload>.json] that Perfetto and chrome://tracing load. *)

let event_json ~pid t e =
  let args =
    ("span", Json.Num (float_of_int e.e_id))
    :: ("parent", Json.Num (float_of_int e.e_parent))
    :: Array.to_list
         (Array.mapi
            (fun i d -> (t.probes.counter_names.(i), Json.Num (float_of_int d)))
            e.e_deltas)
  in
  Json.to_string
    (Json.Obj
       [
         ("name", Json.Str e.e_name);
         ("cat", Json.Str e.e_layer);
         ("ph", Json.Str "X");
         ("ts", Json.Num (Int64.to_float e.e_start_ns /. 1e3));
         ("dur", Json.Num (e.e_dur_ns /. 1e3));
         ("pid", Json.Num (float_of_int pid));
         ("tid", Json.Num (float_of_int t.tid));
         ("args", Json.Obj args);
       ])

let meta_json ~pid ~tid kind name =
  Json.to_string
    (Json.Obj
       [
         ("name", Json.Str kind);
         ("ph", Json.Str "M");
         ("pid", Json.Num (float_of_int pid));
         ("tid", Json.Num (float_of_int tid));
         ("args", Json.Obj [ ("name", Json.Str name) ]);
       ])

(* Appends this recorder's events to the part file [path]. *)
let write_part ~pid ~process ~thread path t =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path in
  output_string oc (meta_json ~pid ~tid:0 "process_name" process ^ "\n");
  output_string oc (meta_json ~pid ~tid:t.tid "thread_name" thread ^ "\n");
  List.iter (fun e -> output_string oc (event_json ~pid t e ^ "\n")) (List.rev t.events);
  close_out oc

let merge_parts ~out parts =
  let oc = open_out out in
  output_string oc "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  let first = ref true in
  List.iter
    (fun p ->
      if Sys.file_exists p then begin
        let ic = open_in p in
        (try
           while true do
             let line = input_line ic in
             if line <> "" then begin
               if not !first then output_string oc ",\n";
               first := false;
               output_string oc line
             end
           done
         with End_of_file -> ());
        close_in ic;
        Sys.remove p
      end)
    parts;
  output_string oc "\n]}\n";
  close_out oc
