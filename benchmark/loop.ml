(* The closed loop every client runs: take the next operation of its
   stream, execute it, wait for the answer, repeat.

   Time is split into a discarded warm-up, then the timed window.  In a
   traced run the window's second half is traced (spans on), so its
   throughput can be set against the untraced first half.  An operation
   that raised or returned a wrong answer counts as failed and leaves
   no sample.

   The untraced window is cut into slices, and every end-to-end number
   is the median over slices of that number in each slice: throughput
   over one-second slices, latency percentiles over [parts] slices.  A
   burst of interference from outside the benchmark then moves a few
   slices, not the reported value. *)

type phase = Warm | Timed | Traced

let parts = 3

type t = {
  reads : Stats.samples array;  (* per latency slice *)
  commits : Stats.samples array;
  per_second : int array;  (* operations completed in each one-second slice *)
  last_end : int64 array;  (* when the last of them completed *)
  mutable attempted : int;
  mutable failed : int;
  mutable traced_ops : int;
  mutable traced_end : int64;  (* end of the last traced op *)
}

type clock = {
  warm_end : int64;
  mid : int64;  (* start of the traced half; = stop when untraced *)
  stop : int64;
}

let ns s = Int64.of_float (s *. 1e9)

let clock ~warmup ~seconds ~trace =
  let start = Proc.now () in
  let warm_end = Int64.add start (ns warmup) in
  let stop = Int64.add warm_end (ns seconds) in
  { warm_end; mid = (if trace then Int64.add warm_end (ns (seconds /. 2.0)) else stop); stop }

let timed_ns clk = Int64.to_float (Int64.sub clk.mid clk.warm_end)
let seconds_of clk = max 1 (int_of_float (timed_ns clk /. 1e9))

let first_error = Atomic.make true

let run clk ~next ~exec =
  let t =
    {
      reads = Array.init parts (fun _ -> Stats.samples ());
      commits = Array.init parts (fun _ -> Stats.samples ());
      per_second = Array.make (seconds_of clk) 0;
      last_end = Array.make (seconds_of clk) 0L;
      attempted = 0;
      failed = 0;
      traced_ops = 0;
      traced_end = clk.mid;
    }
  in
  let span = timed_ns clk in
  let rec go () =
    let start = Proc.now () in
    if start < clk.stop then begin
      let op = next () in
      let phase = if start < clk.warm_end then Warm else if start < clk.mid then Timed else Traced in
      let ok =
        try exec ~traced:(phase = Traced) op
        with e ->
          if Atomic.exchange first_error false then
            Printf.eprintf "benchmark: %s failed: %s\n%!" (Wl.verb op) (Printexc.to_string e);
          false
      in
      let stop = Proc.now () in
      t.attempted <- t.attempted + 1;
      if not ok then t.failed <- t.failed + 1;
      (match phase with
      | Warm -> ()
      | Timed ->
        let at = Int64.to_float (Int64.sub start clk.warm_end) in
        let sec = Int64.to_int (Int64.div (Int64.sub stop clk.warm_end) 1_000_000_000L) in
        if sec < Array.length t.per_second then begin
          t.per_second.(sec) <- t.per_second.(sec) + 1;
          t.last_end.(sec) <- stop
        end;
        if ok then begin
          let part = min (parts - 1) (int_of_float (at /. span *. float_of_int parts)) in
          Stats.add
            (match Wl.kind op with Wl.Read -> t.reads.(part) | Wl.Commit -> t.commits.(part))
            (Int64.to_float (Int64.sub stop start) /. 1e3)
        end
      | Traced ->
        t.traced_ops <- t.traced_ops + 1;
        t.traced_end <- stop);
      go ()
    end
  in
  go ();
  t

(* The end-to-end numbers a child reports for its loops, each the
   median over slices. *)
let report clk ts =
  (* A slice's throughput: its operations over the time from the slice's
     start to the last completion in it. *)
  let slice s =
    let n = List.fold_left (fun a t -> a + t.per_second.(s)) 0 ts in
    let last = List.fold_left (fun a t -> max a t.last_end.(s)) 0L ts in
    let from = Int64.add clk.warm_end (Int64.mul (Int64.of_int s) 1_000_000_000L) in
    if n = 0 then 0.0 else float_of_int n /. (Int64.to_float (Int64.sub last from) /. 1e9)
  in
  Proc.metric "ops_per_s" (Stats.median (List.init (seconds_of clk) slice));
  let traced = List.fold_left (fun a t -> a + t.traced_ops) 0 ts in
  let traced_end = List.fold_left (fun a t -> max a t.traced_end) clk.mid ts in
  Proc.metric "traced_ops_per_s"
    (if traced = 0 then 0.0
     else float_of_int traced /. (Int64.to_float (Int64.sub traced_end clk.mid) /. 1e9));
  let pct name pick p =
    let slices = List.init parts (fun i -> Stats.merge (List.map (fun t -> (pick t).(i)) ts)) in
    Proc.metric name (Stats.median (List.map (fun s -> Stats.percentile (Stats.sorted s) p) slices));
    let counts = List.map Stats.count slices in
    Proc.emit "SAMPLES"
      [
        ("metric", name);
        ("n", Proc.i (List.fold_left ( + ) 0 counts));
        ("beyond", Proc.i (List.fold_left (fun a n -> min a (Stats.beyond n p)) max_int counts));
      ]
  in
  pct "read_p50_us" (fun t -> t.reads) 0.50;
  pct "read_p95_us" (fun t -> t.reads) 0.95;
  pct "commit_p90_us" (fun t -> t.commits) 0.90;
  Proc.emit "OPS"
    [
      ("attempted", Proc.i (List.fold_left (fun a t -> a + t.attempted) 0 ts));
      ("failed", Proc.i (List.fold_left (fun a t -> a + t.failed) 0 ts));
    ]
