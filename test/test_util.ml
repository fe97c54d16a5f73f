(* Utility substrate tests: Rng, Pqueue, Decaying_avg, Counters, Vtime,
   Ascii_table — unit tests plus qcheck properties on the heap. *)

module Rng = Cactis_util.Rng
module Pqueue = Cactis_util.Pqueue
module Itbl = Cactis_util.Itbl
module Decaying_avg = Cactis_util.Decaying_avg
module Counters = Cactis_util.Counters
module Vtime = Cactis_util.Vtime
module Table = Cactis_util.Ascii_table

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10);
    let w = Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (w >= -5 && w <= 5);
    let f = Rng.float r 2.0 in
    Alcotest.(check bool) "float in [0,2)" true (f >= 0.0 && f < 2.0)
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_shuffle_permutes () =
  let r = Rng.create 3 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_zipf_skew () =
  let r = Rng.create 9 in
  let counts = Array.make 10 0 in
  for _ = 1 to 5000 do
    let k = Rng.zipf r 10 1.0 in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 hottest" true (counts.(0) > counts.(9));
  Alcotest.(check bool) "rank 0 dominates" true (counts.(0) > 2 * counts.(5))

(* ---- Pqueue ---- *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun (p, x) -> Pqueue.push q p x) [ (3.0, 30); (1.0, 10); (2.0, 20); (0.5, 5) ];
  let order = List.init 4 (fun _ -> Pqueue.pop q) in
  Alcotest.(check (list int)) "ascending priority" [ 5; 10; 20; 30 ] order;
  Alcotest.(check bool) "now empty" true (Pqueue.is_empty q)

let test_pqueue_empty () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "pop_opt empty" true (Pqueue.pop_opt q = None);
  (match Pqueue.pop q with
  | _ -> Alcotest.fail "expected Not_found"
  | exception Not_found -> ());
  Alcotest.(check bool) "peek empty" true (Pqueue.peek_priority q = None)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:200
    QCheck.(list (float_range (-100.0) 100.0))
    (fun ps ->
      let q = Pqueue.create () in
      let prio = Array.of_list ps in
      Array.iteri (fun i p -> Pqueue.push q p i) prio;
      let rec collect acc =
        match Pqueue.pop_opt q with
        | None -> List.rev acc
        | Some i -> collect (prio.(i) :: acc)
      in
      collect [] = List.sort compare ps)

let prop_pqueue_length =
  QCheck.Test.make ~name:"pqueue length tracks pushes and pops" ~count:200
    QCheck.(list (float_range 0.0 10.0))
    (fun ps ->
      let q = Pqueue.create () in
      List.iteri (fun i p -> Pqueue.push q p i) ps;
      let n = List.length ps in
      Pqueue.length q = n
      &&
      let rec pop_k k = if k = 0 then true else (ignore (Pqueue.pop q); pop_k (k - 1)) in
      pop_k (n / 2) && Pqueue.length q = n - (n / 2))

(* The record-per-entry binary heap the scheduler used before priorities
   moved into an unboxed float array, kept verbatim as the model: chunk
   order, ties included, is part of the scheduler's counters. *)
module Model_heap = struct
  type 'a entry = { prio : float; payload : 'a }
  type 'a t = { mutable heap : 'a entry array; mutable size : int }

  let create () = { heap = [||]; size = 0 }

  let grow t e =
    let cap = Array.length t.heap in
    if t.size = cap then begin
      let nheap = Array.make (if cap = 0 then 16 else cap * 2) e in
      Array.blit t.heap 0 nheap 0 t.size;
      t.heap <- nheap
    end

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if t.heap.(i).prio < t.heap.(parent).prio then begin
        let tmp = t.heap.(i) in
        t.heap.(i) <- t.heap.(parent);
        t.heap.(parent) <- tmp;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && t.heap.(l).prio < t.heap.(!smallest).prio then smallest := l;
    if r < t.size && t.heap.(r).prio < t.heap.(!smallest).prio then smallest := r;
    if !smallest <> i then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(!smallest);
      t.heap.(!smallest) <- tmp;
      sift_down t !smallest
    end

  let push t prio payload =
    let e = { prio; payload } in
    grow t e;
    t.heap.(t.size) <- e;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let pop_opt t =
    if t.size = 0 then None
    else begin
      let top = t.heap.(0) in
      t.size <- t.size - 1;
      if t.size > 0 then begin
        t.heap.(0) <- t.heap.(t.size);
        sift_down t 0
      end;
      Some top.payload
    end
end

(* The parallel-array heap with polymorphic payloads that preceded the
   int-payload one, kept verbatim as a second model. *)
module Poly_heap = struct
  type 'a t = { mutable prio : float array; mutable data : 'a array; mutable size : int }

  let create () = { prio = [||]; data = [||]; size = 0 }

  let grow t x =
    let cap = Array.length t.prio in
    if t.size = cap then begin
      let ncap = if cap = 0 then 16 else cap * 2 in
      let nprio = Array.make ncap 0.0 in
      Array.blit t.prio 0 nprio 0 t.size;
      let ndata = Array.make ncap x in
      Array.blit t.data 0 ndata 0 t.size;
      t.prio <- nprio;
      t.data <- ndata
    end

  let swap t i j =
    let p = t.prio.(i) in
    t.prio.(i) <- t.prio.(j);
    t.prio.(j) <- p;
    let x = t.data.(i) in
    t.data.(i) <- t.data.(j);
    t.data.(j) <- x

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if t.prio.(i) < t.prio.(parent) then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = if l < t.size && t.prio.(l) < t.prio.(i) then l else i in
    let smallest = if r < t.size && t.prio.(r) < t.prio.(smallest) then r else smallest in
    if smallest <> i then begin
      swap t i smallest;
      sift_down t smallest
    end

  let push t prio x =
    grow t x;
    t.prio.(t.size) <- prio;
    t.data.(t.size) <- x;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let pop_opt t =
    if t.size = 0 then None
    else begin
      let top = t.data.(0) in
      t.size <- t.size - 1;
      if t.size > 0 then begin
        t.prio.(0) <- t.prio.(t.size);
        t.data.(0) <- t.data.(t.size);
        sift_down t 0
      end;
      Some top
    end
end

(* Random push/pop runs over few distinct priorities (so most pushes
   tie), with pushes numbered in order: all three heaps must pop exactly
   the same sequence of numbers. *)
let prop_pqueue_matches_model =
  QCheck.Test.make ~name:"pqueue pops the model heap's exact sequence" ~count:300
    QCheck.(list (option (int_range 0 4)))
    (fun ops ->
      let q = Pqueue.create () and m = Model_heap.create () and poly = Poly_heap.create () in
      let popped_p = ref [] in
      let n = ref 0 in
      let popped_q = ref [] and popped_m = ref [] in
      List.iter
        (function
          | Some p ->
            let prio = float_of_int p /. 2.0 in
            Pqueue.push q prio !n;
            Model_heap.push m prio !n;
            Poly_heap.push poly prio !n;
            incr n
          | None ->
            popped_q := Pqueue.pop_opt q :: !popped_q;
            popped_m := Model_heap.pop_opt m :: !popped_m;
            popped_p := Poly_heap.pop_opt poly :: !popped_p)
        ops;
      let rec drain acc_q acc_m acc_p =
        match (Pqueue.pop_opt q, Model_heap.pop_opt m, Poly_heap.pop_opt poly) with
        | None, None, None -> (acc_q, acc_m, acc_p)
        | a, b, c -> drain (a :: acc_q) (b :: acc_m) (c :: acc_p)
      in
      let all_q, all_m, all_p = drain !popped_q !popped_m !popped_p in
      all_q = all_m && all_q = all_p)

(* ---- Itbl ---- *)

(* Random replace/remove runs against a [Hashtbl] model.  Keys are
   packed (id, symbol) pairs from a small range, so probe clusters form
   and wrap around the table, and removals exercise the backward shift.
   Each step checks the key it touched and the length; the end of the
   run checks every key of the range and every binding. *)
let prop_itbl_matches_model =
  QCheck.Test.make ~name:"itbl agrees with a Hashtbl model" ~count:300
    QCheck.(list (triple bool (int_range 0 40) (int_range 0 3)))
    (fun ops ->
      let t = Itbl.create 4 and m = Hashtbl.create 16 in
      let agrees k =
        Itbl.find t k ~default:(-1) = (match Hashtbl.find_opt m k with Some v -> v | None -> -1)
        && Itbl.mem t k = Hashtbl.mem m k
      in
      List.for_all
        (fun (add, id, sym) ->
          let k = Cactis_util.Symbol.pack id sym in
          if add then begin
            Itbl.replace t k id;
            Hashtbl.replace m k id
          end
          else begin
            Itbl.remove t k;
            Hashtbl.remove m k
          end;
          agrees k && Itbl.length t = Hashtbl.length m)
        ops
      && Itbl.fold (fun k v ok -> ok && Hashtbl.find_opt m k = Some v) t true
      && List.for_all
           (fun id -> List.for_all (fun sym -> agrees (Cactis_util.Symbol.pack id sym)) [ 0; 1; 2; 3 ])
           (List.init 41 Fun.id))

(* ---- Decaying_avg ---- *)

let test_decaying_avg_converges () =
  let d = Decaying_avg.create ~alpha:0.5 ~initial:100.0 () in
  for _ = 1 to 50 do
    Decaying_avg.observe d 2.0
  done;
  Alcotest.(check bool) "converges to observations" true
    (abs_float (Decaying_avg.value d -. 2.0) < 0.01);
  Alcotest.(check int) "counts observations" 50 (Decaying_avg.observations d);
  Decaying_avg.reset d ~initial:7.0;
  Alcotest.(check (float 1e-9)) "reset" 7.0 (Decaying_avg.value d);
  Alcotest.(check int) "reset count" 0 (Decaying_avg.observations d)

let test_decaying_avg_recency () =
  let d = Decaying_avg.create ~alpha:0.25 ~initial:0.0 () in
  List.iter (Decaying_avg.observe d) [ 10.0; 10.0; 10.0; 10.0 ];
  let after_tens = Decaying_avg.value d in
  List.iter (Decaying_avg.observe d) [ 0.0; 0.0; 0.0; 0.0 ];
  Alcotest.(check bool) "recent observations dominate" true
    (Decaying_avg.value d < after_tens /. 2.0)

(* ---- Counters ---- *)

let test_counters () =
  let c = Counters.create () in
  Counters.incr c "a";
  Counters.incr c "a";
  Counters.add c "b" 5;
  Alcotest.(check int) "a" 2 (Counters.get c "a");
  Alcotest.(check int) "b" 5 (Counters.get c "b");
  Alcotest.(check int) "absent" 0 (Counters.get c "zzz");
  let snap1 = Counters.snapshot c in
  Counters.add c "a" 3;
  let snap2 = Counters.snapshot c in
  let d = Counters.diff ~before:snap1 ~after:snap2 in
  Alcotest.(check int) "diff a" 3 (List.assoc "a" d);
  Alcotest.(check int) "diff b" 0 (List.assoc "b" d);
  Counters.reset c;
  Alcotest.(check int) "reset" 0 (Counters.get c "a")

(* Counters seen only on one side of a diff: new names count from 0,
   names that disappeared (e.g. across a reset) report their negative
   delta instead of being dropped. *)
let test_counters_diff_asymmetric () =
  let d =
    Counters.diff ~before:[ ("gone", 4); ("kept", 2) ] ~after:[ ("kept", 5); ("new", 7) ]
  in
  Alcotest.(check int) "only in before -> negative" (-4) (List.assoc "gone" d);
  Alcotest.(check int) "present in both" 3 (List.assoc "kept" d);
  Alcotest.(check int) "only in after -> from 0" 7 (List.assoc "new" d);
  Alcotest.(check (list string)) "sorted by name" [ "gone"; "kept"; "new" ] (List.map fst d)

(* ---- Vtime ---- *)

let test_vtime () =
  let t1 = Vtime.of_days 3.0 and t2 = Vtime.of_days 5.0 in
  Alcotest.(check bool) "later_than" true (Vtime.later_than t2 t1);
  Alcotest.(check bool) "not later" false (Vtime.later_than t1 t2);
  Alcotest.(check (float 1e-9)) "later_of" 5.0 (Vtime.to_days (Vtime.later_of t1 t2));
  Alcotest.(check (float 1e-9)) "earlier_of" 3.0 (Vtime.to_days (Vtime.earlier_of t1 t2));
  Alcotest.(check (float 1e-9)) "add" 4.5 (Vtime.to_days (Vtime.add_days t1 1.5));
  Alcotest.(check bool) "far future beats all" true (Vtime.later_than Vtime.far_future t2);
  Alcotest.(check string) "pp far future" "far-future" (Vtime.to_string Vtime.far_future)

(* ---- Ascii_table ---- *)

let test_table_render () =
  let s = Table.render ~headers:[ "name"; "n" ] [ [ "alpha"; "1" ]; [ "b"; "22" ] ] in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + sep + 2 rows" 4 (List.length lines);
  let widths = List.map String.length lines in
  Alcotest.(check bool) "aligned" true (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_fmt () =
  Alcotest.(check string) "ratio" "2.0x" (Table.fmt_ratio 10.0 5.0);
  Alcotest.(check string) "ratio div0" "-" (Table.fmt_ratio 10.0 0.0);
  Alcotest.(check string) "int" "42" (Table.fmt_int 42)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_pqueue_sorts; prop_pqueue_length; prop_pqueue_matches_model ]

let itbl_cases = List.map QCheck_alcotest.to_alcotest [ prop_itbl_matches_model ]

let () =
  Alcotest.run "cactis-util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "order" `Quick test_pqueue_order;
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
        ]
        @ qcheck_cases );
      ("itbl", itbl_cases);
      ( "decaying-avg",
        [
          Alcotest.test_case "converges" `Quick test_decaying_avg_converges;
          Alcotest.test_case "recency" `Quick test_decaying_avg_recency;
        ] );
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counters;
          Alcotest.test_case "asymmetric diff" `Quick test_counters_diff_asymmetric;
        ] );
      ("vtime", [ Alcotest.test_case "basics" `Quick test_vtime ]);
      ( "ascii-table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formatters" `Quick test_table_fmt;
        ] );
    ]
