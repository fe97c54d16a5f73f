(* Core engine tests: schema construction, incremental evaluation,
   laziness, transactions, undo, constraints, subtypes. *)

module Value = Cactis.Value
module Schema = Cactis.Schema
module Rule = Cactis.Rule
module Db = Cactis.Db
module Engine = Cactis.Engine
module Errors = Cactis.Errors
module Store = Cactis.Store
module Counters = Cactis_util.Counters

let int n = Value.Int n
let bool b = Value.Bool b

let check_value = Alcotest.(check string)
let vstr v = Value.to_string v

(* A milestone-flavoured schema: nodes carry an intrinsic [local] work
   amount; derived [total] = local + max over dependencies' totals;
   derived [late] = total > 100. *)
let milestone_schema () =
  let sch = Schema.create () in
  Schema.add_type sch "node";
  Schema.declare_relationship sch ~from_type:"node" ~rel:"deps" ~to_type:"node" ~inverse:"rdeps"
    ~card:Schema.Multi ~inverse_card:Schema.Multi;
  Schema.add_attr sch ~type_name:"node" (Rule.intrinsic "local" (int 1));
  Schema.add_attr sch ~type_name:"node"
    (Rule.derived "total"
       (Rule.combine_self_rel "local" "deps" "total" ~f:(fun local totals ->
            Value.add local (Value.max_ ~default:(int 0) totals))));
  Schema.add_attr sch ~type_name:"node"
    (Rule.derived "late" (Rule.map1 "total" (fun v -> bool (Value.as_int v > 100))));
  sch

let chain db n =
  (* n nodes, each depending on the previous one; returns ids root..leaf *)
  let ids = List.init n (fun _ -> Db.create_instance db "node") in
  let rec wire = function
    | a :: (b :: _ as rest) ->
      Db.link db ~from_id:a ~rel:"deps" ~to_id:b;
      wire rest
    | [ _ ] | [] -> ()
  in
  wire ids;
  ids

let test_basic_derivation () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 5 in
  let head = List.hd ids in
  check_value "chain total" "5" (vstr (Db.get db head "total"));
  Db.set db (List.nth ids 4) "local" (int 200);
  check_value "after update" "204" (vstr (Db.get db head "total"));
  check_value "late flips" "true" (vstr (Db.get db head "late"))

let test_incremental_counts () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 50 in
  let head = List.hd ids in
  ignore (Db.get db head "total");
  let c = Db.counters db in
  let before = Counters.get c "rule_evals" in
  (* Change the leaf: every total along the chain is stale, but only the
     watched head chain should be re-evaluated, each node once. *)
  Db.set db (List.nth ids 49) "local" (int 7);
  ignore (Db.get db head "total");
  let evals = Counters.get c "rule_evals" - before in
  Alcotest.(check bool)
    (Printf.sprintf "each chain total evaluated at most once (got %d)" evals)
    true
    (evals <= 50)

let test_lazy_unimportant () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 20 in
  let leaf = List.nth ids 19 in
  let c = Db.counters db in
  let before = Counters.get c "rule_evals" in
  (* No one has queried anything: changing the leaf marks but must not
     evaluate. *)
  Db.set db leaf "local" (int 9);
  Alcotest.(check int) "no evaluation without importance" before (Counters.get c "rule_evals")

let test_redundant_change_cutoff () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 30 in
  let leaf = List.nth ids 29 in
  let c = Db.counters db in
  Db.set db leaf "local" (int 5);
  let marks1 = Counters.get c "mark_visits" in
  Db.set db leaf "local" (int 6);
  let marks2 = Counters.get c "mark_visits" - marks1 in
  Alcotest.(check bool)
    (Printf.sprintf "second change marks O(1) (got %d visits)" marks2)
    true (marks2 <= 2)

let test_oracle_agreement () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 10 in
  Db.set db (List.nth ids 3) "local" (int 40);
  Db.set db (List.nth ids 7) "local" (int 70);
  List.iter
    (fun id ->
      let got = Db.get db id "total" in
      let want = Engine.oracle_value (Db.engine db) id "total" in
      check_value (Printf.sprintf "node %d" id) (vstr want) (vstr got))
    ids

let test_undo_restores () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 5 in
  let head = List.hd ids in
  let v0 = vstr (Db.get db head "total") in
  Db.set db (List.nth ids 4) "local" (int 50);
  let v1 = vstr (Db.get db head "total") in
  Alcotest.(check bool) "value changed" true (v0 <> v1);
  Db.undo_last db;
  check_value "undo restores derived value" v0 (vstr (Db.get db head "total"));
  Db.redo db;
  check_value "redo reapplies" v1 (vstr (Db.get db head "total"))

let test_txn_abort () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 3 in
  let head = List.hd ids in
  let v0 = vstr (Db.get db head "total") in
  Db.begin_txn db;
  Db.set db (List.nth ids 2) "local" (int 99);
  Db.abort db;
  check_value "abort restores" v0 (vstr (Db.get db head "total"))

let test_constraint_rollback () =
  let sch = milestone_schema () in
  Schema.add_attr sch ~type_name:"node"
    (Rule.constraint_attr "total_ok" ~message:"total exceeds 1000"
       (Rule.map1 "total" (fun v -> bool (Value.as_int v <= 1000))));
  let db = Db.create sch in
  let ids = chain db 3 in
  let head = List.hd ids in
  ignore (Db.get db head "total");
  (match Db.set db (List.nth ids 2) "local" (int 5000) with
  | () -> Alcotest.fail "expected constraint violation"
  | exception Errors.Constraint_violation { message; _ } ->
    Alcotest.(check string) "message" "total exceeds 1000" message);
  check_value "rolled back" "3" (vstr (Db.get db head "total"))

let test_constraint_recovery () =
  let sch = milestone_schema () in
  Schema.add_attr sch ~type_name:"node"
    (Rule.constraint_attr "local_ok" ~recovery:"clamp" ~message:"local too big"
       (Rule.map1 "local" (fun v -> bool (Value.as_int v <= 100))));
  let db = Db.create sch in
  Db.register_recovery db "clamp" (fun _store id -> [ (id, "local", int 100) ]);
  let ids = chain db 2 in
  Db.set db (List.hd ids) "local" (int 500);
  check_value "recovered" "100" (vstr (Db.get db (List.hd ids) "local"))

let cyclic_schema () =
  let sch = Schema.create () in
  Schema.add_type sch "n";
  Schema.declare_relationship sch ~from_type:"n" ~rel:"next" ~to_type:"n" ~inverse:"prev"
    ~card:Schema.Multi ~inverse_card:Schema.Multi;
  Schema.add_attr sch ~type_name:"n" (Rule.intrinsic "seed" (int 0));
  Schema.add_attr sch ~type_name:"n"
    (Rule.derived "v"
       (Rule.combine_self_rel "seed" "next" "v" ~f:(fun own vs -> Value.add own (Value.sum vs))));
  sch

let test_cycle_detected () =
  let db = Db.create (cyclic_schema ()) in
  let a = Db.create_instance db "n" in
  let b = Db.create_instance db "n" in
  Db.link db ~from_id:a ~rel:"next" ~to_id:b;
  Db.link db ~from_id:b ~rel:"next" ~to_id:a;
  match Db.get db a "v" with
  | _ -> Alcotest.fail "expected cycle"
  | exception Errors.Cycle _ -> ()

let test_long_cycle_detected () =
  (* A 5-node cycle through the chunked evaluator, and recovery: breaking
     the cycle makes the attribute evaluable again. *)
  let db = Db.create (cyclic_schema ()) in
  let ids = Array.init 5 (fun _ -> Db.create_instance db "n") in
  for i = 0 to 4 do
    Db.link db ~from_id:ids.(i) ~rel:"next" ~to_id:ids.((i + 1) mod 5)
  done;
  (match Db.get db ids.(0) "v" with
  | _ -> Alcotest.fail "expected cycle"
  | exception Errors.Cycle participants ->
    Alcotest.(check bool) "cycle names participants" true (List.length participants >= 2));
  (* Break the cycle: values become computable. *)
  Db.unlink db ~from_id:ids.(4) ~rel:"next" ~to_id:ids.(0);
  Db.set db ids.(4) "seed" (int 7);
  Alcotest.(check string) "evaluable after break" "7" (vstr (Db.get db ids.(0) "v"))

let test_cycle_at_commit () =
  (* A watched attribute made cyclic by a link inside a transaction: the
     commit propagation detects it and the transaction rolls back. *)
  let db = Db.create (cyclic_schema ()) in
  let a = Db.create_instance db "n" in
  let b = Db.create_instance db "n" in
  Db.link db ~from_id:a ~rel:"next" ~to_id:b;
  Db.watch db a "v";
  ignore (Db.get db a "v");
  Db.begin_txn db;
  Db.link db ~from_id:b ~rel:"next" ~to_id:a;
  (match Db.commit db with
  | () -> Alcotest.fail "expected cycle at commit"
  | exception Errors.Cycle _ -> ());
  (* The offending link was rolled back with the transaction. *)
  Alcotest.(check (list Alcotest.int)) "link rolled back" [] (Db.related db b "next");
  Alcotest.(check string) "still consistent" "0" (vstr (Db.get db a "v"))

let test_subtype_membership () =
  let sch = milestone_schema () in
  Schema.add_subtype sch
    {
      Schema.sub_name = "heavy";
      parent = "node";
      predicate = Rule.map1 "local" (fun v -> bool (Value.as_int v >= 10));
      extra_attrs = [ Rule.intrinsic "note" (Value.Str "") ];
    };
  let db = Db.create sch in
  let a = Db.create_instance db "node" in
  let b = Db.create_instance db "node" in
  Db.set db b "local" (int 50);
  Alcotest.(check bool) "a not heavy" false (Db.in_subtype db a "heavy");
  Alcotest.(check bool) "b heavy" true (Db.in_subtype db b "heavy");
  Alcotest.(check (list Alcotest.int)) "members" [ b ] (Db.subtype_members db "heavy");
  (* Dynamic migration. *)
  Db.set db a "local" (int 11);
  Alcotest.(check bool) "a becomes heavy" true (Db.in_subtype db a "heavy")

let test_dynamic_attr_extension () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 3 in
  let head = List.hd ids in
  ignore (Db.get db head "total");
  (* very_late added while instances exist; existing tools untouched. *)
  Db.add_attr db ~type_name:"node"
    (Rule.derived "very_late" (Rule.map1 "total" (fun v -> bool (Value.as_int v > 200))));
  Alcotest.(check bool) "not very late" false (Value.as_bool (Db.get db head "very_late"));
  Db.set db (List.nth ids 2) "local" (int 500);
  Alcotest.(check bool) "very late now" true (Value.as_bool (Db.get db head "very_late"))

let test_delete_and_undo_delete () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 3 in
  let head = List.hd ids in
  let leaf = List.nth ids 2 in
  Db.set db leaf "local" (int 10);
  check_value "pre" "12" (vstr (Db.get db head "total"));
  Db.delete_instance db leaf;
  check_value "after delete" "2" (vstr (Db.get db head "total"));
  Db.undo_last db;
  check_value "undo delete restores value and links" "12" (vstr (Db.get db head "total"))

let test_versions () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 3 in
  let head = List.hd ids in
  Db.tag db "v0";
  Db.set db (List.nth ids 2) "local" (int 10);
  Db.tag db "v1";
  Db.set db (List.nth ids 2) "local" (int 20);
  Db.tag db "v2";
  Db.checkout db "v0";
  check_value "at v0" "3" (vstr (Db.get db head "total"));
  Db.checkout db "v2";
  check_value "at v2" "22" (vstr (Db.get db head "total"));
  Db.checkout db "v1";
  check_value "at v1" "12" (vstr (Db.get db head "total"))

let strategies =
  [ ("cactis", Engine.Cactis); ("eager", Engine.Eager_triggers);
    ("recompute-all", Engine.Recompute_all) ]

let test_strategies_agree () =
  List.iter
    (fun (_name, strategy) ->
      let db = Db.create ~strategy (milestone_schema ()) in
      let ids = chain db 8 in
      Db.set db (List.nth ids 5) "local" (int 30);
      List.iter
        (fun id ->
          let got = Db.get db id "total" in
          let want = Engine.oracle_value (Db.engine db) id "total" in
          check_value (Printf.sprintf "strategy agreement node %d" id) (vstr want) (vstr got))
        ids)
    strategies

(* ------------------------------------------------------------------ *)
(* Waves: order-sensitive counters, allocation, watch validation       *)

(* A layered plan of [layers] x [width] milestone nodes under one root
   that depends on the whole first layer; every node depends on 1-2
   nodes of the layer below (fixed seed).  Returns the root and the
   nodes, top layer first. *)
let layered_plan ?sched ?buffer_capacity ~layers ~width () =
  let db = Db.create ?sched ?buffer_capacity (milestone_schema ()) in
  let rng = Cactis_util.Rng.create 7 in
  let nodes = Array.make (layers * width) 0 in
  let root =
    Db.with_txn db (fun () ->
        let root = Db.create_instance db "node" in
        for i = 0 to Array.length nodes - 1 do
          nodes.(i) <- Db.create_instance db "node"
        done;
        for i = 0 to width - 1 do
          Db.link db ~from_id:root ~rel:"deps" ~to_id:nodes.(i)
        done;
        for l = 0 to layers - 2 do
          for i = 0 to width - 1 do
            let upper = nodes.((l * width) + i) in
            for _ = 1 to 1 + Cactis_util.Rng.int rng 2 do
              let lower = nodes.(((l + 1) * width) + Cactis_util.Rng.int rng width) in
              if not (List.mem lower (Db.related db upper "deps")) then
                Db.link db ~from_id:upper ~rel:"deps" ~to_id:lower
            done
          done
        done;
        root)
  in
  ignore (Db.get ~watch:false db root "total");
  (db, root, nodes)

(* The fixed edit stream: a slip in the lower half of the plan (marks
   only: nothing is watched), then a lazy ask of the root's total. *)
let slip db nodes rng k =
  let n = Array.length nodes in
  Db.set db nodes.((n / 2) + Cactis_util.Rng.int rng (n / 2)) "local" (int (1 + (k mod 9)))

let ask db root = ignore (Db.get ~watch:false db root "total")

(* The chunk scheduler's order decides which blocks fault in, so these
   counts pin it: the values were recorded before the scheduler moved
   to struct-of-arrays state, and any change to chunk order, tie
   breaking or block promotion shows up here. *)
let test_pinned_counters () =
  let names =
    [ "block_misses"; "mark_visits"; "mark_cutoffs"; "rule_evals"; "eval_procs"; "demand_procs" ]
  in
  let run sched =
    let db, root, nodes = layered_plan ~sched ~layers:40 ~width:30 () in
    let c = Db.counters db in
    let before = List.map (Counters.get c) names in
    let rng = Cactis_util.Rng.create 11 in
    for k = 1 to 60 do
      slip db nodes rng k;
      if k mod 3 = 0 then ask db root
    done;
    List.map2 (fun name b -> (name, Counters.get c name - b)) names before
  in
  List.iter
    (fun (label, sched, want) ->
      let got = run sched in
      Alcotest.(check (list (pair string int))) label (List.combine names want) got)
    [
      ("fifo", Cactis.Sched.Fifo, [ 3626; 21705; 14515; 7190; 17843; 7190 ]);
      ("cost-only", Cactis.Sched.Cost_only, [ 5218; 21705; 14515; 7190; 17192; 7190 ]);
      ("greedy", Cactis.Sched.Greedy, [ 3916; 21705; 14515; 7190; 17006; 7190 ]);
    ]

let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Words allocated per mark visit (slips) and per rule evaluation
   (asks) over a warmed plan. *)
let wave_words ?buffer_capacity ~layers ~width () =
  let db, root, nodes = layered_plan ?buffer_capacity ~layers ~width () in
  let c = Db.counters db in
  let rng = Cactis_util.Rng.create 3 in
  (* Warm: let every wave column, table and pool frame reach its size. *)
  for k = 1 to 20 do
    slip db nodes rng k;
    ask db root
  done;
  let slip_words = ref 0. and ask_words = ref 0. in
  let visits0 = Counters.get c "mark_visits" and evals0 = Counters.get c "rule_evals" in
  for k = 1 to 40 do
    slip_words := !slip_words +. minor_words_during (fun () -> slip db nodes rng k);
    ask_words := !ask_words +. minor_words_during (fun () -> ask db root)
  done;
  let per w n = w /. float_of_int (max 1 n) in
  ( per !slip_words (Counters.get c "mark_visits" - visits0),
    per !ask_words (Counters.get c "rule_evals" - evals0) )

let test_wave_allocation_resident () =
  let per_visit, per_eval =
    wave_words ~buffer_capacity:max_int ~layers:40 ~width:30 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "resident pool: %.1f words per mark visit (<= 4)" per_visit)
    true (per_visit <= 4.);
  Alcotest.(check bool)
    (Printf.sprintf "resident pool: %.1f words per rule eval (<= 140)" per_eval)
    true (per_eval <= 140.)

let test_wave_allocation_default_pool () =
  let per_visit, _ = wave_words ~layers:40 ~width:30 () in
  Alcotest.(check bool)
    (Printf.sprintf "default pool: %.1f words per mark visit (<= 8)" per_visit)
    true (per_visit <= 8.)

let test_watch_validates () =
  let db = Db.create (milestone_schema ()) in
  let id = Db.create_instance db "node" in
  let unknown name f =
    match f () with
    | () -> Alcotest.failf "%s: expected Errors.Unknown" name
    | exception Errors.Unknown _ -> ()
  in
  unknown "unknown attribute" (fun () -> Db.watch db id "no_such_attr");
  unknown "unknown instance" (fun () -> Db.watch db 99999 "late");
  unknown "get agrees" (fun () -> ignore (Db.get db 99999 "late"));
  Alcotest.(check bool) "nothing watched" false (Engine.is_watched (Db.engine db) 99999 "late");
  Db.watch db id "late";
  Alcotest.(check bool) "declared attribute watched" true
    (Engine.is_watched (Db.engine db) id "late")

(* Deleting an instance drops its watch and pending keys (found through
   its layout's slots), and nothing else. *)
let test_delete_purges_watches () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 3 in
  let a = List.nth ids 1 and b = List.nth ids 2 in
  let eng = Db.engine db in
  Db.watch db a "total";
  Db.watch db b "total";
  Db.watch db b "late";
  ignore (Db.get db a "total");
  Db.begin_txn db;
  Db.set db b "local" (int 5);
  Alcotest.(check int) "a.total, b.total, b.late pending" 3 (Engine.pending_important_count eng);
  Db.unlink db ~from_id:a ~rel:"deps" ~to_id:b;
  Db.delete_instance db b;
  Alcotest.(check int) "only a.total still pending" 1 (Engine.pending_important_count eng);
  Db.commit db;
  Alcotest.(check bool) "deleted total unwatched" false (Engine.is_watched eng b "total");
  Alcotest.(check bool) "deleted late unwatched" false (Engine.is_watched eng b "late");
  Alcotest.(check bool) "survivor still watched" true (Engine.is_watched eng a "total");
  check_value "survivor evaluates" "1" (vstr (Db.get db a "total"))

(* A wave started from inside another (here: a write observer that
   reads an out-of-date attribute while the outer evaluation wave is
   finishing frames) runs on its own state and leaves the outer wave
   intact. *)
let test_reentrant_wave () =
  let db = Db.create (milestone_schema ()) in
  let xs = Array.of_list (chain db 6) and ys = Array.of_list (chain db 6) in
  Db.set db xs.(5) "local" (int 10);
  Db.set db ys.(5) "local" (int 20);
  let nested = ref [] in
  Store.subscribe_write (Db.store db) (fun id attr _ ->
      if id = xs.(2) && attr = "total" && !nested = [] then
        nested := [ vstr (Db.get ~watch:false db ys.(0) "total") ]);
  check_value "outer wave value" "15" (vstr (Db.get ~watch:false db xs.(0) "total"));
  Alcotest.(check (list string)) "nested wave value" [ "25" ] !nested;
  List.iter
    (fun id ->
      let want = Engine.oracle_value (Db.engine db) id "total" in
      check_value (Printf.sprintf "node %d" id) (vstr want) (vstr (Db.get db id "total")))
    (Array.to_list xs @ Array.to_list ys)

(* ---- Db.traverse against the list walk it replaced ---- *)

(* The walk [Db.traverse] must reproduce, written over [Db.get] and
   [Db.related]: a node is visited at the shallowest depth it is seen
   at, and the values are summed newest first. *)
let list_walk db ~root ~rel ~attr ~depth =
  let seen = Hashtbl.create 64 in
  let values = ref [] in
  let frontier = ref [ root ] in
  let d = ref 0 in
  while !frontier <> [] && (depth < 0 || !d <= depth) do
    let next = ref [] in
    List.iter
      (fun id ->
        if not (Hashtbl.mem seen id) then begin
          Hashtbl.add seen id ();
          values := Db.get db ~watch:false id attr :: !values;
          next := List.rev_append (Db.related db id rel) !next
        end)
      !frontier;
    frontier := !next;
    incr d
  done;
  (Hashtbl.length seen, Value.sum !values)

(* Nodes with an int-or-float payload and a derived sum of the payloads
   across [refs]; a second type has neither, so a walk reaching it
   fails the way a lookup of an unknown attribute does. *)
let graph_schema () =
  let sch = Schema.create () in
  Schema.add_type sch "node";
  Schema.add_type sch "other";
  Schema.declare_relationship sch ~from_type:"node" ~rel:"refs" ~to_type:"node" ~inverse:"rrefs"
    ~card:Schema.Multi ~inverse_card:Schema.Multi;
  Schema.declare_relationship sch ~from_type:"node" ~rel:"tag" ~to_type:"other" ~inverse:"tagged"
    ~card:Schema.Multi ~inverse_card:Schema.Multi;
  Schema.add_attr sch ~type_name:"node" (Rule.intrinsic "p" (int 0));
  Schema.add_attr sch ~type_name:"node" (Rule.derived "dv" (Rule.sum_rel "refs" "p"));
  Schema.add_attr sch ~type_name:"other" (Rule.intrinsic "q" (int 0));
  sch

type graph = {
  payloads : (bool * int) list;  (* per node: float?, value *)
  edges : (int * int) list;  (* refs links, self-loops and duplicates allowed *)
  deleted : int list;
  tagged : int list;  (* nodes linked to an "other" across [tag] *)
}

let build_graph g =
  let db = Db.create ~block_capacity:2 ~buffer_capacity:3 (graph_schema ()) in
  let ids = Array.of_list (List.map (fun _ -> Db.create_instance db "node") g.payloads) in
  let n = Array.length ids in
  List.iteri
    (fun i (is_float, v) ->
      Db.set db ids.(i) "p" (if is_float then Value.Float (float_of_int v /. 7.) else int v))
    g.payloads;
  List.iter (fun (a, b) -> Db.link db ~from_id:ids.(a mod n) ~rel:"refs" ~to_id:ids.(b mod n)) g.edges;
  List.iter
    (fun a ->
      let o = Db.create_instance db "other" in
      Db.link db ~from_id:ids.(a mod n) ~rel:"tag" ~to_id:o)
    g.tagged;
  List.iter
    (fun a -> if Store.mem (Db.store db) ids.(a mod n) then Db.delete_instance db ids.(a mod n))
    g.deleted;
  (db, ids)

let same_value a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

(* Everything a walk charges: counters, pool hits and misses, access
   counts, and every link's crossing count. *)
let charges db =
  let st = Db.store db in
  let pool = Cactis_storage.Pager.pool (Store.pager st) in
  ( Counters.snapshot (Db.counters db),
    (Cactis_storage.Buffer_pool.hits pool, Cactis_storage.Buffer_pool.misses pool),
    List.sort compare (Cactis_storage.Usage.instances (Store.usage st)),
    List.sort compare (Store.crossings st),
    snd (Store.usage_snapshot st) )

let graph_gen =
  QCheck.Gen.(
    int_range 1 10 >>= fun n ->
    let node = int_range 0 (n - 1) in
    map4
      (fun payloads edges deleted tagged -> { payloads; edges; deleted; tagged })
      (list_repeat n (pair bool (int_range (-50) 50)))
      (list_size (int_range 0 (3 * n)) (pair node node))
      (list_size (int_range 0 2) node)
      (list_size (int_range 0 1) node))

let queries_gen =
  QCheck.Gen.(
    list_size (int_range 1 8)
      (quad (int_range (-1) 11)
         (frequencyl [ (4, "refs"); (2, "rrefs"); (1, "tag"); (1, "nope") ])
         (frequencyl [ (4, "p"); (3, "dv"); (1, "nope") ])
         (int_range (-1) 3)))

let prop_traverse_matches_list_walk =
  QCheck.Test.make ~name:"traverse matches the get/related walk" ~count:300
    QCheck.(
      make
        ~print:(fun (g, qs) ->
          Printf.sprintf "payloads=%s edges=%s deleted=%s tagged=%s queries=%s"
            (Print.(list (pair bool int)) g.payloads)
            (Print.(list (pair int int)) g.edges)
            (Print.(list int) g.deleted) (Print.(list int) g.tagged)
            (Print.(list (quad int string string int)) qs))
        Gen.(pair graph_gen queries_gen))
    (fun (g, queries) ->
      let db_walk, ids = build_graph g and db_trav, _ = build_graph g in
      let root_of r =
        if r < 0 then -5
        else if r < Array.length ids then ids.(r)
        else if r = 11 then 1 lsl 40
        else 1000 + r
      in
      List.for_all
        (fun (r, rel, attr, depth) ->
          let root = root_of r in
          let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
          let expected = outcome (fun () -> list_walk db_walk ~root ~rel ~attr ~depth)
          and got = outcome (fun () -> Db.traverse db_trav ~root ~rel ~attr ~depth) in
          (match (expected, got) with
          | Ok (n1, v1), Ok (n2, v2) -> n1 = n2 && same_value v1 v2
          | Error e1, Error e2 -> String.equal e1 e2
          | Ok _, Error _ | Error _, Ok _ -> false)
          && charges db_walk = charges db_trav)
        queries)

(* A warm traversal allocates a bounded number of words whatever its
   size: the result pair and its sum, and the layout resolution. *)
let test_traverse_allocation () =
  let db = Db.create ~buffer_capacity:max_int (graph_schema ()) in
  let ids = Array.init 2_000 (fun _ -> Db.create_instance db "node") in
  Array.iteri
    (fun i id ->
      Db.set db id "p" (int i);
      if i > 0 then Db.link db ~from_id:ids.((i - 1) / 2) ~rel:"refs" ~to_id:id)
    ids;
  let words depth =
    ignore (Db.traverse db ~root:ids.(0) ~rel:"refs" ~attr:"dv" ~depth);
    minor_words_during (fun () ->
        ignore (Db.traverse db ~root:ids.(0) ~rel:"refs" ~attr:"dv" ~depth))
  in
  let small = words 3 and whole = words (-1) in
  let visited, total = Db.traverse db ~root:ids.(0) ~rel:"refs" ~attr:"p" ~depth:(-1) in
  Alcotest.(check int) "whole tree visited" 2_000 visited;
  check_value "payload sum" "1999000" (vstr total);
  Alcotest.(check bool)
    (Printf.sprintf "15-node walk %.0f words, 2000-node walk %.0f words (<= 40)" small whole)
    true
    (small <= 40. && whole <= 40.)

(* A root that names no instance is rejected before the visited stamps
   grow to cover it: a client's root arrives unchecked, and a huge one
   must cost an error, not an array of its size. *)
let test_traverse_unknown_root () =
  let db = Db.create (graph_schema ()) in
  let ids = Array.init 4 (fun _ -> Db.create_instance db "node") in
  Db.link db ~from_id:ids.(0) ~rel:"refs" ~to_id:ids.(1);
  let words_of_rejected root =
    (* A full major on each side brings direct major-heap allocations
       into [Gc.allocated_bytes]. *)
    Gc.full_major ();
    let before = Gc.allocated_bytes () in
    (match Db.traverse db ~root ~rel:"refs" ~attr:"p" ~depth:3 with
    | _ -> Alcotest.failf "root %d: traversal answered" root
    | exception Errors.Unknown _ -> ());
    Gc.full_major ();
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  List.iter
    (fun root ->
      let words = words_of_rejected root in
      Alcotest.(check bool)
        (Printf.sprintf "root %d rejected in %.0f words (<= 1000)" root words)
        true (words <= 1000.))
    [ 4_000_000; 1 lsl 40; max_int; -1 ];
  let visited, total = Db.traverse db ~root:ids.(0) ~rel:"refs" ~attr:"p" ~depth:3 in
  Alcotest.(check int) "a later walk still answers" 2 visited;
  check_value "its sum" "0" (vstr total)

let () =
  Alcotest.run "cactis-core"
    [
      ( "engine",
        [
          Alcotest.test_case "basic derivation" `Quick test_basic_derivation;
          Alcotest.test_case "incremental eval counts" `Quick test_incremental_counts;
          Alcotest.test_case "laziness" `Quick test_lazy_unimportant;
          Alcotest.test_case "redundant change O(1)" `Quick test_redundant_change_cutoff;
          Alcotest.test_case "oracle agreement" `Quick test_oracle_agreement;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detected;
          Alcotest.test_case "long cycle + recovery" `Quick test_long_cycle_detected;
          Alcotest.test_case "cycle at commit rolls back" `Quick test_cycle_at_commit;
          Alcotest.test_case "strategies agree" `Quick test_strategies_agree;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "undo/redo" `Quick test_undo_restores;
          Alcotest.test_case "abort" `Quick test_txn_abort;
          Alcotest.test_case "constraint rollback" `Quick test_constraint_rollback;
          Alcotest.test_case "constraint recovery" `Quick test_constraint_recovery;
          Alcotest.test_case "delete & undo" `Quick test_delete_and_undo_delete;
          Alcotest.test_case "versions" `Quick test_versions;
        ] );
      ( "schema",
        [
          Alcotest.test_case "subtype membership" `Quick test_subtype_membership;
          Alcotest.test_case "dynamic extension" `Quick test_dynamic_attr_extension;
        ] );
      ( "waves",
        [
          Alcotest.test_case "pinned scheduling counters" `Quick test_pinned_counters;
          Alcotest.test_case "resident pool allocation" `Quick test_wave_allocation_resident;
          Alcotest.test_case "default pool allocation" `Quick test_wave_allocation_default_pool;
          Alcotest.test_case "watch validates" `Quick test_watch_validates;
          Alcotest.test_case "delete purges watches" `Quick test_delete_purges_watches;
          Alcotest.test_case "re-entrant wave" `Quick test_reentrant_wave;
        ] );
      ( "traverse",
        [
          Alcotest.test_case "warm traversal allocates O(1) words" `Quick test_traverse_allocation;
          Alcotest.test_case "huge unknown root rejected cheaply" `Quick test_traverse_unknown_root;
          QCheck_alcotest.to_alcotest prop_traverse_matches_list_walk;
        ] );
    ]
