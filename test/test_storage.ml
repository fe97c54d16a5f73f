(* Storage substrate tests: disk accounting, LRU buffer pool, pager
   placement, usage statistics, and the paper's greedy clustering
   algorithm (unit + qcheck properties). *)

module Disk = Cactis_storage.Disk
module Buffer_pool = Cactis_storage.Buffer_pool
module Pager = Cactis_storage.Pager
module Usage = Cactis_storage.Usage
module Cluster = Cactis_storage.Cluster

(* ---- Buffer pool ---- *)

let test_pool_hits_and_misses () =
  let disk = Disk.create () in
  let pool = Buffer_pool.create ~capacity:2 disk in
  Alcotest.(check bool) "first touch misses" true (Buffer_pool.touch pool 1 = `Miss);
  Alcotest.(check bool) "second touch hits" true (Buffer_pool.touch pool 1 = `Hit);
  ignore (Buffer_pool.touch pool 2);
  ignore (Buffer_pool.touch pool 3);
  (* capacity 2: block 1 evicted as LRU *)
  Alcotest.(check bool) "1 evicted" false (Buffer_pool.resident pool 1);
  Alcotest.(check bool) "2 resident" true (Buffer_pool.resident pool 2);
  Alcotest.(check bool) "3 resident" true (Buffer_pool.resident pool 3);
  Alcotest.(check int) "reads counted (3 misses)" 3 (Disk.reads disk)

let test_pool_lru_order () =
  let disk = Disk.create () in
  let pool = Buffer_pool.create ~capacity:3 disk in
  List.iter (fun b -> ignore (Buffer_pool.touch pool b)) [ 1; 2; 3 ];
  (* Touch 1 again: now 2 is LRU. *)
  ignore (Buffer_pool.touch pool 1);
  ignore (Buffer_pool.touch pool 4);
  Alcotest.(check bool) "2 evicted (LRU)" false (Buffer_pool.resident pool 2);
  Alcotest.(check (list int)) "MRU order" [ 4; 1; 3 ] (Buffer_pool.contents pool)

let test_pool_flush () =
  let disk = Disk.create () in
  let pool = Buffer_pool.create ~capacity:4 disk in
  List.iter (fun b -> ignore (Buffer_pool.touch pool b)) [ 1; 2 ];
  Buffer_pool.flush pool;
  Alcotest.(check (list int)) "empty after flush" [] (Buffer_pool.contents pool);
  Alcotest.(check int) "stats kept" 2 (Buffer_pool.misses pool);
  Buffer_pool.reset_stats pool;
  Alcotest.(check int) "stats reset" 0 (Buffer_pool.misses pool)

let prop_pool_capacity =
  QCheck.Test.make ~name:"pool never exceeds capacity" ~count:200
    QCheck.(pair (int_range 1 8) (list (int_range 0 20)))
    (fun (cap, touches) ->
      let pool = Buffer_pool.create ~capacity:cap (Disk.create ()) in
      List.iter (fun b -> ignore (Buffer_pool.touch pool b)) touches;
      List.length (Buffer_pool.contents pool) <= cap)

let prop_pool_immediate_rehit =
  QCheck.Test.make ~name:"touching a just-touched block hits" ~count:200
    QCheck.(pair (int_range 1 8) (list (int_range 0 20)))
    (fun (cap, touches) ->
      let pool = Buffer_pool.create ~capacity:cap (Disk.create ()) in
      List.for_all
        (fun b ->
          ignore (Buffer_pool.touch pool b);
          Buffer_pool.touch pool b = `Hit)
        touches)

(* ---- Pager ---- *)

let test_pager_placement () =
  let pager = Pager.create ~block_capacity:2 ~buffer_capacity:8 () in
  List.iter (Pager.register pager) [ 10; 11; 12; 13; 14 ];
  Alcotest.(check (option int)) "10 on block 0" (Some 0) (Pager.block_of pager 10);
  Alcotest.(check (option int)) "11 on block 0" (Some 0) (Pager.block_of pager 11);
  Alcotest.(check (option int)) "12 on block 1" (Some 1) (Pager.block_of pager 12);
  Alcotest.(check (option int)) "14 on block 2" (Some 2) (Pager.block_of pager 14);
  ignore (Pager.touch pager 10);
  Alcotest.(check bool) "11 shares 10's block" true (Pager.resident pager 11);
  Alcotest.(check bool) "12 not resident" false (Pager.resident pager 12)

let test_pager_clustering_applied () =
  let pager = Pager.create ~block_capacity:2 ~buffer_capacity:8 () in
  List.iter (Pager.register pager) [ 1; 2; 3; 4 ];
  let assignment =
    Cluster.pack ~block_capacity:2
      ~instances:[ (1, 10); (2, 1); (3, 9); (4, 1) ]
      ~links:[ { Cluster.a = 1; b = 3; rel = "r"; count = 100 } ]
  in
  Pager.apply_clustering pager assignment;
  (* 1 and 3 are hot and linked: same block now. *)
  Alcotest.(check bool) "hot pair colocated" true (Pager.block_of pager 1 = Pager.block_of pager 3);
  (* New registrations go to fresh blocks. *)
  Pager.register pager 99;
  Alcotest.(check bool) "new instance beyond clustered blocks" true
    (match Pager.block_of pager 99 with Some b -> b >= assignment.Cluster.block_count | None -> false)

(* ---- Real block file ---- *)

let with_temp_file f =
  let path = Filename.temp_file "cactis_disk" ".blocks" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_disk_roundtrip () =
  with_temp_file (fun path ->
      let d = Disk.create ~path ~block_bytes:64 () in
      Alcotest.(check bool) "file-backed" true (Disk.is_real d);
      Disk.write_block d 3 (Bytes.of_string "hello");
      let b = Disk.read_block d 3 in
      Alcotest.(check string) "data read back" "hello" (Bytes.sub_string b 0 5);
      Alcotest.(check char) "zero padded to block size" '\000' (Bytes.get b 5);
      Alcotest.(check int) "scratch is one block" 64 (Bytes.length b);
      (* A block past the last write reads as zeroes (sparse tail). *)
      let z = Disk.read_block d 9 in
      Alcotest.(check bool) "unwritten block reads zeroes" true
        (Bytes.for_all (fun c -> c = '\000') z);
      Alcotest.(check int) "file extends to the written block" (4 * 64) (Disk.file_size d);
      Alcotest.(check int) "reads counted" 2 (Disk.reads d);
      Alcotest.(check int) "writes counted" 1 (Disk.writes d);
      (match Disk.write_block d 0 (Bytes.create 65) with
      | () -> Alcotest.fail "oversized block image accepted"
      | exception Invalid_argument _ -> ());
      Disk.sync d;
      Disk.close d)

(* Block image format: [u16 LE count][u32 LE sorted ids], zero-padded. *)
let decode_image img =
  let n = Bytes.get_uint16_le img 0 in
  List.init n (fun i -> Int32.to_int (Bytes.get_int32_le img (2 + (4 * i))))

let test_pager_real_block_images () =
  with_temp_file (fun path ->
      let pager =
        Pager.create ~block_capacity:2 ~buffer_capacity:4 ~disk_path:path ~disk_block_bytes:64 ()
      in
      List.iter (Pager.register pager) [ 10; 11; 12 ];
      ignore (Pager.touch ~dirty:true pager 10);
      Pager.sync pager;
      let img = Disk.read_block (Pager.disk pager) 0 in
      Alcotest.(check (list int)) "dirty block image written back" [ 10; 11 ] (decode_image img);
      (* apply_clustering materializes every block of the new placement. *)
      Pager.apply_clustering pager
        (Cluster.sequential ~block_capacity:2 ~instances:[ 10; 11; 12 ]);
      Alcotest.(check (list int)) "block 1 image after reorganization" [ 12 ]
        (decode_image (Disk.read_block (Pager.disk pager) 1));
      Alcotest.(check (list int)) "block 0 image after reorganization" [ 10; 11 ]
        (decode_image (Disk.read_block (Pager.disk pager) 0));
      Pager.close pager)

(* ---- Slot reclamation under churn ---- *)

let test_forget_bounds_churn () =
  let pager = Pager.create ~block_capacity:4 ~buffer_capacity:8 () in
  let next = ref 0 in
  let fresh () =
    let id = !next in
    incr next;
    Pager.register pager id;
    ignore (Pager.touch pager id);
    id
  in
  let live = Queue.create () in
  for _ = 1 to 16 do Queue.add (fresh ()) live done;
  let base = Pager.blocks_in_use pager in
  (* Delete the oldest, create a replacement, 500 times over: freed
     slots in resident blocks must be reused, so the working set never
     outgrows its footprint. *)
  for _ = 1 to 500 do
    Pager.forget pager (Queue.take live);
    Queue.add (fresh ()) live
  done;
  Alcotest.(check int) "population unchanged" 16 (List.length (Pager.instances pager));
  Alcotest.(check bool)
    (Printf.sprintf "blocks bounded under churn (%d -> %d)" base (Pager.blocks_in_use pager))
    true
    (Pager.blocks_in_use pager <= base + 1)

(* ---- Usage: access counts, and crossing counts on the links ---- *)

(* Nodes with two relationships and their inverses; every end is Multi,
   so duplicate links and self-loops are allowed. *)
let usage_rels = [| "r"; "ri"; "s"; "si" |]
let usage_inverse = [| 1; 0; 3; 2 |]

let usage_store n =
  let sch = Cactis.Schema.create () in
  Cactis.Schema.add_type sch "node";
  List.iter
    (fun (rel, inverse) ->
      Cactis.Schema.declare_relationship sch ~from_type:"node" ~rel ~to_type:"node" ~inverse
        ~card:Cactis.Schema.Multi ~inverse_card:Cactis.Schema.Multi)
    [ ("r", "ri"); ("s", "si") ];
  let st = Cactis.Store.create sch in
  let ids = Array.init n (fun _ -> (Cactis.Store.create_instance st "node").Cactis.Instance.id) in
  (st, ids)

let test_usage_counts () =
  let module Store = Cactis.Store in
  let st, ids = usage_store 2 in
  let a = ids.(0) and b = ids.(1) in
  Store.link st ~from_id:a ~rel:"r" ~to_id:b;
  ignore (Store.linked st a "r");
  ignore (Store.linked st b "ri");
  let count () = Store.crossing_count st ~from_instance:a ~rel:"r" ~to_instance:b in
  (* One link and one listing: 1 touch, then 1 more. *)
  Alcotest.(check int) "instance count" 2 (Usage.instance_count (Store.usage st) a);
  Alcotest.(check int) "both directions counted" 2 (count ());
  Alcotest.(check int) "same count from the other end" 2
    (Store.crossing_count st ~from_instance:b ~rel:"ri" ~to_instance:a);
  Alcotest.(check int) "another relationship's name is another link" 0
    (Store.crossing_count st ~from_instance:b ~rel:"r" ~to_instance:a);
  Alcotest.(check (list (pair string int))) "rel totals, as traversed" [ ("r", 1); ("ri", 1) ]
    (Store.rel_totals st);
  Alcotest.(check bool) "one crossing, named from the lower id" true
    (Store.crossings st = [ ({ Store.from_instance = a; rel = "r"; to_instance = b }, 2) ]);
  (* The count lives on the link: breaking it drops it, and a link made
     again counts from 0. *)
  ignore (Store.unlink st ~from_id:a ~rel:"r" ~to_id:b);
  Alcotest.(check int) "unlinked" 0 (count ());
  Store.link st ~from_id:a ~rel:"r" ~to_id:b;
  Alcotest.(check int) "relinked from 0" 0 (count ());
  ignore (Store.linked st b "ri");
  Alcotest.(check int) "counting again" 1 (count ());
  ignore (Store.unlink st ~from_id:a ~rel:"r" ~to_id:b);
  Store.delete_instance st a;
  Alcotest.(check int) "forgotten" 0 (Usage.instance_count (Store.usage st) a);
  Alcotest.(check int) "crossings forgotten" 0 (count ());
  Alcotest.(check (list (pair string int))) "no totals left" [] (Store.rel_totals st)

(* A step from a higher id to a lower one counts toward clustering:
   with 2 -r-> 1 and 1 -r-> 3, listing [r] from 2 and from 1 ten times
   each gives both links a count of 10 in the clustering snapshot,
   where each is named from id 1's side (ri and r). *)
let test_usage_counts_both_directions () =
  let module Store = Cactis.Store in
  let st, ids = usage_store 3 in
  Store.link st ~from_id:ids.(1) ~rel:"r" ~to_id:ids.(0);
  Store.link st ~from_id:ids.(0) ~rel:"r" ~to_id:ids.(2);
  for _ = 1 to 10 do
    ignore (Store.linked st ids.(1) "r");
    ignore (Store.linked st ids.(0) "r")
  done;
  let _, links = Store.usage_snapshot st in
  Alcotest.(check (list (pair string int))) "snapshot counts"
    [ ("r", 10); ("ri", 10) ]
    (List.sort compare (List.map (fun (l : Cluster.link) -> (l.Cluster.rel, l.count)) links))

(* Crossing counts against a reference model: per (instance, rel), the
   list of linked ids in link order, each with its own count.  Ops link
   and unlink in both directions (duplicates and self-loops included),
   list a relationship (one crossing per link), touch and delete
   instances, and reset the access counts.  After every op each
   [crossing_count], the [crossings] and [rel_totals] exports, the
   clustering snapshot's link counts and the access counts must match. *)
type usage_op =
  | Link of int * int * int  (* from, rel index, to *)
  | Unlink of int * int * int
  | Cross of int * int
  | Touch of int
  | Delete of int
  | Reset

let usage_ids = 8

let usage_op_gen =
  QCheck.Gen.(
    let id = int_range 0 (usage_ids - 1) and rel = int_range 0 3 in
    frequency
      [
        (6, map (fun (a, r, b) -> Link (a, r, b)) (triple id rel id));
        (2, map2 (fun a r -> Link (a, r, a)) id rel);
        (3, map (fun (a, r, b) -> Unlink (a, r, b)) (triple id rel id));
        (10, map2 (fun a r -> Cross (a, r)) id rel);
        (3, map (fun a -> Touch a) id);
        (1, map (fun a -> Delete a) id);
        (1, return Reset);
      ])

let print_usage_op = function
  | Link (a, r, b) -> Printf.sprintf "link %d %s %d" a usage_rels.(r) b
  | Unlink (a, r, b) -> Printf.sprintf "unlink %d %s %d" a usage_rels.(r) b
  | Cross (a, r) -> Printf.sprintf "list %d %s" a usage_rels.(r)
  | Touch a -> Printf.sprintf "touch %d" a
  | Delete a -> Printf.sprintf "delete %d" a
  | Reset -> "reset"

let prop_usage_reference_model =
  QCheck.Test.make ~name:"usage matches reference hash-table model" ~count:300
    QCheck.(make ~print:Print.(list print_usage_op) Gen.(list_size (int_range 0 60) usage_op_gen))
    (fun ops ->
      let module Store = Cactis.Store in
      let st, ids = usage_store usage_ids in
      let live = Array.make usage_ids true in
      (* (position, rel index) -> (linked position, count) list, link order *)
      let ends = Hashtbl.create 16 and touches = Hashtbl.create 16 in
      let get_end a r = Option.value ~default:[] (Hashtbl.find_opt ends (a, r)) in
      let bump tbl k n = Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
      let touch a = bump touches ids.(a) 1 in
      let rec drop_first b = function
        | [] -> []
        | (x, c) :: rest -> if x = b then rest else (x, c) :: drop_first b rest
      in
      let model_uses a r b =
        List.fold_left (fun acc (x, c) -> if x = b then acc + c else acc) 0 (get_end a r)
      in
      (* A link's count is the sum of its two ends. *)
      let model_count a r b = model_uses a r b + model_uses b usage_inverse.(r) a in
      let sorted l = List.sort compare l in
      let agrees () =
        let counts_ok = ref true in
        for a = 0 to usage_ids - 1 do
          for b = 0 to usage_ids - 1 do
            Array.iteri
              (fun r rel ->
                counts_ok :=
                  !counts_ok
                  && Store.crossing_count st ~from_instance:ids.(a) ~rel ~to_instance:ids.(b)
                     = model_count a r b)
              usage_rels
          done
        done;
        let canonical = Hashtbl.create 16 and totals = Hashtbl.create 4 in
        Hashtbl.iter
          (fun (a, r) l ->
            List.iter
              (fun (b, c) ->
                if c > 0 then begin
                  let name = usage_rels.(r) and inverse = usage_rels.(usage_inverse.(r)) in
                  let key =
                    if ids.(a) < ids.(b) then (ids.(a), name, ids.(b))
                    else if ids.(a) > ids.(b) then (ids.(b), inverse, ids.(a))
                    else (ids.(a), min name inverse, ids.(a))
                  in
                  bump canonical key c;
                  bump totals usage_rels.(r) c
                end)
              l)
          ends;
        let model_crossings =
          Hashtbl.fold
            (fun (lo, rel, hi) c acc -> ({ Store.from_instance = lo; rel; to_instance = hi }, c) :: acc)
            canonical []
        in
        let model_totals =
          Hashtbl.fold (fun rel c acc -> (rel, c) :: acc) totals []
          |> List.sort (fun (a, ca) (b, cb) -> match compare cb ca with 0 -> compare a b | c -> c)
        in
        let model_links =
          Hashtbl.fold
            (fun (a, r) l acc ->
              List.fold_left
                (fun acc (b, _) ->
                  if ids.(a) < ids.(b) then (ids.(a), ids.(b), usage_rels.(r), model_count a r b) :: acc
                  else acc)
                acc l)
            ends []
        in
        let snapshot_instances, snapshot_links = Store.usage_snapshot st in
        !counts_ok
        && sorted (Store.crossings st) = sorted model_crossings
        && Store.rel_totals st = model_totals
        && sorted
             (List.map (fun (l : Cluster.link) -> (l.Cluster.a, l.b, l.rel, l.count)) snapshot_links)
           = sorted model_links
        && sorted (Usage.instances (Store.usage st))
           = sorted (Hashtbl.fold (fun id c acc -> if c > 0 then (id, c) :: acc else acc) touches [])
        && List.for_all
             (fun (id, c) -> c = Option.value ~default:0 (Hashtbl.find_opt touches id))
             snapshot_instances
      in
      List.for_all
        (fun op ->
          (match op with
          | Link (a, r, b) when live.(a) && live.(b) ->
            Store.link st ~from_id:ids.(a) ~rel:usage_rels.(r) ~to_id:ids.(b);
            touch a;
            touch b;
            Hashtbl.replace ends (a, r) (get_end a r @ [ (b, 0) ]);
            let ir = usage_inverse.(r) in
            Hashtbl.replace ends (b, ir) (get_end b ir @ [ (a, 0) ])
          | Unlink (a, r, b) when live.(a) && live.(b) ->
            let present = List.mem_assoc b (get_end a r) in
            Alcotest.(check bool) "unlink finds the model's link" present
              (Store.unlink st ~from_id:ids.(a) ~rel:usage_rels.(r) ~to_id:ids.(b));
            touch a;
            touch b;
            if present then begin
              Hashtbl.replace ends (a, r) (drop_first b (get_end a r));
              let ir = usage_inverse.(r) in
              Hashtbl.replace ends (b, ir) (drop_first a (get_end b ir))
            end
          | Cross (a, r) when live.(a) ->
            ignore (Store.linked st ids.(a) usage_rels.(r));
            touch a;
            Hashtbl.replace ends (a, r) (List.map (fun (b, c) -> (b, c + 1)) (get_end a r))
          | Touch a when live.(a) ->
            Store.touch st ids.(a);
            touch a
          | Delete a when live.(a) ->
            Array.iteri
              (fun r _ ->
                List.iter
                  (fun (b, _) ->
                    if Store.unlink st ~from_id:ids.(a) ~rel:usage_rels.(r) ~to_id:ids.(b) then begin
                      touch a;
                      touch b
                    end)
                  (get_end a r))
              usage_rels;
            Hashtbl.filter_map_inplace
              (fun (x, _) l ->
                if x = a then None else Some (List.filter (fun (y, _) -> y <> a) l))
              ends;
            Store.delete_instance st ids.(a);
            live.(a) <- false;
            Hashtbl.remove touches ids.(a)
          | Reset ->
            Usage.reset (Store.usage st);
            Hashtbl.reset touches
          | Link _ | Unlink _ | Cross _ | Touch _ | Delete _ -> ());
          agrees ())
        ops)

(* The per-access bookkeeping allocates nothing once warm: re-crossing a
   seen link and hitting a resident ([max_int]) pool.  The bound allows
   for the boxed floats [Gc.minor_words] itself returns. *)
let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_access_bookkeeping_allocation_free () =
  let module Store = Cactis.Store in
  let st, ids = usage_store 101 in
  for a = 0 to 99 do
    Store.link st ~from_id:ids.(a) ~rel:"r" ~to_id:ids.(a + 1)
  done;
  let r_of a = Cactis.Instance.links_ix (Store.get st ids.(a)) 0
  and ri_of a = Cactis.Instance.links_ix (Store.get st ids.(a)) 1 in
  let cross_all () =
    for k = 0 to 9_999 do
      let a = k mod 100 in
      if k land 1 = 0 then Cactis.Instance.cross (r_of a) 0
      else Cactis.Instance.cross (ri_of (a + 1)) 0
    done
  in
  cross_all ();
  let words = minor_words_during cross_all in
  Alcotest.(check bool) (Printf.sprintf "10k re-crossings allocate %.0f words" words) true
    (words <= 16.);
  (* Two passes, each crossing 0 -r-> 1 at every k = 0 mod 100 and
     1 -ri-> 0 at every k = 1 mod 100 (a different relationship name). *)
  Alcotest.(check int) "counts kept" 200
    (Store.crossing_count st ~from_instance:ids.(0) ~rel:"r" ~to_instance:ids.(1));
  let pool = Buffer_pool.create ~capacity:max_int (Disk.create ()) in
  for b = 0 to 99 do
    ignore (Buffer_pool.touch pool b)
  done;
  let hit_all () =
    for k = 0 to 9_999 do
      ignore (Buffer_pool.touch pool (k mod 100))
    done
  in
  let words = minor_words_during hit_all in
  Alcotest.(check bool) (Printf.sprintf "10k resident hits allocate %.0f words" words) true
    (words <= 16.);
  Alcotest.(check int) "hits counted" 10_000 (Buffer_pool.hits pool);
  Alcotest.(check int) "misses counted" 100 (Buffer_pool.misses pool)

(* A bounded pool relinks its intrusive LRU list on a hit and reuses the
   evicted frame on a miss: once full, hits and misses (each of which
   also records a flight event) allocate nothing. *)
let test_bounded_pool_allocation_free () =
  let pool = Buffer_pool.create ~capacity:16 (Disk.create ()) in
  (* Alternate a hot set of 4 blocks, which stays resident, with a
     sweep over 32 blocks, which always misses (10 240 touches: a whole
     number of 64-touch periods). *)
  let churn () =
    for k = 0 to 10_239 do
      if k land 1 = 0 then ignore (Buffer_pool.touch pool (k mod 8))
      else ignore (Buffer_pool.touch pool (100 + (k mod 64)))
    done
  in
  churn ();
  let hits0 = Buffer_pool.hits pool and misses0 = Buffer_pool.misses pool in
  let words = minor_words_during churn in
  Alcotest.(check bool)
    (Printf.sprintf "10k bounded-pool hits and misses allocate %.0f words" words)
    true (words <= 16.);
  Alcotest.(check int) "every hot touch hits" 5_120 (Buffer_pool.hits pool - hits0);
  Alcotest.(check int) "every sweep touch misses" 5_120 (Buffer_pool.misses pool - misses0);
  Alcotest.(check int) "capacity kept" 16 (List.length (Buffer_pool.contents pool))

(* A resident pool keeps no recency order, but its accounting is a
   plain set model: a block hits iff touched before; [contents] lists
   every resident block; a flush writes back every dirty one. *)
let prop_resident_pool_model =
  QCheck.Test.make ~name:"resident pool matches a set model" ~count:200
    QCheck.(list (pair (int_range 0 30) bool))
    (fun touches ->
      let pool = Buffer_pool.create ~capacity:max_int (Disk.create ()) in
      let seen = Hashtbl.create 16 and dirty = Hashtbl.create 16 in
      let hits = ref 0 and ok = ref true in
      List.iter
        (fun (b, d) ->
          let expected = if Hashtbl.mem seen b then (incr hits; `Hit) else `Miss in
          ok := !ok && Buffer_pool.touch ~dirty:d pool b = expected;
          Hashtbl.replace seen b ();
          if d then Hashtbl.replace dirty b ())
        touches;
      let model = List.sort compare (Hashtbl.fold (fun b () acc -> b :: acc) seen []) in
      let resident_ok = List.for_all (fun b -> Buffer_pool.resident pool b = Hashtbl.mem seen b) (List.init 32 Fun.id) in
      let contents = List.sort compare (Buffer_pool.contents pool) in
      Buffer_pool.flush pool;
      !ok && resident_ok && contents = model
      && Buffer_pool.hits pool = !hits
      && Buffer_pool.misses pool = List.length model
      && Buffer_pool.writebacks pool = Hashtbl.length dirty
      && Buffer_pool.contents pool = [])

(* ---- Clustering ---- *)

let test_cluster_paper_algorithm () =
  (* Two hot communities and a cold singleton: the greedy algorithm must
     seed with the hottest instance and pull its linked neighbours in. *)
  let instances = [ (1, 100); (2, 5); (3, 90); (4, 5); (5, 1) ] in
  let links =
    [
      { Cluster.a = 1; b = 2; rel = "r"; count = 50 };
      { Cluster.a = 3; b = 4; rel = "r"; count = 40 };
      { Cluster.a = 2; b = 5; rel = "r"; count = 0 };
    ]
  in
  let { Cluster.block_of; block_count } = Cluster.pack ~block_capacity:2 ~instances ~links in
  let b = Hashtbl.find block_of in
  Alcotest.(check int) "hottest seeds block 0" 0 (b 1);
  Alcotest.(check int) "its partner joins" 0 (b 2);
  Alcotest.(check int) "second community next" 1 (b 3);
  Alcotest.(check int) "partner too" 1 (b 4);
  Alcotest.(check int) "cold singleton last" 2 (b 5);
  Alcotest.(check int) "three blocks" 3 block_count

let test_cluster_pulls_cold_neighbour () =
  (* A zero-count link still pulls an unassigned neighbour into the block
     before a new block is opened (the paper's inner loop has no
     threshold). *)
  let instances = [ (1, 10); (2, 0) ] in
  let links = [ { Cluster.a = 1; b = 2; rel = "r"; count = 0 } ] in
  let { Cluster.block_of; block_count } = Cluster.pack ~block_capacity:4 ~instances ~links in
  Alcotest.(check int) "one block" 1 block_count;
  Alcotest.(check int) "cold neighbour packed" 0 (Hashtbl.find block_of 2)

let test_cluster_sequential () =
  let { Cluster.block_of; block_count } =
    Cluster.sequential ~block_capacity:3 ~instances:[ 5; 1; 9; 2; 7 ]
  in
  Alcotest.(check int) "two blocks" 2 block_count;
  Alcotest.(check int) "id order" 0 (Hashtbl.find block_of 1);
  Alcotest.(check int) "spill" 1 (Hashtbl.find block_of 7)

let cluster_input =
  QCheck.make
    ~print:(fun (n, cap, links) ->
      Printf.sprintf "n=%d cap=%d links=%d" n cap (List.length links))
    QCheck.Gen.(
      let* n = int_range 1 40 in
      let* cap = int_range 1 8 in
      let* links =
        list_size (int_range 0 80)
          (let* a = int_range 0 (n - 1) in
           let* b = int_range 0 (n - 1) in
           let* c = int_range 0 100 in
           return (a, b, c))
      in
      return (n, cap, links))

let prop_cluster_partition =
  QCheck.Test.make ~name:"clustering is a capacity-respecting partition" ~count:300 cluster_input
    (fun (n, cap, raw_links) ->
      let instances = List.init n (fun i -> (i, (i * 7) mod 23)) in
      let links =
        List.filter_map
          (fun (a, b, c) ->
            if a = b then None else Some { Cluster.a; b; rel = "r"; count = c })
          raw_links
      in
      let { Cluster.block_of; block_count } = Cluster.pack ~block_capacity:cap ~instances ~links in
      (* Total: every instance assigned exactly once. *)
      Hashtbl.length block_of = n
      && List.for_all (fun (i, _) -> Hashtbl.mem block_of i) instances
      (* Capacity respected. *)
      &&
      let per_block = Hashtbl.create 8 in
      Hashtbl.iter
        (fun _ blk ->
          let r =
            match Hashtbl.find_opt per_block blk with
            | Some r -> r
            | None ->
              let r = ref 0 in
              Hashtbl.add per_block blk r;
              r
          in
          incr r)
        block_of;
      Hashtbl.fold (fun blk r ok -> ok && !r <= cap && blk < block_count) per_block true)

(* Every competing strategy must produce a total, capacity-respecting
   partition on the same inputs as the paper-algorithm property. *)
let prop_every_strategy_partitions =
  QCheck.Test.make ~name:"every strategy is a capacity-respecting partition" ~count:150
    cluster_input (fun (n, cap, raw_links) ->
      let instances = List.init n (fun i -> (i, (i * 7) mod 23)) in
      let links =
        List.filter_map
          (fun (a, b, c) -> if a = b then None else Some { Cluster.a; b; rel = "r"; count = c })
          raw_links
      in
      List.for_all
        (fun strategy ->
          let { Cluster.block_of; block_count } =
            Cluster.pack_with strategy ~block_capacity:cap ~instances ~links
          in
          Hashtbl.length block_of = n
          && List.for_all (fun (i, _) -> Hashtbl.mem block_of i) instances
          &&
          let per_block = Hashtbl.create 8 in
          Hashtbl.iter
            (fun _ blk ->
              Hashtbl.replace per_block blk
                (1 + Option.value ~default:0 (Hashtbl.find_opt per_block blk)))
            block_of;
          Hashtbl.fold (fun blk n ok -> ok && n <= cap && blk < block_count) per_block true)
        Cluster.all_strategies)

(* The pool's hit/miss accounting against a reference LRU list model,
   across random touches AND whole-placement replacements (which drop
   every frame without write-back). *)
let prop_pool_reference_lru =
  QCheck.Test.make ~name:"pool matches reference LRU model across recluster flushes" ~count:200
    QCheck.(pair (int_range 1 6) (list (int_range 0 24)))
    (fun (cap, ops) ->
      let pager = Pager.create ~block_capacity:2 ~buffer_capacity:cap () in
      let pool = Pager.pool pager in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          if op = 0 then begin
            (* Re-clustering drops the pool without write-back. *)
            match Pager.instances pager with
            | [] -> ()
            | inst ->
              Pager.apply_clustering pager (Cluster.sequential ~block_capacity:2 ~instances:inst);
              model := []
          end
          else begin
            Pager.register pager op;
            let blk = match Pager.block_of pager op with Some b -> b | None -> -1 in
            let expected = if List.mem blk !model then `Hit else `Miss in
            ok := !ok && Pager.touch pager op = expected;
            model := blk :: List.filter (fun b -> b <> blk) !model;
            if List.length !model > cap then model := List.filteri (fun i _ -> i < cap) !model
          end)
        ops;
      !ok && Buffer_pool.contents pool = !model)

(* Satellite: the paper algorithm's inner loop is heap-based — packing
   must scale near-linearithmically, not quadratically.  4x the input of
   a chain graph would cost ~16x under the old quadratic frontier scan;
   the heap keeps it under ~5x (asserted with generous slack for CI). *)
(* Packing is judged twice with the same 10x bound, on quantities that
   do not depend on how busy the machine is: the words it allocates,
   which depend on the code path alone, and process cpu time (best of
   three samples, each repeating the packing for at least 50 ms), which
   does not count the time spent waiting for a core while other test
   binaries run in parallel.  A quadratic step that allocates, such as
   a seed heap rebuilt for every block, shows up in the words; one that
   allocates nothing, such as a scan over every instance for each
   block's seed, shows up in the cpu time (both ~16x). *)
let test_pack_scaling () =
  let input n =
    ( List.init n (fun i -> (i, (i * 37) mod 101)),
      List.init (n - 1) (fun i -> { Cluster.a = i; b = i + 1; rel = "r"; count = (i * 13) mod 97 })
    )
  in
  let pack (instances, links) = ignore (Cluster.pack ~block_capacity:8 ~instances ~links) in
  let words input =
    (* A domain's major-heap allocations reach [Gc.allocated_bytes] at
       the next major slice: a full major on each side makes the count
       exact. *)
    Gc.full_major ();
    let before = Gc.allocated_bytes () in
    pack input;
    Gc.full_major ();
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  let cpu input =
    let sample () =
      let t0 = Sys.time () in
      let rec go reps =
        pack input;
        let dt = Sys.time () -. t0 in
        if dt < 0.05 then go (reps + 1) else dt /. float_of_int reps
      in
      go 1
    in
    List.fold_left min infinity (List.init 3 (fun _ -> sample ()))
  in
  let small = input 2500 and large = input 10000 in
  let w1 = words small and w4 = words large in
  Alcotest.(check bool)
    (Printf.sprintf "4x instances allocate %.1fx words (quadratic would be ~16x)" (w4 /. w1))
    true
    (w4 < 10. *. w1);
  let c1 = cpu small and c4 = cpu large in
  Alcotest.(check bool)
    (Printf.sprintf "4x instances take %.1fx cpu time (quadratic would be ~16x)" (c4 /. c1))
    true
    (c4 < 10. *. c1)

(* ---- Incremental re-clustering (through the store) ---- *)

module Db = Cactis.Db
module Store = Cactis.Store
module Schema = Cactis.Schema
module Rule = Cactis.Rule
module Value = Cactis.Value

let node_schema () =
  let sch = Schema.create () in
  Schema.add_type sch "node";
  Schema.declare_relationship sch ~from_type:"node" ~rel:"deps" ~to_type:"node" ~inverse:"rdeps"
    ~card:Schema.Multi ~inverse_card:Schema.Multi;
  Schema.add_attr sch ~type_name:"node" (Rule.intrinsic "v" (Value.Int 0));
  sch

(* A ring with chords, trained on a hot prefix — identical construction
   gives identical usage statistics, hence identical packings. *)
let make_trained_db () =
  let db = Db.create ~block_capacity:4 ~buffer_capacity:8 (node_schema ()) in
  let ids = Array.init 40 (fun _ -> Db.create_instance db "node") in
  let n = Array.length ids in
  for i = 0 to n - 1 do
    Db.link db ~from_id:ids.(i) ~rel:"deps" ~to_id:ids.((i + 1) mod n);
    if i mod 3 = 0 then Db.link db ~from_id:ids.(i) ~rel:"deps" ~to_id:ids.((i + 7) mod n)
  done;
  for _ = 1 to 5 do
    for i = 0 to 9 do
      ignore (Db.get db ~watch:false ids.(i) "v");
      ignore (Db.related db ids.(i) "deps")
    done
  done;
  db

(* Co-location partition: which instances share a block (block numbers
   themselves don't matter). *)
let partition_of pager =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun id ->
      match Pager.block_of pager id with
      | Some b -> Hashtbl.replace tbl b (id :: Option.value ~default:[] (Hashtbl.find_opt tbl b))
      | None -> ())
    (Pager.instances pager);
  List.sort compare (Hashtbl.fold (fun _ ms acc -> List.sort compare ms :: acc) tbl [])

let check_valid_partition pager cap =
  List.iter
    (fun group ->
      if List.length group > cap then
        Alcotest.failf "block over capacity: %d members" (List.length group))
    (partition_of pager)

let test_incremental_matches_full () =
  let db_full = make_trained_db () in
  let db_inc = make_trained_db () in
  ignore (Db.recluster db_full);
  let st = Db.store db_inc in
  let pending = Store.begin_recluster st in
  Alcotest.(check bool) "plan non-empty" true (pending > 0);
  (* Mid-flight, after a partial step, placement is still a valid
     capacity-respecting partition. *)
  ignore (Store.recluster_step st ~max_moves:3);
  Alcotest.(check bool) "migration in flight" true (Store.pending_moves st > 0);
  check_valid_partition (Store.pager st) 4;
  let guard = ref 0 in
  while Store.pending_moves st > 0 && !guard < 1000 do
    incr guard;
    ignore (Store.recluster_step st ~max_moves:3)
  done;
  Alcotest.(check int) "plan drained" 0 (Store.pending_moves st);
  Alcotest.(check bool) "incremental converges to the full packing" true
    (partition_of (Store.pager (Db.store db_full)) = partition_of (Store.pager st))

let test_incremental_new_instances_survive () =
  (* Instances created while a migration is in flight keep appending to
     the old region and are never lost. *)
  let db = make_trained_db () in
  let st = Db.store db in
  ignore (Store.begin_recluster st);
  ignore (Store.recluster_step st ~max_moves:2);
  let fresh = Db.create_instance db "node" in
  while Store.pending_moves st > 0 do
    ignore (Store.recluster_step st ~max_moves:7)
  done;
  let pager = Store.pager st in
  Alcotest.(check bool) "mid-migration instance still placed" true
    (Pager.block_of pager fresh <> None);
  check_valid_partition pager 4

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pool_capacity; prop_pool_immediate_rehit; prop_cluster_partition;
      prop_every_strategy_partitions; prop_pool_reference_lru; prop_usage_reference_model;
      prop_resident_pool_model;
    ]

let () =
  Alcotest.run "cactis-storage"
    [
      ( "buffer-pool",
        [
          Alcotest.test_case "hits and misses" `Quick test_pool_hits_and_misses;
          Alcotest.test_case "LRU order" `Quick test_pool_lru_order;
          Alcotest.test_case "flush" `Quick test_pool_flush;
        ] );
      ( "pager",
        [
          Alcotest.test_case "placement" `Quick test_pager_placement;
          Alcotest.test_case "clustering applied" `Quick test_pager_clustering_applied;
          Alcotest.test_case "forget bounds churn" `Quick test_forget_bounds_churn;
        ] );
      ( "real disk",
        [
          Alcotest.test_case "block roundtrip" `Quick test_disk_roundtrip;
          Alcotest.test_case "pager block images" `Quick test_pager_real_block_images;
        ] );
      ( "usage",
        [
          Alcotest.test_case "counts" `Quick test_usage_counts;
          Alcotest.test_case "counts from both ends" `Quick test_usage_counts_both_directions;
          Alcotest.test_case "allocation-free re-crossings and resident hits" `Quick
            test_access_bookkeeping_allocation_free;
          Alcotest.test_case "allocation-free bounded pool" `Quick
            test_bounded_pool_allocation_free;
        ] );
      ( "clustering",
        [
          Alcotest.test_case "paper algorithm" `Quick test_cluster_paper_algorithm;
          Alcotest.test_case "cold neighbour pulled" `Quick test_cluster_pulls_cold_neighbour;
          Alcotest.test_case "sequential baseline" `Quick test_cluster_sequential;
          Alcotest.test_case "heap pack scales" `Quick test_pack_scaling;
        ] );
      ( "incremental recluster",
        [
          Alcotest.test_case "matches full repack" `Quick test_incremental_matches_full;
          Alcotest.test_case "new instances survive migration" `Quick
            test_incremental_new_instances_survive;
        ] );
      ("properties", qcheck_cases);
    ]
