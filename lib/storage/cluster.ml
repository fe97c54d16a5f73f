type link = {
  a : int;
  b : int;
  rel : string;
  count : int;
}

type assignment = {
  block_of : (int, int) Hashtbl.t;
  block_count : int;
}

type strategy =
  | Sequential
  | Greedy
  | Dstc
  | Bfs_affinity

let all_strategies = [ Sequential; Greedy; Dstc; Bfs_affinity ]

let strategy_name = function
  | Sequential -> "sequential"
  | Greedy -> "greedy"
  | Dstc -> "dstc"
  | Bfs_affinity -> "bfs-affinity"

let strategy_of_string = function
  | "sequential" -> Some Sequential
  | "greedy" -> Some Greedy
  | "dstc" -> Some Dstc
  | "bfs-affinity" | "bfs_affinity" | "bfs" -> Some Bfs_affinity
  | _ -> None

(* Shared adjacency builder: instance -> links touching it, restricted
   to links whose both ends are known instances. *)
let build_adj instances links =
  let known = Hashtbl.create (List.length instances) in
  List.iter (fun (id, _) -> Hashtbl.replace known id ()) instances;
  (* Sized for every instance up front: growing from a small table
     rehashes it a dozen times on a large graph. *)
  let adj : (int, link list ref) Hashtbl.t = Hashtbl.create (Hashtbl.length known) in
  let add_adj id l =
    match Hashtbl.find_opt adj id with
    | Some r -> r := l :: !r
    | None -> Hashtbl.add adj id (ref [ l ])
  in
  List.iter
    (fun l ->
      if Hashtbl.mem known l.a && Hashtbl.mem known l.b then begin
        add_adj l.a l;
        add_adj l.b l
      end)
    links;
  adj

(* ------------------------------------------------------------------ *)
(* Paper §2.3: greedy usage-count packing                              *)

(* The outer loop wants "the most referenced unassigned instance"; the
   inner loop wants "the highest-count link from the block to an
   unassigned outside instance".  Both are served by priority heaps with
   lazy deletion — entries whose instance has been assigned in the
   meantime are skipped when popped — so packing is O((V + E) log E)
   rather than the quadratic rescan of the literal pseudo-code.
   Priorities are negated (Pqueue is a min-heap) and tie-broken by
   instance id for determinism. *)

let priority count id = (-.float_of_int count) +. (float_of_int id *. 1e-9)

(* Instances (distinct ids) are numbered by their position in
   [instances], and the links between known instances become a
   compressed adjacency array: node i's neighbours are
   [nbr.(pos.(i + 1)) .. nbr.(pos.(i + 2) - 1)], newest link first (the
   order [build_adj]'s lists have), each with its link count.  Flat int
   arrays keep the packing loop's working set small: on large graphs
   the hash tables and per-link list cells it replaces made packing
   memory-bound. *)
let pack ~block_capacity ~instances ~links =
  if block_capacity < 1 then invalid_arg "Cluster.pack: block_capacity must be >= 1";
  let n = List.length instances in
  let id_of = Array.make n 0 and heat = Array.make n 0 in
  List.iteri
    (fun i (id, accesses) ->
      id_of.(i) <- id;
      heat.(i) <- accesses)
    instances;
  (* Id -> number: a flat array when ids are dense (instance ids are),
     else a hash table. *)
  let max_id = Array.fold_left max (-1) id_of in
  let ix =
    if max_id < 4 * (n + 16) && Array.for_all (fun id -> id >= 0) id_of then begin
      let index = Array.make (max_id + 1) (-1) in
      Array.iteri (fun i id -> index.(id) <- i) id_of;
      fun id -> if id >= 0 && id <= max_id then index.(id) else -1
    end
    else begin
      let index = Hashtbl.create n in
      Array.iteri (fun i id -> Hashtbl.replace index id i) id_of;
      fun id -> match Hashtbl.find_opt index id with Some i -> i | None -> -1
    end
  in
  (* [pos.(i + 1)] counts node i's link ends, then (prefix sums) marks
     the end of its range; filling decrements it, leaving the start of
     node i's range in [pos.(i + 1)] and its end in [pos.(i + 2)]. *)
  let pos = Array.make (n + 2) 0 in
  List.iter
    (fun l ->
      let a = ix l.a and b = ix l.b in
      if a >= 0 && b >= 0 then begin
        pos.(a + 1) <- pos.(a + 1) + 1;
        pos.(b + 1) <- pos.(b + 1) + 1
      end)
    links;
  for i = 1 to n do
    pos.(i) <- pos.(i) + pos.(i - 1)
  done;
  pos.(n + 1) <- pos.(n);
  let nbr = Array.make pos.(n) 0 and count = Array.make pos.(n) 0 in
  let add i other c =
    pos.(i + 1) <- pos.(i + 1) - 1;
    nbr.(pos.(i + 1)) <- other;
    count.(pos.(i + 1)) <- c
  in
  List.iter
    (fun l ->
      let a = ix l.a and b = ix l.b in
      if a >= 0 && b >= 0 then begin
        add a b l.count;
        add b a l.count
      end)
    links;
  let block = Array.make n (-1) in
  let block_of = Hashtbl.create n in
  let seeds = Cactis_util.Pqueue.create () in
  for i = 0 to n - 1 do
    Cactis_util.Pqueue.push seeds (priority heat.(i) id_of.(i)) i
  done;
  let next_block = ref 0 in
  let rec next_seed () =
    if Cactis_util.Pqueue.is_empty seeds then -1
    else
      let i = Cactis_util.Pqueue.pop seeds in
      if block.(i) >= 0 then next_seed () else i
  in
  (* One candidate heap, emptied for each block. *)
  let candidates = Cactis_util.Pqueue.create () in
  let assign_to_block b i =
    block.(i) <- b;
    (* Each instance is assigned once and ids are distinct. *)
    Hashtbl.add block_of id_of.(i) b;
    for k = pos.(i + 1) to pos.(i + 2) - 1 do
      let other = nbr.(k) in
      if block.(other) < 0 then
        Cactis_util.Pqueue.push candidates (priority count.(k) id_of.(other)) other
    done
  in
  let rec fill_block b used =
    if used < block_capacity && not (Cactis_util.Pqueue.is_empty candidates) then begin
      let i = Cactis_util.Pqueue.pop candidates in
      if block.(i) >= 0 then fill_block b used
      else begin
        assign_to_block b i;
        fill_block b (used + 1)
      end
    end
  in
  let rec outer () =
    let seed = next_seed () in
    if seed >= 0 then begin
      let b = !next_block in
      incr next_block;
      Cactis_util.Pqueue.clear candidates;
      assign_to_block b seed;
      fill_block b 1;
      outer ()
    end
  in
  outer ();
  { block_of; block_count = !next_block }

let sequential ~block_capacity ~instances =
  if block_capacity < 1 then invalid_arg "Cluster.sequential: block_capacity must be >= 1";
  let sorted = List.sort compare instances in
  let block_of = Hashtbl.create (List.length sorted) in
  let n = ref 0 in
  List.iteri (fun i id ->
      let block = i / block_capacity in
      Hashtbl.replace block_of id block;
      n := block + 1)
    sorted;
  { block_of; block_count = !n }

(* ------------------------------------------------------------------ *)
(* DSTC-style dynamic statistics clustering                            *)

(* After Bullat & Schneider's DSTC as surveyed by Darmont & Gruenwald:
   clustering units are built bottom-up from the *link* statistics —
   the hottest links are consolidated first, agglomerating instances
   into units no larger than a block — and the units are then laid out
   by descending unit heat (first-fit decreasing into blocks).  Where
   the paper's greedy algorithm grows one block at a time from the
   hottest *instance*, DSTC optimizes the hottest *edges* globally,
   which keeps tightly-coupled pairs together even when neither end is
   individually hot. *)

let pack_dstc ~block_capacity ~instances ~links =
  if block_capacity < 1 then invalid_arg "Cluster.pack_dstc: block_capacity must be >= 1";
  let n = List.length instances in
  let known = Hashtbl.create n in
  List.iter (fun (id, heat) -> Hashtbl.replace known id heat) instances;
  (* Union-find with size caps: merging never builds a unit larger than
     a block, so layout is a plain bin pack of whole units. *)
  let parent = Hashtbl.create n in
  let size = Hashtbl.create n in
  let heat = Hashtbl.create n in
  List.iter
    (fun (id, h) ->
      Hashtbl.replace parent id id;
      Hashtbl.replace size id 1;
      Hashtbl.replace heat id h)
    instances;
  let rec find id =
    let p = Hashtbl.find parent id in
    if p = id then id
    else begin
      let root = find p in
      Hashtbl.replace parent id root;
      root
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then begin
      let sa = Hashtbl.find size ra and sb = Hashtbl.find size rb in
      if sa + sb <= block_capacity then begin
        (* Canonical root: smaller id, for determinism. *)
        let keep, drop = if ra < rb then (ra, rb) else (rb, ra) in
        Hashtbl.replace parent drop keep;
        Hashtbl.replace size keep (sa + sb);
        Hashtbl.replace heat keep (Hashtbl.find heat ra + Hashtbl.find heat rb)
      end
    end
  in
  (* Hottest links first; ties by (a, b) for determinism. *)
  let sorted_links =
    links
    |> List.filter (fun l -> l.a <> l.b && Hashtbl.mem known l.a && Hashtbl.mem known l.b)
    |> List.sort (fun l1 l2 ->
           match compare l2.count l1.count with
           | 0 -> compare (min l1.a l1.b, max l1.a l1.b) (min l2.a l2.b, max l2.a l2.b)
           | c -> c)
  in
  List.iter (fun l -> union l.a l.b) sorted_links;
  (* Gather units, order by descending heat (tie: smallest member id). *)
  let members = Hashtbl.create n in
  List.iter
    (fun (id, _) ->
      let r = find id in
      match Hashtbl.find_opt members r with
      | Some l -> l := id :: !l
      | None -> Hashtbl.add members r (ref [ id ]))
    instances;
  let units =
    Hashtbl.fold
      (fun root l acc ->
        let ids = List.sort compare !l in
        (Hashtbl.find heat root, List.hd ids, ids) :: acc)
      members []
    |> List.sort (fun (h1, m1, _) (h2, m2, _) ->
           match compare h2 h1 with 0 -> compare m1 m2 | c -> c)
  in
  (* First-fit decreasing into blocks. *)
  let block_of = Hashtbl.create n in
  let block_used = ref [||] in
  let block_count = ref 0 in
  let place ids =
    let need = List.length ids in
    let rec first_fit b =
      if b >= !block_count then begin
        if !block_count >= Array.length !block_used then begin
          let bigger = Array.make (max 16 (2 * Array.length !block_used)) 0 in
          Array.blit !block_used 0 bigger 0 (Array.length !block_used);
          block_used := bigger
        end;
        incr block_count;
        b
      end
      else if !block_used.(b) + need <= block_capacity then b
      else first_fit (b + 1)
    in
    let b = first_fit 0 in
    !block_used.(b) <- !block_used.(b) + need;
    List.iter (fun id -> Hashtbl.replace block_of id b) ids
  in
  List.iter (fun (_, _, ids) -> place ids) units;
  { block_of; block_count = !block_count }

(* ------------------------------------------------------------------ *)
(* BFS / type-affinity placement                                       *)

(* The static placement-tree family in the Darmont & Gruenwald taxonomy
   (Cactis's contemporaries ORION / O2): ignore dynamic counts and lay
   instances out in breadth-first traversal order of the structural
   graph — children next to parents, siblings adjacent — on the theory
   that applications traverse composition hierarchies breadth-first.
   Seeds are picked by access count (hottest component first) so
   disconnected components still order sensibly; within a frontier,
   neighbours are visited grouped by relationship name (type affinity),
   then by id. *)

let pack_bfs ~block_capacity ~instances ~links =
  if block_capacity < 1 then invalid_arg "Cluster.pack_bfs: block_capacity must be >= 1";
  let adj = build_adj instances links in
  let block_of = Hashtbl.create (List.length instances) in
  let placed = ref 0 in
  let order = Queue.create () in
  let visited = Hashtbl.create (List.length instances) in
  let visit id =
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.replace visited id ();
      Queue.push id order
    end
  in
  let seeds =
    List.sort
      (fun (id1, h1) (id2, h2) -> match compare h2 h1 with 0 -> compare id1 id2 | c -> c)
      instances
  in
  List.iter
    (fun (seed, _) ->
      if not (Hashtbl.mem visited seed) then begin
        visit seed;
        (* Plain FIFO BFS; the queue outlives each seed's component. *)
        let frontier = Queue.create () in
        Queue.push seed frontier;
        while not (Queue.is_empty frontier) do
          let id = Queue.pop frontier in
          let neighbours =
            (match Hashtbl.find_opt adj id with Some r -> !r | None -> [])
            |> List.map (fun l -> ((l.rel : string), if l.a = id then l.b else l.a))
            |> List.sort compare
          in
          List.iter
            (fun (_, other) ->
              if not (Hashtbl.mem visited other) then begin
                visit other;
                Queue.push other frontier
              end)
            neighbours
        done
      end)
    seeds;
  let block_count = ref 0 in
  Queue.iter
    (fun id ->
      let b = !placed / block_capacity in
      Hashtbl.replace block_of id b;
      incr placed;
      block_count := b + 1)
    order;
  { block_of; block_count = !block_count }

(* ------------------------------------------------------------------ *)

let pack_with strategy ~block_capacity ~instances ~links =
  match strategy with
  | Sequential -> sequential ~block_capacity ~instances:(List.map fst instances)
  | Greedy -> pack ~block_capacity ~instances ~links
  | Dstc -> pack_dstc ~block_capacity ~instances ~links
  | Bfs_affinity -> pack_bfs ~block_capacity ~instances ~links
