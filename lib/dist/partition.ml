module Store = Cactis.Store
module Instance = Cactis.Instance
module Cluster = Cactis_storage.Cluster
module Rng = Cactis_util.Rng

type t = {
  site_count : int;
  placement : (int, int) Hashtbl.t;
  bounds : int array;  (* by_range only: bounds.(s) = lowest id of site s *)
}

let sites t = t.site_count
let site_of t id = Hashtbl.find_opt t.placement id

let balance t =
  let counts = Array.make t.site_count 0 in
  Hashtbl.iter (fun _ s -> counts.(s) <- counts.(s) + 1) t.placement;
  counts

let check_sites sites = if sites < 1 then invalid_arg "Partition: sites must be >= 1"

let random rng ~ids ~sites =
  check_sites sites;
  let placement = Hashtbl.create (List.length ids) in
  List.iter (fun id -> Hashtbl.replace placement id (Rng.int rng sites)) ids;
  { site_count = sites; placement; bounds = [||] }

let round_robin ~ids ~sites =
  check_sites sites;
  let placement = Hashtbl.create (List.length ids) in
  List.iteri (fun i id -> Hashtbl.replace placement id (i mod sites)) (List.sort compare ids);
  { site_count = sites; placement; bounds = [||] }

(* A site is a block whose capacity is its share of the database; the
   paper's greedy clustering then gravitates hot, tightly-linked
   instances onto the same site. *)
let by_usage store ~sites =
  check_sites sites;
  let ids = Store.instance_ids store in
  let n = List.length ids in
  let capacity = max 1 ((n + sites - 1) / sites) in
  let instances, links = Store.usage_snapshot store in
  let assignment = Cluster.pack ~block_capacity:capacity ~instances ~links in
  (* The greedy packer may open more "blocks" than sites when capacities
     round awkwardly; fold the overflow back round-robin. *)
  let placement = Hashtbl.create n in
  Hashtbl.iter
    (fun id block -> Hashtbl.replace placement id (block mod sites))
    assignment.Cluster.block_of;
  { site_count = sites; placement; bounds = [||] }

(* Contiguous id-range sharding: sorted ids split into [sites] chunks of
   (near-)equal size.  Unlike the hash/usage placements above, a range
   placement can route an id it has never seen — [site_of_range] only
   compares against the chunk boundaries — which is what a server wants
   when new instances are created after the partition was drawn. *)
let by_range ~ids ~sites =
  check_sites sites;
  let sorted = List.sort_uniq compare ids in
  let n = List.length sorted in
  let arr = Array.of_list sorted in
  let chunk = max 1 ((n + sites - 1) / sites) in
  let bounds =
    Array.init sites (fun s ->
        if n = 0 then 0 else arr.(min (s * chunk) (n - 1)))
  in
  (* First bound covers everything below it too. *)
  if sites > 0 then bounds.(0) <- min_int;
  let placement = Hashtbl.create n in
  Array.iteri (fun i id -> Hashtbl.replace placement id (min (sites - 1) (i / chunk))) arr;
  { site_count = sites; placement; bounds }

let site_of_range t id =
  if Array.length t.bounds = 0 then invalid_arg "Partition.site_of_range: not a range partition";
  let s = ref 0 in
  for i = 1 to t.site_count - 1 do
    if id >= t.bounds.(i) then s := i
  done;
  !s

let range_bounds t = Array.copy t.bounds

let traffic store t ~cross =
  Store.crossings store
  |> List.fold_left
       (fun acc ({ Store.from_instance; to_instance; _ }, count) ->
         match (site_of t from_instance, site_of t to_instance) with
         | Some a, Some b when (a <> b) = cross -> acc + count
         | Some _, Some _ -> acc
         | None, _ | _, None -> acc)
       0

let cross_site_traffic store t = traffic store t ~cross:true
let local_traffic store t = traffic store t ~cross:false
