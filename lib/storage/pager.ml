(* Instance-to-block placement plus buffered access.

   Placement is a flat array (ids are small dense ints); each block also
   keeps its member list, which serves three needs: occupancy checks for
   slot reuse, the rendered block image for real-disk write-back, and
   bounded relocation during incremental re-clustering. *)

type t = {
  block_cap : int;
  disk_dev : Disk.t;
  buffer : Buffer_pool.t;
  (* Block of each instance id, -1 when unplaced.  Ids are small dense
     ints; a flat array keeps the per-touch placement lookup at one load
     on the hot path. *)
  mutable placement : int array;
  (* Members of each block (unsorted).  Bounded by block_cap. *)
  mutable members : int list array;
  (* Blocks with reclaimed spare slots, newest first.  [in_free] guards
     against duplicate entries. *)
  mutable free_blocks : int list;
  mutable in_free : bool array;
  mutable tail_block : int;
  mutable tail_used : int;
}

(* Block image: [u16 LE member count][u32 LE id]*, zero-padded to the
   device block size by [Disk.write_block].  Members are sorted so the
   image is a function of the logical block contents alone. *)
let render_block t block =
  let ids =
    if block < Array.length t.members then List.sort compare t.members.(block) else []
  in
  let b = Bytes.create (2 + (4 * List.length ids)) in
  Bytes.set_uint16_le b 0 (List.length ids);
  List.iteri (fun i id -> Bytes.set_int32_le b (2 + (4 * i)) (Int32.of_int id)) ids;
  b

let create ?(block_capacity = 8) ?(buffer_capacity = 64) ?disk_path ?disk_block_bytes () =
  if block_capacity < 1 then invalid_arg "Pager.create: block_capacity must be >= 1";
  (match (disk_path, disk_block_bytes) with
  | Some _, Some bytes when bytes < 2 + (4 * block_capacity) ->
    invalid_arg "Pager.create: block image exceeds disk block size"
  | _ -> ());
  let disk_dev = Disk.create ?path:disk_path ?block_bytes:disk_block_bytes () in
  let t =
    {
      block_cap = block_capacity;
      disk_dev;
      buffer = Buffer_pool.create ~capacity:buffer_capacity disk_dev;
      placement = Array.make 256 (-1);
      members = Array.make 64 [];
      free_blocks = [];
      in_free = Array.make 64 false;
      tail_block = 0;
      tail_used = 0;
    }
  in
  Buffer_pool.set_render t.buffer (render_block t);
  t

let ensure t id =
  let n = Array.length t.placement in
  if id >= n then begin
    let bigger = Array.make (max (id + 1) (2 * n)) (-1) in
    Array.blit t.placement 0 bigger 0 n;
    t.placement <- bigger
  end

let ensure_block t block =
  let n = Array.length t.members in
  if block >= n then begin
    let cap = max (block + 1) (2 * n) in
    let bigger = Array.make cap [] in
    Array.blit t.members 0 bigger 0 n;
    t.members <- bigger;
    let bigger_free = Array.make cap false in
    Array.blit t.in_free 0 bigger_free 0 n;
    t.in_free <- bigger_free
  end

let occupancy t block =
  if block < Array.length t.members then List.length t.members.(block) else 0

let place t id block =
  ensure t id;
  ensure_block t block;
  t.placement.(id) <- block;
  t.members.(block) <- id :: t.members.(block);
  Buffer_pool.mark_dirty t.buffer block

let unplace t id =
  let block = t.placement.(id) in
  if block >= 0 then begin
    t.placement.(id) <- -1;
    t.members.(block) <- List.filter (fun m -> m <> id) t.members.(block);
    Buffer_pool.mark_dirty t.buffer block
  end;
  block

(* Pop a reclaimed block that still has spare capacity; entries whose
   slack has been consumed in the meantime are skipped (lazy deletion,
   as in the clustering heaps). *)
let rec pop_free t =
  match t.free_blocks with
  | [] -> None
  | b :: rest ->
    t.free_blocks <- rest;
    t.in_free.(b) <- false;
    if occupancy t b < t.block_cap then Some b else pop_free t

let register t id =
  ensure t id;
  if t.placement.(id) < 0 then begin
    match pop_free t with
    | Some b ->
      place t id b;
      (* Still slack after this placement: keep the block reclaimable. *)
      if occupancy t b < t.block_cap then begin
        t.free_blocks <- b :: t.free_blocks;
        t.in_free.(b) <- true
      end
    | None ->
      if t.tail_used >= t.block_cap then begin
        t.tail_block <- t.tail_block + 1;
        t.tail_used <- 0
      end;
      place t id t.tail_block;
      t.tail_used <- t.tail_used + 1
  end

(* Freed slots are reclaimed immediately when cheap: a resident block
   costs no I/O to extend, and the tail block is where appends land
   anyway.  Cold blocks are left alone — re-opening one would charge a
   disk read just to place an instance — and their slack is recovered by
   the next re-clustering. *)
let forget t id =
  if id < Array.length t.placement && t.placement.(id) >= 0 then begin
    let block = unplace t id in
    if
      (not t.in_free.(block))
      && (Buffer_pool.resident t.buffer block || block = t.tail_block)
    then begin
      t.free_blocks <- block :: t.free_blocks;
      t.in_free.(block) <- true
    end
  end

let block t id = if id < Array.length t.placement then t.placement.(id) else -1
let block_of t id = match block t id with -1 -> None | b -> Some b

let touch ?dirty t id =
  let block =
    if id < Array.length t.placement && t.placement.(id) >= 0 then t.placement.(id)
    else begin
      register t id;
      t.placement.(id)
    end
  in
  Buffer_pool.touch ?dirty t.buffer block

let mark_dirty t id =
  if id < Array.length t.placement && t.placement.(id) >= 0 then
    Buffer_pool.mark_dirty t.buffer t.placement.(id)

let resident t id =
  id < Array.length t.placement
  && t.placement.(id) >= 0
  && Buffer_pool.resident t.buffer t.placement.(id)

(* [relocate t id ~block] moves one instance, charging the buffered
   write access to both the old and the new block — the honest I/O cost
   of an incremental move (read either block if cold, write both back
   on eviction). *)
let relocate t id ~block =
  if id < Array.length t.placement && t.placement.(id) >= 0 then begin
    let old_block = t.placement.(id) in
    if old_block <> block then begin
      ignore (Buffer_pool.touch ~dirty:true t.buffer old_block);
      ignore (unplace t id);
      place t id block;
      ignore (Buffer_pool.touch ~dirty:true t.buffer block)
      (* The tail is deliberately left alone: the store reserves the
         whole target region via [advance_tail] when it cuts a plan, so
         appends during the migration land beyond it and plan moves stay
         the only writers of target blocks (capacity bound holds). *)
    end
  end

(* [advance_tail t block] makes future appends land at or beyond
   [block]; called when an incremental migration completes so new
   instances join the migrated region instead of the abandoned one. *)
let advance_tail t block =
  if block > t.tail_block then begin
    ensure_block t block;
    t.tail_block <- block;
    t.tail_used <- occupancy t block
  end

let apply_clustering t (assignment : Cluster.assignment) =
  (* The buffered images describe the old placement; they are stale by
     construction, so drop them without write-back. *)
  Buffer_pool.drop_all t.buffer;
  Array.fill t.placement 0 (Array.length t.placement) (-1);
  ensure_block t (max 0 (assignment.Cluster.block_count - 1));
  Array.fill t.members 0 (Array.length t.members) [];
  Array.fill t.in_free 0 (Array.length t.in_free) false;
  t.free_blocks <- [];
  Hashtbl.iter
    (fun id block ->
      ensure t id;
      ensure_block t block;
      t.placement.(id) <- block;
      t.members.(block) <- id :: t.members.(block))
    assignment.Cluster.block_of;
  (* New instances created after re-clustering go to fresh blocks. *)
  t.tail_block <- assignment.Cluster.block_count;
  t.tail_used <- 0;
  (* Materialize the reorganized database: on a real device every block
     image is rewritten in place and the file synced — the write cost of
     the paper's "periodic re-clustering", visible in the counters. *)
  if Disk.is_real t.disk_dev then begin
    for b = 0 to assignment.Cluster.block_count - 1 do
      Disk.write_block t.disk_dev b (render_block t b)
    done;
    Disk.sync t.disk_dev
  end

let disk t = t.disk_dev
let pool t = t.buffer
let block_capacity t = t.block_cap

let instances t =
  let acc = ref [] in
  Array.iteri (fun id b -> if b >= 0 then acc := id :: !acc) t.placement;
  !acc

(* Blocks currently holding at least one instance. *)
let blocks_in_use t =
  let n = ref 0 in
  Array.iter (fun ms -> if ms <> [] then incr n) t.members;
  !n

let members_of t block =
  if block < Array.length t.members then List.sort compare t.members.(block) else []

let reset_io t =
  (* Write-backs from the flush belong to the epoch being closed, so
     flush before zeroing the counters. *)
  Buffer_pool.flush t.buffer;
  Disk.reset t.disk_dev;
  Buffer_pool.reset_stats t.buffer

let sync t =
  Buffer_pool.flush t.buffer;
  Disk.sync t.disk_dev

let close t =
  Disk.close t.disk_dev
