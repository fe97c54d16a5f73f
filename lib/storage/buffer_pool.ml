(* LRU implemented as a doubly-linked list of frames plus a flat index
   by block number (blocks are small dense ints).  The list head is the
   most recently used frame.  A pool of capacity [max_int] never evicts,
   so it keeps no recency order: a hit only bumps the hit counter, and
   the list just holds every resident frame (newest miss first).

   Frames carry a dirty bit: a dirty frame's block image is re-rendered
   (via the pager-installed [render] callback) and written back to the
   device when the frame is evicted or the pool is flushed.  On a
   simulated device the write-back is a counter bump; on a real device
   it is a physical block write. *)

type frame = {
  block : int;
  mutable dirty : bool;
  mutable prev : frame option;
  mutable next : frame option;
}

type t = {
  cap : int;
  disk : Disk.t;
  mutable index : frame option array;  (* by block number *)
  mutable head : frame option;
  mutable tail : frame option;
  mutable count : int;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable writeback_count : int;
  mutable render : (int -> bytes) option;
      (* current block image, for write-back; installed by the pager *)
}

let create ~capacity disk =
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity must be >= 1";
  {
    cap = capacity;
    disk;
    index = Array.make 64 None;
    head = None;
    tail = None;
    count = 0;
    hit_count = 0;
    miss_count = 0;
    writeback_count = 0;
    render = None;
  }

let set_render t f = t.render <- Some f

let ensure t block =
  let n = Array.length t.index in
  if block >= n then begin
    let bigger = Array.make (max (block + 1) (2 * n)) None in
    Array.blit t.index 0 bigger 0 n;
    t.index <- bigger
  end

let unlink t f =
  (match f.prev with Some p -> p.next <- f.next | None -> t.head <- f.next);
  (match f.next with Some n -> n.prev <- f.prev | None -> t.tail <- f.prev);
  f.prev <- None;
  f.next <- None

let push_front t f =
  f.next <- t.head;
  f.prev <- None;
  (match t.head with Some h -> h.prev <- Some f | None -> t.tail <- Some f);
  t.head <- Some f

let write_back t f =
  if f.dirty then begin
    f.dirty <- false;
    t.writeback_count <- t.writeback_count + 1;
    Cactis_obs.Flight.record Cactis_obs.Flight.Pager_writeback ~a:f.block ~b:t.writeback_count;
    match t.render with
    | Some render -> Disk.write_block t.disk f.block (render f.block)
    | None -> Disk.write t.disk
  end

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some f ->
    write_back t f;
    unlink t f;
    t.index.(f.block) <- None;
    t.count <- t.count - 1

let touch ?(dirty = false) t block =
  ensure t block;
  match t.index.(block) with
  | Some f ->
    t.hit_count <- t.hit_count + 1;
    if dirty then f.dirty <- true;
    if t.cap <> max_int then begin
      match t.head with
      | Some h when h == f -> ()  (* already most recent: skip the relink *)
      | _ ->
        unlink t f;
        push_front t f
    end;
    `Hit
  | None ->
    t.miss_count <- t.miss_count + 1;
    Cactis_obs.Flight.record Cactis_obs.Flight.Pager_miss ~a:block ~b:t.miss_count;
    ignore (Disk.read_block t.disk block);
    if t.count >= t.cap then evict_lru t;
    let f = { block; dirty; prev = None; next = None } in
    t.index.(block) <- Some f;
    push_front t f;
    t.count <- t.count + 1;
    `Miss

(* [mark_dirty t block] — set the dirty bit if the block is resident;
   does not affect LRU order or hit/miss statistics (the caller has just
   touched the block). *)
let mark_dirty t block =
  if block < Array.length t.index then
    match t.index.(block) with Some f -> f.dirty <- true | None -> ()

let resident t block = block < Array.length t.index && t.index.(block) <> None

let contents t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some f -> walk (f.block :: acc) f.next
  in
  walk [] t.head

let capacity t = t.cap
let hits t = t.hit_count
let misses t = t.miss_count
let writebacks t = t.writeback_count

let clear t =
  Array.fill t.index 0 (Array.length t.index) None;
  t.head <- None;
  t.tail <- None;
  t.count <- 0

let flush t =
  let rec walk = function
    | None -> ()
    | Some f ->
      write_back t f;
      walk f.next
  in
  walk t.head;
  clear t

(* [drop_all t] empties the pool without writing anything back — used
   when the placement map the render callback reads is about to be
   replaced wholesale (re-clustering), making the frames' images stale
   by construction. *)
let drop_all t = clear t

let reset_stats t =
  t.hit_count <- 0;
  t.miss_count <- 0;
  t.writeback_count <- 0
