(* LRU implemented as an intrusive circular doubly-linked list of
   frames through a sentinel, plus a flat index by block number (blocks
   are small dense ints; the sentinel marks an absent block).  The
   sentinel's [next] is the most recently used frame, its [prev] the
   least.  Relinking rewrites four pointers and allocates nothing; a
   miss in a full pool reuses the evicted frame, so a bounded pool
   allocates only while it first fills.  A pool of capacity [max_int]
   never evicts, so it keeps no recency order: a hit only bumps the hit
   counter, and the list just holds every resident frame (newest miss
   first).

   Frames carry a dirty bit: a dirty frame's block image is re-rendered
   (via the pager-installed [render] callback) and written back to the
   device when the frame is evicted or the pool is flushed.  On a
   simulated device the write-back is a counter bump; on a real device
   it is a physical block write. *)

type frame = {
  mutable block : int;
  mutable dirty : bool;
  mutable prev : frame;
  mutable next : frame;
}

type t = {
  cap : int;
  disk : Disk.t;
  lru : frame;  (* sentinel; [block] is -1 *)
  mutable index : frame array;  (* by block number; [lru] when absent *)
  mutable count : int;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable writeback_count : int;
  mutable render : (int -> bytes) option;
      (* current block image, for write-back; installed by the pager *)
}

let create ~capacity disk =
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity must be >= 1";
  let rec lru = { block = -1; dirty = false; prev = lru; next = lru } in
  {
    cap = capacity;
    disk;
    lru;
    index = Array.make 64 lru;
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
    let bigger = Array.make (max (block + 1) (2 * n)) t.lru in
    Array.blit t.index 0 bigger 0 n;
    t.index <- bigger
  end

let unlink f =
  f.prev.next <- f.next;
  f.next.prev <- f.prev

let push_front t f =
  f.prev <- t.lru;
  f.next <- t.lru.next;
  t.lru.next.prev <- f;
  t.lru.next <- f

let write_back t f =
  if f.dirty then begin
    f.dirty <- false;
    t.writeback_count <- t.writeback_count + 1;
    Cactis_obs.Flight.record Cactis_obs.Flight.Pager_writeback ~a:f.block ~b:t.writeback_count;
    match t.render with
    | Some render -> Disk.write_block t.disk f.block (render f.block)
    | None -> Disk.write t.disk
  end

let touch ?(dirty = false) t block =
  ensure t block;
  let f = t.index.(block) in
  if f != t.lru then begin
    t.hit_count <- t.hit_count + 1;
    if dirty then f.dirty <- true;
    (* A resident pool keeps no order; an MRU hit needs no relink. *)
    if t.cap <> max_int && t.lru.next != f then begin
      unlink f;
      push_front t f
    end;
    `Hit
  end
  else begin
    t.miss_count <- t.miss_count + 1;
    Cactis_obs.Flight.record Cactis_obs.Flight.Pager_miss ~a:block ~b:t.miss_count;
    ignore (Disk.read_block t.disk block);
    let f =
      if t.count >= t.cap then begin
        (* Evict the LRU frame and reuse it for [block]. *)
        let victim = t.lru.prev in
        write_back t victim;
        unlink victim;
        t.index.(victim.block) <- t.lru;
        victim.block <- block;
        victim.dirty <- dirty;
        victim
      end
      else begin
        t.count <- t.count + 1;
        { block; dirty; prev = t.lru; next = t.lru }
      end
    in
    t.index.(block) <- f;
    push_front t f;
    `Miss
  end

(* [mark_dirty t block] — set the dirty bit if the block is resident;
   does not affect LRU order or hit/miss statistics (the caller has just
   touched the block). *)
let mark_dirty t block =
  if block < Array.length t.index then begin
    let f = t.index.(block) in
    if f != t.lru then f.dirty <- true
  end

let resident t block = block < Array.length t.index && t.index.(block) != t.lru

let contents t =
  let rec walk acc f = if f == t.lru then List.rev acc else walk (f.block :: acc) f.next in
  walk [] t.lru.next

let capacity t = t.cap
let hits t = t.hit_count
let misses t = t.miss_count
let writebacks t = t.writeback_count

let clear t =
  Array.fill t.index 0 (Array.length t.index) t.lru;
  t.lru.next <- t.lru;
  t.lru.prev <- t.lru;
  t.count <- 0

let flush t =
  let rec walk f =
    if f != t.lru then begin
      write_back t f;
      walk f.next
    end
  in
  walk t.lru.next;
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
