module Pqueue = Cactis_util.Pqueue
module Pager = Cactis_storage.Pager

type strategy =
  | Fifo
  | Cost_only
  | Greedy

(* Entries are numbered 0, 1, ... in schedule order and live in
   parallel int arrays; the two FIFO queues are int arrays with a read
   cursor (each entry enters each queue at most once, so neither needs
   to wrap), and the per-block pending lists are intrusive: [blk_head]
   maps a block to its newest entry, [blk_next] links each entry to the
   one scheduled on the same block before it.  All of it is kept across
   waves and cleared by [reset], so a wave allocates nothing once the
   arrays have grown to its size. *)

let consumed = 1
let promoted = 2  (* already moved to the high-priority queue *)

type t = {
  strategy : strategy;
  store : Store.t;
  mutable n : int;  (* entries scheduled since the last reset *)
  mutable count : int;  (* live (unconsumed) entries *)
  mutable inst : int array;
  mutable flags : int array;
  mutable blk_next : int array;
  mutable fifo : int array;
  mutable fifo_rd : int;
  mutable fifo_wr : int;
  mutable high : int array;
  mutable high_rd : int;
  mutable high_wr : int;
  cost_heap : Pqueue.t;
  mutable blk_head : int array;  (* by block number; -1 when no list *)
  mutable blocks : int array;  (* blocks given a list since the last reset *)
  mutable nblocks : int;
}

let create strategy store =
  {
    strategy;
    store;
    n = 0;
    count = 0;
    inst = Array.make 64 0;
    flags = Array.make 64 0;
    blk_next = Array.make 64 (-1);
    fifo = Array.make 64 0;
    fifo_rd = 0;
    fifo_wr = 0;
    high = Array.make 64 0;
    high_rd = 0;
    high_wr = 0;
    cost_heap = Pqueue.create ();
    blk_head = Array.make 64 (-1);
    blocks = Array.make 64 0;
    nblocks = 0;
  }

let strategy t = t.strategy

let grow a need fill =
  if need < Array.length a then a
  else begin
    let b = Array.make (max (need + 1) (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let reset t =
  t.n <- 0;
  t.count <- 0;
  t.fifo_rd <- 0;
  t.fifo_wr <- 0;
  t.high_rd <- 0;
  t.high_wr <- 0;
  Pqueue.clear t.cost_heap;
  for i = 0 to t.nblocks - 1 do
    t.blk_head.(t.blocks.(i)) <- -1
  done;
  t.nblocks <- 0

let push_high t e =
  t.flags.(e) <- t.flags.(e) lor promoted;
  t.high <- grow t.high t.high_wr 0;
  t.high.(t.high_wr) <- e;
  t.high_wr <- t.high_wr + 1

let add_to_block t block e =
  t.blk_head <- grow t.blk_head block (-1);
  let head = t.blk_head.(block) in
  if head < 0 then begin
    t.blocks <- grow t.blocks t.nblocks 0;
    t.blocks.(t.nblocks) <- block;
    t.nblocks <- t.nblocks + 1
  end;
  t.blk_next.(e) <- head;
  t.blk_head.(block) <- e

let schedule t ~instance ~cost =
  let e = t.n in
  if e = Array.length t.inst then begin
    t.inst <- grow t.inst e 0;
    t.flags <- grow t.flags e 0;
    t.blk_next <- grow t.blk_next e (-1)
  end;
  t.inst.(e) <- instance;
  t.flags.(e) <- 0;
  t.blk_next.(e) <- -1;
  t.n <- e + 1;
  t.count <- t.count + 1;
  (match t.strategy with
  | Fifo ->
    t.fifo <- grow t.fifo t.fifo_wr 0;
    t.fifo.(t.fifo_wr) <- e;
    t.fifo_wr <- t.fifo_wr + 1
  | Cost_only -> Pqueue.push t.cost_heap cost e
  | Greedy ->
    if Store.resident t.store instance then push_high t e
    else begin
      Pqueue.push t.cost_heap cost e;
      let block = Pager.block (Store.pager t.store) instance in
      if block >= 0 then add_to_block t block e
    end);
  e

(* Called when the chunk we are about to hand out will load [block]: all
   other pending chunks on that block become free and jump the queue,
   newest first. *)
let promote_block t block =
  if block < Array.length t.blk_head then begin
    let e = ref t.blk_head.(block) in
    while !e >= 0 do
      if t.flags.(!e) = 0 then push_high t !e;
      e := t.blk_next.(!e)
    done;
    t.blk_head.(block) <- -1
  end

let rec pop_fifo t =
  if t.fifo_rd = t.fifo_wr then -1
  else begin
    let e = t.fifo.(t.fifo_rd) in
    t.fifo_rd <- t.fifo_rd + 1;
    if t.flags.(e) land consumed <> 0 then pop_fifo t else e
  end

let rec pop_high t =
  if t.high_rd = t.high_wr then -1
  else begin
    let e = t.high.(t.high_rd) in
    t.high_rd <- t.high_rd + 1;
    if t.flags.(e) land consumed <> 0 then pop_high t else e
  end

let rec pop_heap t =
  if Pqueue.is_empty t.cost_heap then -1
  else begin
    let e = Pqueue.pop t.cost_heap in
    if t.flags.(e) <> 0 then pop_heap t else e
  end

let take t e =
  t.flags.(e) <- t.flags.(e) lor consumed;
  t.count <- t.count - 1;
  e

let next t =
  match t.strategy with
  | Fifo ->
    let e = pop_fifo t in
    if e < 0 then -1 else take t e
  | Cost_only ->
    let e = pop_heap t in
    if e < 0 then -1 else take t e
  | Greedy ->
    let e = pop_high t in
    if e >= 0 then take t e
    else begin
      let e = pop_heap t in
      if e < 0 then -1
      else begin
        (* Running this chunk will fault its block in; everything else on
           that block is then free. *)
        let block = Pager.block (Store.pager t.store) t.inst.(e) in
        if block >= 0 then promote_block t block;
        take t e
      end
    end

let scheduled t = t.n
let pending t = t.count
let is_empty t = t.count = 0
