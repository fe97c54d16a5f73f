(* Two parallel arrays: the priorities unboxed in a float array, the
   int payloads in an int array.  A push stores one float and one int
   and never goes through the write barrier; nothing is allocated once
   the arrays have grown to the queue's high-water mark.  The sift
   logic (strict [<], smaller child first, left child on ties) is the
   historical record heap's, so pop order, ties included, is
   unchanged. *)

type t = {
  mutable prio : float array;
  mutable data : int array;
  mutable size : int;
}

let create () = { prio = [||]; data = [||]; size = 0 }

let is_empty t = t.size = 0
let length t = t.size

let grow t =
  let cap = Array.length t.prio in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nprio = Array.make ncap 0.0 in
    Array.blit t.prio 0 nprio 0 t.size;
    let ndata = Array.make ncap 0 in
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
  grow t;
  t.prio.(t.size) <- prio;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then raise Not_found;
  let top = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.prio.(0) <- t.prio.(t.size);
    t.data.(0) <- t.data.(t.size);
    sift_down t 0
  end;
  top

let pop_opt t = if t.size = 0 then None else Some (pop t)

let peek_priority t = if t.size = 0 then None else Some t.prio.(0)

let clear t = t.size <- 0
