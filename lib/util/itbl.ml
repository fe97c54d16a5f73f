(* Open addressing with linear probing over two parallel int arrays.
   Keys are non-negative, so [-1] marks an empty slot; deletion shifts
   the following cluster back instead of leaving tombstones, so probe
   sequences never lengthen under insert/remove churn.  The load factor
   stays at most 1/2. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable size : int;
  mutable shift : int;  (* 63 - log2 capacity *)
}

let empty = -1

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

let create n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  { keys = Array.make !cap empty; vals = Array.make !cap 0; size = 0; shift = 63 - log2 !cap }

let length t = t.size

(* Fibonacci hashing: the top bits of the product spread packed
   (id, symbol) keys, whose low bits repeat, over the whole table. *)
let home t k = (k * 0x1E3779B97F4A7C15) lsr t.shift

let rec probe t k i =
  let x = t.keys.(i) in
  if x = k || x = empty then i else probe t k ((i + 1) land (Array.length t.keys - 1))

let slot t k = probe t k (home t k)

let mem t k = t.keys.(slot t k) = k

let find t k ~default =
  let i = slot t k in
  if t.keys.(i) = k then t.vals.(i) else default

let insert_fresh t k v =
  let i = slot t k in
  t.keys.(i) <- k;
  t.vals.(i) <- v

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap empty;
  t.vals <- Array.make cap 0;
  t.shift <- t.shift - 1;
  Array.iteri (fun i k -> if k <> empty then insert_fresh t k vals.(i)) keys

let replace t k v =
  if k < 0 then invalid_arg "Itbl.replace: negative key";
  let i = slot t k in
  if t.keys.(i) = k then t.vals.(i) <- v
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1;
    if 2 * t.size > Array.length t.keys then grow t
  end

let remove t k =
  let mask = Array.length t.keys - 1 in
  let i = slot t k in
  if t.keys.(i) = k then begin
    t.size <- t.size - 1;
    (* Backward shift: move each later member of the cluster whose home
       does not lie cyclically in (hole, j] into the hole. *)
    let hole = ref i and j = ref ((i + 1) land mask) in
    while t.keys.(!j) <> empty do
      let h = home t t.keys.(!j) in
      let stays = if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j in
      if not stays then begin
        t.keys.(!hole) <- t.keys.(!j);
        t.vals.(!hole) <- t.vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    t.keys.(!hole) <- empty
  end

let clear t =
  if t.size > 0 then begin
    Array.fill t.keys 0 (Array.length t.keys) empty;
    t.size <- 0
  end

let iter f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    if keys.(i) <> empty then f keys.(i) vals.(i)
  done

let fold f t acc =
  let keys = t.keys and vals = t.vals in
  let acc = ref acc in
  for i = 0 to Array.length keys - 1 do
    if keys.(i) <> empty then acc := f keys.(i) vals.(i) !acc
  done;
  !acc
