(* Instance ids are small dense ints, so the access counts live in one
   flat array (grown on demand) rather than a hash table — the engine
   bumps it on every instance touch. *)
type t = { mutable instance_counts : int array }

let create () = { instance_counts = Array.make 64 0 }

let touch_instance t id =
  let n = Array.length t.instance_counts in
  if id >= n then begin
    let bigger = Array.make (max (id + 1) (2 * n)) 0 in
    Array.blit t.instance_counts 0 bigger 0 n;
    t.instance_counts <- bigger
  end;
  t.instance_counts.(id) <- t.instance_counts.(id) + 1

let instance_count t id =
  if id < Array.length t.instance_counts then t.instance_counts.(id) else 0

let instances t =
  let acc = ref [] in
  Array.iteri (fun id c -> if c > 0 then acc := (id, c) :: !acc) t.instance_counts;
  !acc

let forget_instance t id = if id < Array.length t.instance_counts then t.instance_counts.(id) <- 0
let reset t = Array.fill t.instance_counts 0 (Array.length t.instance_counts) 0
