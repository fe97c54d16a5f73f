module Symbol = Cactis_util.Symbol

type crossing = {
  from_instance : int;
  rel : string;
  to_instance : int;
}

(* Instance ids are small dense ints, so every statistic lives in flat
   per-instance arrays (grown on demand) rather than hash tables — the
   engine bumps one on every instance touch and relationship crossing.

   Crossings are canonicalized so that (a, r, b) and (b, r, a) share a
   counter: the paper accumulates a single usage count per relationship
   link regardless of traversal direction.  A canonical crossing
   (lo <= hi) is stored with its lower id: [edges.(lo)] is a growable
   int array of (rel_sym, hi, count) triples, the first [edges_n.(lo)]
   of which are in use.  Recording a crossing is one index plus a scan of
   lo's few crossings, and allocates nothing once the link has been
   crossed before. *)
type t = {
  mutable instance_counts : int array;
  mutable edges : int array array;
  mutable edges_n : int array;  (* triples in use, per lower id *)
}

let no_edges = [||]

let create () =
  { instance_counts = Array.make 64 0; edges = Array.make 64 no_edges; edges_n = Array.make 64 0 }

let grow a n fill =
  let bigger = Array.make n fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let ensure t id =
  let n = Array.length t.instance_counts in
  if id >= n then begin
    let m = max (id + 1) (2 * n) in
    t.instance_counts <- grow t.instance_counts m 0;
    t.edges <- grow t.edges m no_edges;
    t.edges_n <- grow t.edges_n m 0
  end

let touch_instance t id =
  if id >= Array.length t.instance_counts then ensure t id;
  t.instance_counts.(id) <- t.instance_counts.(id) + 1

(* Offset of the (rel_sym, hi) triple in [e], scanning down from offset
   [i]; -1 when absent. *)
let rec scan (e : int array) rel_sym hi i =
  if i < 0 || (e.(i + 1) = hi && e.(i) = rel_sym) then i else scan e rel_sym hi (i - 3)

let find t lo rel_sym hi =
  if lo >= Array.length t.edges then -1
  else scan t.edges.(lo) rel_sym hi ((3 * t.edges_n.(lo)) - 3)

let add t lo rel_sym hi =
  let n = t.edges_n.(lo) in
  let e = t.edges.(lo) in
  let e =
    if 3 * n < Array.length e then e
    else begin
      let bigger = grow e (max 6 (2 * Array.length e)) 0 in
      t.edges.(lo) <- bigger;
      bigger
    end
  in
  e.(3 * n) <- rel_sym;
  e.((3 * n) + 1) <- hi;
  e.((3 * n) + 2) <- 1;
  t.edges_n.(lo) <- n + 1

let cross_sym t ~from_instance ~rel_sym ~to_instance =
  let lo = if from_instance <= to_instance then from_instance else to_instance in
  let hi = if from_instance <= to_instance then to_instance else from_instance in
  let i = find t lo rel_sym hi in
  if i >= 0 then begin
    let e = t.edges.(lo) in
    e.(i + 2) <- e.(i + 2) + 1
  end
  else begin
    ensure t lo;
    add t lo rel_sym hi
  end

let cross t ~from_instance ~rel ~to_instance =
  cross_sym t ~from_instance ~rel_sym:(Symbol.intern rel) ~to_instance

let instance_count t id =
  if id < Array.length t.instance_counts then t.instance_counts.(id) else 0

let crossing_count t ~from_instance ~rel ~to_instance =
  let lo = if from_instance <= to_instance then from_instance else to_instance in
  let hi = if from_instance <= to_instance then to_instance else from_instance in
  let i = find t lo (Symbol.intern rel) hi in
  if i < 0 then 0 else t.edges.(lo).(i + 2)

let instances t =
  let acc = ref [] in
  Array.iteri (fun id c -> if c > 0 then acc := (id, c) :: !acc) t.instance_counts;
  !acc

let fold_crossings f t acc =
  let acc = ref acc in
  Array.iteri
    (fun lo e ->
      for j = 0 to t.edges_n.(lo) - 1 do
        acc := f lo e.(3 * j) e.((3 * j) + 1) e.((3 * j) + 2) !acc
      done)
    t.edges;
  !acc

let crossings t =
  fold_crossings
    (fun lo rel_sym hi c acc ->
      ({ from_instance = lo; rel = Symbol.name rel_sym; to_instance = hi }, c) :: acc)
    t []

let rel_totals t =
  let totals = Hashtbl.create 16 in
  fold_crossings
    (fun _ rel_sym _ c () ->
      Hashtbl.replace totals rel_sym (c + Option.value ~default:0 (Hashtbl.find_opt totals rel_sym)))
    t ();
  Hashtbl.fold (fun sym c acc -> (Symbol.name sym, c) :: acc) totals []
  |> List.sort (fun (a, ca) (b, cb) -> match compare cb ca with 0 -> compare a b | c -> c)

(* Drop lo's triples whose higher id is [hi], keeping the rest in order. *)
let drop_hi t lo hi =
  let e = t.edges.(lo) in
  let kept = ref 0 in
  for j = 0 to t.edges_n.(lo) - 1 do
    if e.((3 * j) + 1) <> hi then begin
      if !kept <> j then Array.blit e (3 * j) e (3 * !kept) 3;
      incr kept
    end
  done;
  t.edges_n.(lo) <- !kept

(* Crossings naming [id] sit under [id] itself (as the lower id) or under
   a smaller id (as the higher one). *)
let forget_instance t id =
  let n = Array.length t.edges in
  if id < n then begin
    t.instance_counts.(id) <- 0;
    t.edges.(id) <- no_edges;
    t.edges_n.(id) <- 0
  end;
  for lo = 0 to min id n - 1 do
    if t.edges_n.(lo) > 0 then drop_hi t lo id
  done

let reset t =
  Array.fill t.instance_counts 0 (Array.length t.instance_counts) 0;
  Array.fill t.edges 0 (Array.length t.edges) no_edges;
  Array.fill t.edges_n 0 (Array.length t.edges_n) 0
