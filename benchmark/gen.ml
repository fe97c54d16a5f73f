(* Input generators owned by the benchmark.

   Everything a run feeds the system is derived here from the run's
   seed: the OCB object base, the layered milestone plan and the
   operation streams.  The PRNG and the samplers are part of the
   benchmark too, so a change to the library's own generators
   ([Cactis_util.Rng], bench/workloads.ml) cannot move the inputs. *)

module Db = Cactis.Db
module Schema = Cactis.Schema
module Rule = Cactis.Rule
module Value = Cactis.Value

(* ---- SplitMix64 ---- *)

type rng = { mutable state : int64 }

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rng seed = { state = mix64 (Int64.of_int seed) }

let next r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  mix64 r.state

(* A seed derived from [seed] for one purpose ([tag]), so the data and
   the operation streams are independent but both fixed by [--seed]. *)
let derive seed tag =
  Int64.to_int (Int64.shift_right_logical (mix64 (Int64.of_int ((seed * 7919) + tag))) 34)

let int r bound = Int64.to_int (Int64.shift_right_logical (next r) 2) mod bound

(* Uniform in [0, 1). *)
let unit_float r =
  Int64.to_float (Int64.shift_right_logical (next r) 11) /. 9007199254740992.0

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ---- Zipf over ranks, weight (rank+1)^-theta ----

   [items.(rank)] is the item drawn at that rank; callers spread the
   ranks over the population with a seeded permutation, so the hot
   items are not simply the first ids. *)

type zipf = {
  cdf : float array;  (* cumulative weight, cdf.(n-1) = total *)
  items : int array;  (* rank -> item *)
}

let zipf ~theta items =
  let n = Array.length items in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (float_of_int (k + 1) ** -.theta);
    cdf.(k) <- !acc
  done;
  { cdf; items }

let permutation r n =
  let a = Array.init n Fun.id in
  shuffle r a;
  a

let zipf_draw z r =
  let n = Array.length z.cdf in
  let u = unit_float r *. z.cdf.(n - 1) in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) <= u then lo := mid + 1 else hi := mid
  done;
  z.items.(!lo)

(* Ids of a fresh database are handed out consecutively; the clients
   address objects as [first + index], so a loader checks this. *)
let check_contiguous what ids =
  Array.iteri
    (fun i id ->
      if id <> ids.(0) + i then
        failwith (Printf.sprintf "%s: instance ids are not contiguous at index %d" what i))
    ids

(* ---- OCB object base (Darmont & Gruenwald lineage) ----

   [n] objects with an integer payload, each referencing up to [fanout]
   distinct others.  References stay inside the object's module (a
   shuffled group of [module_size] objects) with probability
   [locality], else go to a uniformly random object.  OCB graphs are
   arbitrary digraphs, so the schema has no derived attributes. *)

type ocb = { refs : int array array (* object index -> referenced indices, link order *) }

let ocb_schema () =
  let sch = Schema.create () in
  Schema.add_type sch "obj";
  Schema.declare_relationship sch ~from_type:"obj" ~rel:"refs" ~to_type:"obj" ~inverse:"rrefs"
    ~card:Schema.Multi ~inverse_card:Schema.Multi;
  Schema.add_attr sch ~type_name:"obj" (Rule.intrinsic "payload" (Value.Int 0));
  sch

let ocb ~seed ~objects ~fanout ~module_size ~locality =
  let r = rng seed in
  let perm = Array.init objects Fun.id in
  shuffle r perm;
  let pos = Array.make objects 0 in
  Array.iteri (fun p k -> pos.(k) <- p) perm;
  let target j =
    if unit_float r < locality then begin
      let base = pos.(j) / module_size * module_size in
      perm.(base + int r (min module_size (objects - base)))
    end
    else int r objects
  in
  let refs =
    Array.init objects (fun j ->
        let out = ref [] in
        for _ = 1 to fanout do
          let k = target j in
          if k <> j && not (List.mem k !out) then out := k :: !out
        done;
        Array.of_list (List.rev !out))
  in
  { refs }

let ocb_size o = Array.length o.refs

(* [f j] for j in [0, n), 500 per transaction. *)
let batched db n f =
  let i = ref 0 in
  while !i < n do
    let stop = min n (!i + 500) in
    Db.with_txn db (fun () ->
        for j = !i to stop - 1 do
          f j
        done);
    i := stop
  done

(* Creates the objects (payload = index), then the links; returns the
   ids by index. *)
let ocb_load db o =
  let n = ocb_size o in
  let ids = Array.make n 0 in
  batched db n (fun j ->
      let id = Db.create_instance db "obj" in
      Db.set db id "payload" (Value.Int j);
      ids.(j) <- id);
  check_contiguous "ocb" ids;
  batched db n (fun j ->
      Array.iter (fun k -> Db.link db ~from_id:ids.(j) ~rel:"refs" ~to_id:ids.(k)) o.refs.(j));
  ids

(* Objects within [depth] hops of [root] along [refs], root included —
   the [visited] count a correct depth-bounded traversal returns. *)
let ocb_reach o ~root ~depth =
  let seen = Hashtbl.create 128 in
  let frontier = ref [ root ] in
  for _ = 0 to depth do
    let next = ref [] in
    List.iter
      (fun j ->
        if not (Hashtbl.mem seen j) then begin
          Hashtbl.add seen j ();
          Array.iter (fun k -> next := k :: !next) o.refs.(j)
        end)
      !frontier;
    frontier := !next
  done;
  Hashtbl.length seen

(* ---- Layered milestone plan (Figure 1 schema) ----

   Index 0 is the [ship] milestone; index [1 + l*width + i] is milestone
   [i] of layer [l].  [ship] depends on all of layer 0, and milestones
   of layer [l] depend on milestones of layer [l+1], so a slip deep in
   the plan ripples up to [ship]. *)

type plan = {
  layers : int;
  width : int;
  local_work : float array;
  sched : float array;
  deps : int array array;  (* milestone index -> depends_on indices *)
}

let plan_schema () = Cactis_ddl.Elaborate.load_string Schema_src.text

let plan ~seed ~layers ~width =
  let r = rng seed in
  let n = 1 + (layers * width) in
  let layer_of i = (i - 1) / width in
  let local_work = Array.init n (fun i -> if i = 0 then 1.0 else 1.0 +. (3.0 *. unit_float r)) in
  let sched =
    Array.init n (fun i ->
        if i = 0 then float_of_int (10 * layers) else float_of_int (10 * (layers - 1 - layer_of i)))
  in
  (* Within each layer the milestones stand in a seeded circular order,
     and each depends on the milestone at its own position and the next
     one in the layer below.  A slip k layers below layer 0 then reaches
     exactly (k+1)(k+2)/2 milestones on its way up to [ship]: what a
     slip costs depends on its depth alone, and the seed changes which
     milestones those are, not how many. *)
  let order = Array.init layers (fun _ -> permutation r width) in
  let at l p = 1 + (l * width) + order.(l).(p mod width) in
  let deps = Array.make n [||] in
  deps.(0) <- Array.init width (fun k -> 1 + k);
  for l = 0 to layers - 2 do
    for p = 0 to width - 1 do
      deps.(at l p) <- [| at (l + 1) p; at (l + 1) (p + 1) |]
    done
  done;
  { layers; width; local_work; sched; deps }

let plan_size p = Array.length p.deps

let plan_load db p =
  let n = plan_size p in
  let ids = Array.make n 0 in
  batched db n (fun j ->
      let id = Db.create_instance db "milestone" in
      Db.set db id "name" (Value.Str (if j = 0 then "ship" else Printf.sprintf "m%d" j));
      Db.set db id "sched_compl" (Value.Time (Cactis_util.Vtime.of_days p.sched.(j)));
      Db.set db id "local_work" (Value.Float p.local_work.(j));
      ids.(j) <- id);
  check_contiguous "plan" ids;
  batched db n (fun j ->
      Array.iter (fun k -> Db.link db ~from_id:ids.(j) ~rel:"depends_on" ~to_id:ids.(k)) p.deps.(j));
  ids

(* A new estimate for a slipped milestone: always a valid (>= 0) value,
   so no commit trips the [sane_work] constraint. *)
let work_estimate r = 1.0 +. (4.0 *. unit_float r)
