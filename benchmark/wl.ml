(* The four workloads: their sizes and their seeded operation streams.

   browse        served   OCB base, 97% depth-4 traversals / 3% commits
   plan_edit     served   milestone plan behind a durable (fsync-per-commit) writer
   plan_embedded in-process milestone plan: the engine with nothing around it
   cold_traverse in-process OCB base on a real block file, far larger than the pool

   README.md says why each one was chosen. *)

type name = Browse | Plan_edit | Plan_embedded | Cold_traverse

let all = [ Browse; Plan_edit; Plan_embedded; Cold_traverse ]

let to_string = function
  | Browse -> "browse"
  | Plan_edit -> "plan_edit"
  | Plan_embedded -> "plan_embedded"
  | Cold_traverse -> "cold_traverse"

let of_string s = List.find_opt (fun w -> to_string w = s) all
let served = function Browse | Plan_edit -> true | Plan_embedded | Cold_traverse -> false

(* [tiny] sizes serve the smoke check only; every reported number uses
   the full sizes. *)
type size = {
  objects : int;  (* OCB objects *)
  layers : int;  (* plan layers *)
  width : int;  (* milestones per layer *)
}

let size ~tiny = function
  | Browse | Cold_traverse ->
    { objects = (if tiny then 2_000 else 100_000); layers = 0; width = 0 }
  | Plan_edit ->
    { objects = 0; layers = (if tiny then 4 else 40); width = (if tiny then 10 else 100) }
  | Plan_embedded ->
    { objects = 0; layers = (if tiny then 5 else 60); width = (if tiny then 20 else 200) }

let fanout = 3
let module_size = 64
let locality = 0.9
let depth = 4
let readers = 2
let clients = 2

let ocb ~data_seed sz =
  Gen.ocb ~seed:data_seed ~objects:sz.objects ~fanout ~module_size ~locality

let plan ~data_seed sz = Gen.plan ~seed:data_seed ~layers:sz.layers ~width:sz.width

(* Operations address objects by generator index (id = first id +
   index).  Milestone index 0 is [ship]. *)
type op =
  | Traverse of int
  | Set_payload of (int * int) list  (* one transaction *)
  | Set_work of int * float
  | Ask of int  (* ship's exp_compl, then this milestone's late *)

type kind = Read | Commit

let kind = function
  | Traverse _ | Ask _ -> Read
  | Set_payload _ | Set_work _ -> Commit

let verb = function
  | Traverse _ -> "traverse"
  | Ask _ -> "ask"
  | Set_payload _ | Set_work _ -> "commit"

(* Ranks [0, n) of a Zipf table dealt round-robin over [strata] (each a
   list of items in seeded order), starting from the middle stratum:
   rank k comes from stratum (k + strata/2) mod strata.  Every seed then
   gets a hot set with the same profile over the strata, instead of one
   whose few hottest items happen to sit all at one end. *)
let deal strata =
  let k = Array.length strata in
  let next = Array.make k 0 in
  let n = Array.fold_left (fun a s -> a + Array.length s) 0 strata in
  let out = Array.make n 0 in
  let s = ref (k / 2) in
  for rank = 0 to n - 1 do
    while next.(!s) >= Array.length strata.(!s) do
      s := (!s + 1) mod k
    done;
    out.(rank) <- strata.(!s).(next.(!s));
    next.(!s) <- next.(!s) + 1;
    s := (!s + 1) mod k
  done;
  out

(* Cold traversal roots: the 2000 hottest ranks are dealt over 20
   strata of objects by the size of their depth-[depth] closure (what a
   traversal from them costs); colder ranks take the remaining objects
   in seeded order. *)
let hot_roots r ~population ~reach =
  let perm = Gen.permutation r population in
  let hot = min population 2000 in
  let cand = Array.sub perm 0 hot in
  Array.stable_sort (fun a b -> compare (reach a) (reach b)) cand;
  let strata = 20 in
  let size = (hot + strata - 1) / strata in
  let stratum s = Array.sub cand (s * size) (max 0 (min size (hot - (s * size)))) in
  let dealt = deal (Array.init strata stratum) in
  Array.append dealt (Array.sub perm hot (population - hot))

(* The operation stream of one client ([stream_id]) for a workload with
   [population] objects, or milestones in layers of [width].  [reach]
   gives a cold traversal's reference answer. *)
let stream ?reach w ~op_seed ~stream_id ~population ~width =
  let r = Gen.rng (Gen.derive op_seed (100 + stream_id)) in
  match w with
  | Browse ->
    (* Uniform roots keep both readers busy. *)
    fun () ->
      if Gen.int r 100 < 3 then Set_payload [ (Gen.int r population, Gen.int r 1_000_000) ]
      else Traverse (Gen.int r population)
  | Cold_traverse ->
    (* Same hot set for every stream: the table is seeded by op_seed
       alone. *)
    let reach = Option.get reach in
    let z = Gen.zipf ~theta:1.1 (hot_roots (Gen.rng (Gen.derive op_seed 7)) ~population ~reach) in
    fun () ->
      if Gen.int r 100 < 5 then
        Set_payload (List.init 4 (fun _ -> (Gen.zipf_draw z r, Gen.int r 1_000_000)))
      else Traverse (Gen.zipf_draw z r)
  | Plan_edit | Plan_embedded ->
    (* Slip a milestone, then ask the two derived questions together:
       the ship date and whether a milestone is late.  One ask is one
       read, so read latency is that of the whole answer, not a mix of
       two kinds of read whose median falls between them.  Milestones
       under Zipf(0.9), ranks dealt over the layers (what a slip costs
       depends on its depth alone). *)
    let layers = (population - 1) / width in
    let r7 = Gen.rng (Gen.derive op_seed 7) in
    let layer l = Array.map (fun p -> 1 + (l * width) + p) (Gen.permutation r7 width) in
    let z = Gen.zipf ~theta:0.9 (deal (Array.init layers layer)) in
    let slip = ref true in
    fun () ->
      let s = !slip in
      slip := not s;
      if s then Set_work (Gen.zipf_draw z r, Gen.work_estimate r) else Ask (Gen.zipf_draw z r)
