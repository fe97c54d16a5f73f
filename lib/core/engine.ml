module Counters = Cactis_util.Counters
module Decaying_avg = Cactis_util.Decaying_avg
module Symbol = Cactis_util.Symbol
module Itbl = Cactis_util.Itbl
module Clock = Cactis_obs.Clock
module Ctx = Cactis_obs.Ctx
module Histogram = Cactis_obs.Histogram
module Profile = Cactis_obs.Profile

type strategy =
  | Cactis
  | Eager_triggers
  | Recompute_all

type recovery = Store.t -> int -> (int * string * Value.t) list

(* ------------------------------------------------------------------ *)
(* Wave state                                                          *)

(* Everything one mark or evaluation wave needs besides the database,
   kept per engine and reset between waves instead of re-created, so a
   wave allocates (almost) nothing outside the rule bodies:

   - the chunk scheduler ({!Sched}), whose entries are numbered;
   - each scheduled chunk's payload in int columns indexed by that
     number ([e_*]): a mark target is (id, slot, symbol); a demand is
     (id, slot, requesting frame, crossed link as instance + rel
     symbol, -1 for none); a finish names its frame;
   - the frames of open evaluations, an arena of columns indexed by
     frame number ([f_*], costs in an unboxed float array), found by
     packed (id, attr symbol) key through [frames];
   - waiter lists, intrusive: [waiters] maps a key to its newest node,
     node k holds frame [w_frame.(k)] and links to [w_next.(k)];
   - one evaluation environment whose closures read the running
     frame's instance and slot from [cur_id]/[cur_ix].

   Columns only grow while the state is kept ([with_wave] says when it
   is not).  A wave started while another is running on the same engine
   (an observer callback reading an attribute, say) gets a fresh
   private state: [busy] marks the shared one as taken. *)
type wave = {
  mutable busy : bool;
  mutable chunks : Sched.t;
  mutable e_id : int array;
  mutable e_ix : int array;
  mutable e_sym : int array;  (* mark: target attribute symbol *)
  mutable e_frame : int array;  (* eval: frame to finish, -1 for a demand *)
  mutable e_parent : int array;  (* demand: requesting frame, or -1 *)
  mutable e_via_i : int array;  (* demand: requesting instance, or -1 *)
  mutable e_via_sym : int array;  (* demand: relationship symbol crossed *)
  mutable nframes : int;
  mutable f_id : int array;
  mutable f_ix : int array;
  mutable f_sym : int array;
  mutable f_pending : int array;
  mutable f_parent : int array;
  mutable f_via_i : int array;
  mutable f_via_sym : int array;
  mutable f_cost : float array;  (* block misses charged to this subtree *)
  frames : Itbl.t;  (* packed (id, attr sym) -> open frame *)
  waiters : Itbl.t;  (* packed (id, attr sym) -> newest waiter node *)
  mutable nnodes : int;
  mutable w_frame : int array;
  mutable w_next : int array;
  mutable cur_id : int;
  mutable cur_ix : int;
  mutable env : Schema.env;
}

(* Hot-path tables key on [Symbol.pack instance_id attr_symbol] — a
   single immediate int — instead of [(int * string)] pairs; attribute
   and dependency resolution goes through the schema's compiled layouts
   (slot indexes), so steady-state marking/evaluation never hashes a
   string. *)
type t = {
  store : Store.t;
  mutable strategy : strategy;
  mutable sched : Sched.strategy;
  watched : Itbl.t;  (* packed (id, attr sym) *)
  pending_important : Itbl.t;  (* packed (id, attr sym) *)
  recoveries : (string, recovery) Hashtbl.t;
  mutable repair : (int -> string -> Value.t -> unit) option;
  mutable in_recovery : bool;
  (* Constraint attrs observed false during the current evaluation run. *)
  mutable violations : (int * int) list;  (* (id, attr sym) *)
  (* Cached counter cells (shared with the registry; reset-safe). *)
  c_rule_evals : int ref;
  c_mark_visits : int ref;
  c_mark_cutoffs : int ref;
  c_eval_procs : int ref;
  c_demand_procs : int ref;
  c_constraint_checks : int ref;
  c_intrinsic_sets : int ref;
  c_misses : int ref;
  (* Observability: per-phase latency histograms (always on) and an
     optional propagation profile (installed per commit by
     [Db.set_profiling]). *)
  h_mark_wave : Histogram.h;
  h_eval_wave : Histogram.h;
  h_propagate : Histogram.h;
  mutable prof : Profile.t option;
  (* Bounded fixed-point evaluation of convergent cycles ([Far86]):
     [None] = off (cycles raise), [Some n] = iterate up to [n] sweeps. *)
  mutable fixpoint : int option;
  c_fixpoint_runs : int ref;
  c_fixpoint_sweeps : int ref;
  h_fixpoint_iters : Histogram.h;
  mutable wave : wave;
}

let slot_info (inst : Instance.t) ix =
  let lay = inst.Instance.layout in
  Schema.refresh_layout lay;
  lay.Schema.lay_slots.(ix)

let link_info (inst : Instance.t) ix =
  let lay = inst.Instance.layout in
  Schema.refresh_layout lay;
  lay.Schema.lay_links.(ix)

let rule_of_si (inst : Instance.t) (si : Schema.slot_info) =
  match si.Schema.si_rule with
  | Some cr -> cr
  | None ->
    Errors.type_error "attribute %s of %s is intrinsic" si.Schema.si_name inst.Instance.type_name

(* ------------------------------------------------------------------ *)
(* Environment construction shared by all evaluators                   *)

(* Slot index of the rule's declared [Self b] source.  Reads are
   validated against the declared sources so an undeclared read fails
   loudly instead of being silently non-incremental. *)
let self_source (cr : Schema.compiled_rule) (inst : Instance.t) b =
  let srcs = cr.Schema.cr_sources in
  let rec find i =
    if i >= Array.length srcs then
      Errors.type_error "rule on %s reads undeclared source self.%s" inst.Instance.type_name b
    else
      match srcs.(i) with
      | Schema.C_self { s_name; s_slot } when String.equal s_name b -> s_slot
      | _ -> find (i + 1)
  in
  find 0

(* Position in [cr_sources] of the declared [Rel (r, name)] source. *)
let rel_source (cr : Schema.compiled_rule) (inst : Instance.t) r name =
  let srcs = cr.Schema.cr_sources in
  let rec find i =
    if i >= Array.length srcs then
      Errors.type_error "rule on %s reads undeclared source %s.%s" inst.Instance.type_name r name
    else
      match srcs.(i) with
      | Schema.C_rel c when String.equal c.r_rel r && String.equal c.r_attr name -> i
      | _ -> find (i + 1)
  in
  find 0

(* Raised by a [related_values] fetch to leave one related value out
   (fixed-point sweeps drop slots not yet evaluated in the run). *)
exception Skip

(* Related values across the rel source [cr_sources.(k)], in link order:
   each crossing is counted on its link, then [fetch j slot] reads the
   value. *)
let related_values (cr : Schema.compiled_rule) (inst : Instance.t) k fetch =
  match cr.Schema.cr_sources.(k) with
  | Schema.C_self _ -> assert false
  | Schema.C_rel c ->
    let l = Instance.links_ix inst c.r_link in
    let n = l.Instance.n in
    let rec go m =
      if m >= n then []
      else begin
        let j = l.Instance.ids.(m) in
        if c.r_slot < 0 then
          Errors.unknown "type %s has no attribute %s" c.r_target (Symbol.name c.r_sym);
        Instance.cross l m;
        match fetch j c.r_slot with v -> v :: go (m + 1) | exception Skip -> go (m + 1)
      end
    in
    go 0

(* [fetch_value j slot_ix] must return the (up-to-date) value of a
   possibly-derived slot of instance [j]. *)
let build_env (cr : Schema.compiled_rule) (inst : Instance.t) ~fetch_value =
  {
    Schema.self_value = (fun b -> fetch_value inst.Instance.id (self_source cr inst b));
    related_values = (fun r name -> related_values cr inst (rel_source cr inst r name) fetch_value);
  }

(* Patch a lazily-created intrinsic slot (schema extension) to its
   default on first evaluation touch. *)
let settle_intrinsic (si : Schema.slot_info) (s : Instance.slot) =
  match si.Schema.si_def.Schema.kind with
  | Schema.Intrinsic default ->
    s.Instance.value <- default;
    s.Instance.state <- Instance.Up_to_date
  | Schema.Derived _ -> assert false

(* The wave's environment: its closures are built once per wave state
   and read the frame being finished from [cur_id]/[cur_ix].  All
   derived sources were demanded and completed before a Finish is
   scheduled, so an out-of-date source here is a lazily-created
   intrinsic. *)
let wave_env store ws =
  let fetch j jx =
    let jinst = Store.get store j in
    if j <> ws.cur_id then Store.touch store j;
    let s = Instance.slot_ix jinst jx in
    (match s.Instance.state with
    | Instance.Up_to_date -> ()
    | Instance.Out_of_date | Instance.In_progress -> settle_intrinsic (slot_info jinst jx) s);
    s.Instance.value
  in
  let current () = Store.get store ws.cur_id in
  let rule inst = rule_of_si inst (slot_info inst ws.cur_ix) in
  {
    Schema.self_value =
      (fun b ->
        let inst = current () in
        fetch inst.Instance.id (self_source (rule inst) inst b));
    related_values =
      (fun r name ->
        let inst = current () in
        let cr = rule inst in
        related_values cr inst (rel_source cr inst r name) fetch);
  }

let new_wave store sched =
  let ws =
    {
      busy = false;
      chunks = Sched.create sched store;
      e_id = [||];
      e_ix = [||];
      e_sym = [||];
      e_frame = [||];
      e_parent = [||];
      e_via_i = [||];
      e_via_sym = [||];
      nframes = 0;
      f_id = [||];
      f_ix = [||];
      f_sym = [||];
      f_pending = [||];
      f_parent = [||];
      f_via_i = [||];
      f_via_sym = [||];
      f_cost = [||];
      frames = Itbl.create 64;
      waiters = Itbl.create 64;
      nnodes = 0;
      w_frame = [||];
      w_next = [||];
      cur_id = -1;
      cur_ix = -1;
      env = { Schema.self_value = (fun _ -> Value.Null); related_values = (fun _ _ -> []) };
    }
  in
  ws.env <- wave_env store ws;
  ws

let create ?(strategy = Cactis) ?(sched = Sched.Greedy) store =
  let counters = Store.counters store in
  let hists = (Store.obs store).Cactis_obs.Ctx.hists in
  {
    h_mark_wave = Histogram.cell hists "mark_wave";
    h_eval_wave = Histogram.cell hists "eval_wave";
    h_propagate = Histogram.cell hists "propagate";
    h_fixpoint_iters = Histogram.cell hists "fixpoint_iters";
    prof = None;
    fixpoint = None;
    store;
    strategy;
    sched;
    watched = Itbl.create 32;
    pending_important = Itbl.create 32;
    recoveries = Hashtbl.create 8;
    repair = None;
    in_recovery = false;
    violations = [];
    c_rule_evals = Counters.cell counters "rule_evals";
    c_mark_visits = Counters.cell counters "mark_visits";
    c_mark_cutoffs = Counters.cell counters "mark_cutoffs";
    c_eval_procs = Counters.cell counters "eval_procs";
    c_demand_procs = Counters.cell counters "demand_procs";
    c_constraint_checks = Counters.cell counters "constraint_checks";
    c_intrinsic_sets = Counters.cell counters "intrinsic_sets";
    c_misses = Counters.cell counters "block_misses";
    c_fixpoint_runs = Counters.cell counters "fixpoint_runs";
    c_fixpoint_sweeps = Counters.cell counters "fixpoint_sweeps";
    wave = new_wave store sched;
  }

let store t = t.store
let strategy t = t.strategy
let set_strategy t s = t.strategy <- s
let sched_strategy t = t.sched
let set_sched_strategy t s = t.sched <- s
let set_repair t f = t.repair <- Some f
let register_recovery t name f = Hashtbl.replace t.recoveries name f
let set_profile t p = t.prof <- p
let profile t = t.prof

let set_fixed_point ?(max_iters = 1000) t on =
  if max_iters < 1 then Errors.type_error "set_fixed_point: max_iters must be positive";
  t.fixpoint <- (if on then Some max_iters else None)

let fixed_point t = t.fixpoint

let schema t = Store.schema t.store
let counters t = Store.counters t.store

(* [with_wave t f] runs one wave on the engine's reset wave state, or on
   a fresh one when the shared state is already running a wave.  A state
   that a rare large wave (a first full evaluation, say) grew past 16 Ki
   entries is dropped for a fresh one after a wave that used less than
   an eighth of it: the live heap, and with it the collector's peak,
   does not carry the largest wave ever run, while states up to 16 Ki
   entries are kept, so ordinary waves never re-grow their arrays. *)
let with_wave t f =
  let ws = if t.wave.busy then new_wave t.store t.sched else t.wave in
  if Sched.strategy ws.chunks <> t.sched then ws.chunks <- Sched.create t.sched t.store
  else Sched.reset ws.chunks;
  ws.nframes <- 0;
  ws.nnodes <- 0;
  Itbl.clear ws.frames;
  Itbl.clear ws.waiters;
  ws.busy <- true;
  let finish () =
    ws.busy <- false;
    if ws == t.wave && Array.length ws.e_id > max 16384 (8 * Sched.scheduled ws.chunks) then
      t.wave <- new_wave t.store t.sched
  in
  match f ws with
  | () -> finish ()
  | exception e ->
    finish ();
    raise e

let grow_int a need fill =
  if need < Array.length a then a
  else begin
    let b = Array.make (max (need + 1) (max 64 (2 * Array.length a))) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Make room for entry [e]'s payload. *)
let ensure_entry ws e =
  if e >= Array.length ws.e_id then begin
    ws.e_id <- grow_int ws.e_id e 0;
    ws.e_ix <- grow_int ws.e_ix e 0;
    ws.e_sym <- grow_int ws.e_sym e 0;
    ws.e_frame <- grow_int ws.e_frame e 0;
    ws.e_parent <- grow_int ws.e_parent e 0;
    ws.e_via_i <- grow_int ws.e_via_i e 0;
    ws.e_via_sym <- grow_int ws.e_via_sym e 0
  end

(* ------------------------------------------------------------------ *)
(* Importance                                                          *)

let important_si t id (si : Schema.slot_info) =
  si.Schema.si_constrained || Itbl.mem t.watched (Symbol.pack id si.Schema.si_sym)

(* Watching needs a live instance and a declared attribute, exactly as
   reading does; anything else raises the same [Errors.Unknown]. *)
let watch t id a =
  let inst = Store.get t.store id in
  match Instance.find_slot inst a with
  | None -> Errors.unknown "type %s has no attribute %s" inst.Instance.type_name a
  | Some ix ->
    let key = Symbol.pack id (slot_info inst ix).Schema.si_sym in
    Itbl.replace t.watched key 1;
    if (Instance.slot_ix inst ix).Instance.state = Instance.Out_of_date then
      Itbl.replace t.pending_important key 1

let unwatch t id a = Itbl.remove t.watched (Symbol.pack id (Symbol.intern a))
let is_watched t id a = Itbl.mem t.watched (Symbol.pack id (Symbol.intern a))

(* ------------------------------------------------------------------ *)
(* Dependency enumeration                                              *)

(* A mark/trigger target: attribute [t_ix]/[t_sym] of instance [t_id],
   reached across position [t_via_j] of the link vector [t_via]
   ([t_via_j] = -1: no relationship crossed), whose crossing count the
   mark phase bumps. *)
type target = {
  t_id : int;
  t_ix : int;
  t_sym : int;
  t_via : Instance.links;
  t_via_j : int;
}

(* Dependents of slot [ix] of [inst]: within the instance, and across
   each relationship to currently-linked neighbours — all resolved at
   schema-compile time to index/symbol tables.  [f id slot sym via
   via_j] is called for each, in order; [via_j] is the position crossed
   in the link vector [via], -1 for a dependent within the instance. *)
let iter_dependents (inst : Instance.t) ix f =
  let lay = inst.Instance.layout in
  Schema.refresh_layout lay;
  let si = lay.Schema.lay_slots.(ix) in
  let self = si.Schema.si_self_deps in
  for k = 0 to Array.length self - 1 do
    let d = self.(k) in
    f inst.Instance.id d lay.Schema.lay_slots.(d).Schema.si_sym Instance.no_links (-1)
  done;
  let cross = si.Schema.si_cross_deps in
  for k = 0 to Array.length cross - 1 do
    let xd = cross.(k) in
    let l = Instance.links_ix inst xd.Schema.xd_link in
    for m = 0 to l.Instance.n - 1 do
      f l.Instance.ids.(m) xd.Schema.xd_slot xd.Schema.xd_sym l m
    done
  done

let dependents_ix inst ix =
  let acc = ref [] in
  iter_dependents inst ix (fun t_id t_ix t_sym t_via t_via_j ->
      acc := { t_id; t_ix; t_sym; t_via; t_via_j } :: !acc);
  List.rev !acc

(* The attribute actually transmitted when [name] is requested across the
   reader's relationship [r]: the target type may alias it (Figure 1's
   [consists_of exp_time = exp_compl]).  String-based variant kept for
   the oracle; the engine proper uses the compiled [r_slot]/[r_sym]. *)
let resolve_transmission t (inst : Instance.t) r name =
  let rd = Schema.rel (schema t) ~type_name:inst.Instance.type_name r in
  Schema.resolve_export (schema t) ~type_name:rd.Schema.target ~rel:rd.Schema.inverse name

let record_constraint_check t (inst : Instance.t) (si : Schema.slot_info) v =
  if si.Schema.si_constrained then begin
    incr t.c_constraint_checks;
    match v with
    | Value.Bool false ->
      t.violations <- (inst.Instance.id, si.Schema.si_sym) :: t.violations
    | Value.Bool true -> ()
    | other ->
      Errors.type_error "constraint attribute %s.%s evaluated to non-boolean %s"
        inst.Instance.type_name si.Schema.si_name (Value.to_string other)
  end

(* ------------------------------------------------------------------ *)
(* Simple recursive evaluator (used by the baselines, by bootstrap     *)
(* paths, and — without caching — by the oracle)                       *)

let rec eval_rec t path id ix =
  let inst = Store.get t.store id in
  let s = Instance.slot_ix inst ix in
  let si = slot_info inst ix in
  match s.Instance.state with
  | Instance.Up_to_date -> s.Instance.value
  | Instance.In_progress ->
    raise (Errors.Cycle (List.rev ((id, si.Schema.si_name) :: path)))
  | Instance.Out_of_date ->
    if not si.Schema.si_derived then begin
      (* Intrinsic slots are always up to date; an out-of-date intrinsic
         can only be a slot created lazily after a schema extension —
         give it the schema default. *)
      settle_intrinsic si s;
      s.Instance.value
    end
    else begin
      s.Instance.state <- Instance.In_progress;
      Store.touch t.store id;
      let cr = rule_of_si inst si in
      let fetch_value j jx =
        let jinst = Store.get t.store j in
        if j <> id then Store.touch t.store j;
        let jsi = slot_info jinst jx in
        if jsi.Schema.si_derived then eval_rec t ((id, si.Schema.si_name) :: path) j jx
        else (Instance.slot_ix jinst jx).Instance.value
      in
      let env = build_env cr inst ~fetch_value in
      let v =
        try cr.Schema.cr_rule.Schema.compute env
        with e ->
          s.Instance.state <- Instance.Out_of_date;
          raise e
      in
      incr t.c_rule_evals;
      (match t.prof with
      | Some p -> Profile.on_eval p ~key:(Symbol.pack id si.Schema.si_sym)
      | None -> ());
      s.Instance.value <- v;
      s.Instance.state <- Instance.Up_to_date;
      Store.notify_write t.store id si.Schema.si_name v;
      Itbl.remove t.pending_important (Symbol.pack id si.Schema.si_sym);
      record_constraint_check t inst si v;
      v
    end

(* ------------------------------------------------------------------ *)
(* Mark-out-of-date phase (chunked)                                    *)

let mark_cost t j = if Store.resident t.store j then 0.0 else 1.0

let schedule_mark t ws id ix sym via via_j =
  (match t.prof with Some p -> Profile.on_edge p | None -> ());
  if via_j >= 0 then Instance.cross via via_j;
  let e = Sched.schedule ws.chunks ~instance:id ~cost:(mark_cost t id) in
  ensure_entry ws e;
  ws.e_id.(e) <- id;
  ws.e_ix.(e) <- ix;
  ws.e_sym.(e) <- sym

(* [schedule] is [schedule_mark t ws], built once per wave. *)
let rec mark_loop t ws schedule =
  let e = Sched.next ws.chunks in
  if e >= 0 then begin
    let id = ws.e_id.(e) and ix = ws.e_ix.(e) and sym = ws.e_sym.(e) in
    (match Store.get_opt t.store id with
    | None -> ()
    | Some inst -> (
      Store.touch t.store id;
      incr t.c_mark_visits;
      let s = Instance.slot_ix inst ix in
      match s.Instance.state with
      | Instance.Out_of_date ->
        (* Already out of date: the traversal is cut short here — this
           is the source of the O(1) repeated-update behaviour. *)
        incr t.c_mark_cutoffs;
        (match t.prof with Some p -> Profile.on_cutoff p | None -> ())
      | Instance.Up_to_date | Instance.In_progress ->
        s.Instance.state <- Instance.Out_of_date;
        (match t.prof with Some p -> Profile.on_mark p ~key:(Symbol.pack id sym) | None -> ());
        Store.notify_mark t.store id (Symbol.name sym);
        if important_si t id (slot_info inst ix) then
          Itbl.replace t.pending_important (Symbol.pack id sym) 1;
        iter_dependents inst ix schedule));
    mark_loop t ws schedule
  end

let run_marks t targets =
  if targets <> [] then begin
    let start_ns = Clock.now_ns () in
    let visits0 = !(t.c_mark_visits) in
    with_wave t (fun ws ->
        let schedule id ix sym via via_j = schedule_mark t ws id ix sym via via_j in
        List.iter (fun tgt -> schedule tgt.t_id tgt.t_ix tgt.t_sym tgt.t_via tgt.t_via_j) targets;
        mark_loop t ws schedule);
    Ctx.span ~h:t.h_mark_wave "mark_wave" ~start_ns (!(t.c_mark_visits) - visits0)
  end

(* ------------------------------------------------------------------ *)
(* Bounded fixed-point evaluation of stuck (cyclic) frames ([Far86])   *)

(* When the demand scheduler drains with frames still open, the
   pending-wait graph contains at least one dependency cycle.  With
   fixed-point mode armed ([set_fixed_point]) and every attribute on a
   cycle carrying a bounded convergence shape ({!Schema.rule_shape}),
   the stuck slots are iterated Gauss-Seidel-style: cycle members with
   a lattice bottom are seeded there (Kleene iteration from bottom, the
   least-fixed-point semantics flow analyses want), the rest join the
   sweeps lazily, and contributions of slots not yet evaluated in the
   current run are dropped from aggregate reads.  Convergence is
   claimed only after an actually change-free sweep, so a mis-declared
   shape costs iterations (up to the cap) but never yields a wrong
   "stable" verdict — at worst the run falls back to [Errors.Cycle]. *)

type fp_entry = {
  e_key : int;  (* packed (id, attr sym) *)
  e_inst : Instance.t;
  e_ix : int;
  e_si : Schema.slot_info;
  mutable e_computed : bool;  (* evaluated at least once this run *)
}

let fp_bottom = function
  | Schema.Shape_bool -> Some (Value.Bool false)
  | Schema.Shape_lattice { bottom; _ } -> Some bottom
  | Schema.Shape_min | Schema.Shape_max | Schema.Shape_count | Schema.Shape_unbounded -> None

(* Longest strictly-increasing chain a slot of this shape can climb:
   the per-slot contribution to the static sweep bound.  Min/max chains
   are bounded by the number of distinct values in the cycle. *)
let fp_height ~n_cyclic = function
  | Schema.Shape_bool | Schema.Shape_count -> 1
  | Schema.Shape_lattice { height; _ } -> height
  | Schema.Shape_min | Schema.Shape_max -> n_cyclic
  | Schema.Shape_unbounded -> max_int

let solve_fixpoint t ~max_iters ws =
  let start_ns = Clock.now_ns () in
  (* Resolve every stuck frame to a live slot; a frame whose instance
     vanished mid-run falls back to the cycle-error path. *)
  let entries =
    Itbl.fold
      (fun key f acc ->
        match acc with
        | None -> None
        | Some l -> (
          match Store.get_opt t.store ws.f_id.(f) with
          | None -> None
          | Some inst ->
            let ix = ws.f_ix.(f) in
            let si = slot_info inst ix in
            Some ({ e_key = key; e_inst = inst; e_ix = ix; e_si = si; e_computed = false } :: l)))
      ws.frames (Some [])
  in
  match entries with
  | None -> false
  | Some entries ->
    (* Deterministic sweep order. *)
    let entries =
      List.sort
        (fun a b ->
          if a.e_inst.Instance.id <> b.e_inst.Instance.id then
            compare a.e_inst.Instance.id b.e_inst.Instance.id
          else String.compare a.e_si.Schema.si_name b.e_si.Schema.si_name)
        entries
    in
    let by_key = Hashtbl.create (2 * List.length entries) in
    List.iter (fun e -> Hashtbl.replace by_key e.e_key e) entries;
    (* Wait graph among stuck frames (waiter -> waited-on key): the
       frames on its cycles must carry bounded shapes; the acyclic cone
       stuck above them just re-evaluates until its inputs settle. *)
    let deps : (int, int list) Hashtbl.t = Hashtbl.create 16 in
    let add_dep w k =
      let prev = match Hashtbl.find_opt deps w with Some l -> l | None -> [] in
      Hashtbl.replace deps w (k :: prev)
    in
    Itbl.iter
      (fun key node ->
        if Hashtbl.mem by_key key then begin
          let node = ref node in
          while !node >= 0 do
            let w = ws.w_frame.(!node) in
            let wkey = Symbol.pack ws.f_id.(w) ws.f_sym.(w) in
            if Hashtbl.mem by_key wkey then add_dep wkey key;
            node := ws.w_next.(!node)
          done
        end)
      ws.waiters;
    let on_cycle key =
      let seen = Hashtbl.create 8 in
      let rec go k =
        List.exists
          (fun k' ->
            k' = key
            || (not (Hashtbl.mem seen k')
               &&
               (Hashtbl.add seen k' ();
                go k')))
          (match Hashtbl.find_opt deps k with Some l -> l | None -> [])
      in
      go key
    in
    let cyclic : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    List.iter (fun e -> if on_cycle e.e_key then Hashtbl.add cyclic e.e_key ()) entries;
    let shape_of e =
      Schema.rule_shape (schema t) ~type_name:e.e_inst.Instance.type_name
        ~attr:e.e_si.Schema.si_name
    in
    let admissible =
      List.for_all
        (fun e ->
          (not (Hashtbl.mem cyclic e.e_key))
          || match shape_of e with Some s -> Schema.shape_bounded s | None -> false)
        entries
    in
    if not admissible then false
    else begin
      let n_cyclic = Hashtbl.length cyclic in
      (* Static bound: one settling sweep + one per lattice step any
         cycle member can climb + one per stuck frame for the cone. *)
      let static_bound =
        List.fold_left
          (fun acc e ->
            if Hashtbl.mem cyclic e.e_key then
              acc + (match shape_of e with Some s -> fp_height ~n_cyclic s | None -> 0)
            else acc)
          (1 + List.length entries)
          entries
      in
      let cap = min max_iters static_bound in
      List.iter
        (fun e ->
          if Hashtbl.mem cyclic e.e_key then
            match shape_of e with
            | Some s -> (
              match fp_bottom s with
              | Some b ->
                (Instance.slot_ix e.e_inst e.e_ix).Instance.value <- b;
                e.e_computed <- true
              | None -> ())
            | None -> ())
        entries;
      (* A slot that belongs to this run and has not been evaluated yet
         raises [Skip]: its contribution is dropped from aggregates. *)
      let fetch self_id j jx =
        let jinst = Store.get t.store j in
        if j <> self_id then Store.touch t.store j;
        let s = Instance.slot_ix jinst jx in
        let jsi = slot_info jinst jx in
        match Hashtbl.find_opt by_key (Symbol.pack j jsi.Schema.si_sym) with
        | Some e -> if e.e_computed then s.Instance.value else raise Skip
        | None ->
          (match s.Instance.state with
          | Instance.Up_to_date -> ()
          | Instance.Out_of_date | Instance.In_progress -> (
            match jsi.Schema.si_def.Schema.kind with
            | Schema.Intrinsic default ->
              s.Instance.value <- default;
              s.Instance.state <- Instance.Up_to_date
            | Schema.Derived _ -> ()));
          s.Instance.value
      in
      let env_for (cr : Schema.compiled_rule) (inst : Instance.t) =
        let id = inst.Instance.id in
        {
          Schema.self_value =
            (fun b ->
              let slot = self_source cr inst b in
              try fetch id id slot with Skip -> (Instance.slot_ix inst slot).Instance.value);
          related_values =
            (fun r name -> related_values cr inst (rel_source cr inst r name) (fetch id));
        }
      in
      let sweeps = ref 0 in
      let stable = ref false in
      let converged =
        while (not !stable) && !sweeps < cap do
          incr sweeps;
          let changed = ref false in
          List.iter
            (fun e ->
              Store.touch t.store e.e_inst.Instance.id;
              let cr = rule_of_si e.e_inst e.e_si in
              match cr.Schema.cr_rule.Schema.compute (env_for cr e.e_inst) with
              | v ->
                incr t.c_rule_evals;
                let s = Instance.slot_ix e.e_inst e.e_ix in
                if (not e.e_computed) || not (Value.equal v s.Instance.value) then
                  changed := true;
                e.e_computed <- true;
                s.Instance.value <- v
              | exception _ ->
                (* A rule crashing this sweep (e.g. a virgin Null read of a
                   cone slot whose inputs have not settled yet) is not
                   fatal: the entry stays uncomputed and retries next
                   sweep.  If it never succeeds, the cap expires and the
                   caller reports a plain dependency cycle. *)
                incr t.c_rule_evals)
            entries;
          if (not !changed) && List.for_all (fun e -> e.e_computed) entries then
            stable := true
        done;
        !stable
      in
      if converged then begin
        incr t.c_fixpoint_runs;
        t.c_fixpoint_sweeps := !(t.c_fixpoint_sweeps) + !sweeps;
        Histogram.observe t.h_fixpoint_iters (float_of_int !sweeps);
        List.iter
          (fun e ->
            let s = Instance.slot_ix e.e_inst e.e_ix in
            s.Instance.state <- Instance.Up_to_date;
            Store.notify_write t.store e.e_inst.Instance.id e.e_si.Schema.si_name
              s.Instance.value;
            Itbl.remove t.pending_important e.e_key;
            record_constraint_check t e.e_inst e.e_si s.Instance.value)
          entries;
        Ctx.span "fixpoint" ~start_ns !sweeps
      end;
      converged
    end

(* ------------------------------------------------------------------ *)
(* Demand-driven evaluation phase (chunked)                            *)

let demand_cost t via_i via_sym j =
  if Store.resident t.store j then 0.0
  else if via_i >= 0 then Decaying_avg.value (Store.link_tag_sym t.store via_i via_sym)
  else 1.0

let schedule_demand t ws ~parent ~via_i ~via_sym j jx =
  if parent >= 0 then ws.f_pending.(parent) <- ws.f_pending.(parent) + 1;
  let e = Sched.schedule ws.chunks ~instance:j ~cost:(demand_cost t via_i via_sym j) in
  ensure_entry ws e;
  ws.e_frame.(e) <- -1;
  ws.e_id.(e) <- j;
  ws.e_ix.(e) <- jx;
  ws.e_parent.(e) <- parent;
  ws.e_via_i.(e) <- via_i;
  ws.e_via_sym.(e) <- via_sym

let schedule_finish ws f =
  let e = Sched.schedule ws.chunks ~instance:ws.f_id.(f) ~cost:0.0 in
  ensure_entry ws e;
  ws.e_frame.(e) <- f

let notify ws f =
  ws.f_pending.(f) <- ws.f_pending.(f) - 1;
  if ws.f_pending.(f) = 0 then schedule_finish ws f

let add_waiter ws key f =
  let k = ws.nnodes in
  if k = Array.length ws.w_frame then begin
    ws.w_frame <- grow_int ws.w_frame k 0;
    ws.w_next <- grow_int ws.w_next k 0
  end;
  ws.w_frame.(k) <- f;
  ws.w_next.(k) <- Itbl.find ws.waiters key ~default:(-1);
  Itbl.replace ws.waiters key k;
  ws.nnodes <- k + 1

(* Wake the frames waiting on [key], newest first. *)
let notify_waiters ws key =
  let head = Itbl.find ws.waiters key ~default:(-1) in
  if head >= 0 then begin
    Itbl.remove ws.waiters key;
    let k = ref head in
    while !k >= 0 do
      let next = ws.w_next.(!k) in
      notify ws ws.w_frame.(!k);
      k := next
    done
  end

let new_frame ws ~id ~ix ~sym ~parent ~via_i ~via_sym =
  let f = ws.nframes in
  if f = Array.length ws.f_id then begin
    ws.f_id <- grow_int ws.f_id f 0;
    ws.f_ix <- grow_int ws.f_ix f 0;
    ws.f_sym <- grow_int ws.f_sym f 0;
    ws.f_pending <- grow_int ws.f_pending f 0;
    ws.f_parent <- grow_int ws.f_parent f 0;
    ws.f_via_i <- grow_int ws.f_via_i f 0;
    ws.f_via_sym <- grow_int ws.f_via_sym f 0;
    let cost = Array.make (Array.length ws.f_id) 0.0 in
    Array.blit ws.f_cost 0 cost 0 f;
    ws.f_cost <- cost
  end;
  ws.f_id.(f) <- id;
  ws.f_ix.(f) <- ix;
  ws.f_sym.(f) <- sym;
  ws.f_pending.(f) <- 0;
  ws.f_parent.(f) <- parent;
  ws.f_via_i.(f) <- via_i;
  ws.f_via_sym.(f) <- via_sym;
  ws.f_cost.(f) <- 0.0;
  ws.nframes <- f + 1;
  f

(* Demand the out-of-date derived source [jx] of [j] for frame [f]. *)
let demand_source t ws f j jx via_i via_sym =
  let jinst = Store.get t.store j in
  if (slot_info jinst jx).Schema.si_derived then
    match (Instance.slot_ix jinst jx).Instance.state with
    | Instance.Up_to_date -> ()
    | Instance.Out_of_date | Instance.In_progress ->
      schedule_demand t ws ~parent:f ~via_i ~via_sym j jx

(* Enumerate the out-of-date derived sources of the frame's attribute,
   demanding each. *)
let open_frame t ws f (inst : Instance.t) =
  let id = ws.f_id.(f) in
  let srcs = (rule_of_si inst (slot_info inst ws.f_ix.(f))).Schema.cr_sources in
  for k = 0 to Array.length srcs - 1 do
    match srcs.(k) with
    | Schema.C_self { s_slot; _ } -> demand_source t ws f id s_slot (-1) 0
    | Schema.C_rel c ->
      let l = Instance.links_ix inst c.r_link in
      for m = 0 to l.Instance.n - 1 do
        if c.r_slot < 0 then
          Errors.unknown "type %s has no attribute %s" c.r_target (Symbol.name c.r_sym);
        demand_source t ws f l.Instance.ids.(m) c.r_slot id c.r_rel_sym
      done
  done

let finish t ws f =
  let id = ws.f_id.(f) and ix = ws.f_ix.(f) in
  let key = Symbol.pack id ws.f_sym.(f) in
  match Store.get_opt t.store id with
  | None ->
    Itbl.remove ws.frames key;
    notify_waiters ws key
  | Some inst ->
    let before = !(t.c_misses) in
    Store.touch t.store id;
    let si = slot_info inst ix in
    let cr = rule_of_si inst si in
    ws.cur_id <- id;
    ws.cur_ix <- ix;
    let v = cr.Schema.cr_rule.Schema.compute ws.env in
    incr t.c_rule_evals;
    (match t.prof with Some p -> Profile.on_eval p ~key | None -> ());
    let s = Instance.slot_ix inst ix in
    s.Instance.value <- v;
    s.Instance.state <- Instance.Up_to_date;
    Store.notify_write t.store id si.Schema.si_name v;
    Itbl.remove t.pending_important key;
    Itbl.remove ws.frames key;
    record_constraint_check t inst si v;
    ws.f_cost.(f) <- ws.f_cost.(f) +. float_of_int (!(t.c_misses) - before);
    (* Self-adaptive statistics: the link that requested this value
       learns what the request actually cost (§2.3). *)
    let via_i = ws.f_via_i.(f) in
    if via_i >= 0 && Store.mem t.store via_i then
      Decaying_avg.observe (Store.link_tag_sym t.store via_i ws.f_via_sym.(f)) ws.f_cost.(f);
    let p = ws.f_parent.(f) in
    if p >= 0 then ws.f_cost.(p) <- ws.f_cost.(p) +. ws.f_cost.(f);
    notify_waiters ws key

let run_demand t ws id ix parent via_i via_sym =
  match Store.get_opt t.store id with
  | None -> if parent >= 0 then notify ws parent
  | Some inst -> (
    let s = Instance.slot_ix inst ix in
    let si = slot_info inst ix in
    let key = Symbol.pack id si.Schema.si_sym in
    match s.Instance.state with
    | Instance.Up_to_date -> if parent >= 0 then notify ws parent
    | Instance.In_progress ->
      (* A frame already exists; wait for it. *)
      if parent >= 0 then add_waiter ws key parent
    | Instance.Out_of_date ->
      if not si.Schema.si_derived then begin
        settle_intrinsic si s;
        if parent >= 0 then notify ws parent
      end
      else begin
        let before = !(t.c_misses) in
        Store.touch t.store id;
        incr t.c_demand_procs;
        let f = new_frame ws ~id ~ix ~sym:si.Schema.si_sym ~parent ~via_i ~via_sym in
        Itbl.replace ws.frames key f;
        (* The parent's pending (incremented at demand time) is settled
           by the waiter notification when this frame finishes. *)
        if parent >= 0 then add_waiter ws key parent;
        s.Instance.state <- Instance.In_progress;
        open_frame t ws f inst;
        ws.f_cost.(f) <- ws.f_cost.(f) +. float_of_int (!(t.c_misses) - before);
        if ws.f_pending.(f) = 0 then schedule_finish ws f
      end)

let rec eval_loop t ws =
  let e = Sched.next ws.chunks in
  if e >= 0 then begin
    incr t.c_eval_procs;
    let f = ws.e_frame.(e) in
    if f >= 0 then finish t ws f
    else run_demand t ws ws.e_id.(e) ws.e_ix.(e) ws.e_parent.(e) ws.e_via_i.(e) ws.e_via_sym.(e);
    eval_loop t ws
  end

(* Set the open frames' slots back to [Out_of_date], so neither a rule
   raising mid-run nor a cycle leaves them in progress.  (A failed
   fixed-point attempt may have clobbered values with partial iterates;
   Out_of_date makes them dead.) *)
let restore_open_frames t ws =
  Itbl.iter
    (fun _ f ->
      match Store.get_opt t.store ws.f_id.(f) with
      | Some inst ->
        let s = Instance.slot_ix inst ws.f_ix.(f) in
        if s.Instance.state = Instance.In_progress then s.Instance.state <- Instance.Out_of_date
      | None -> ())
    ws.frames

let run_eval_inner t roots ws =
  List.iter
    (fun (id, ix) -> schedule_demand t ws ~parent:(-1) ~via_i:(-1) ~via_sym:0 id ix)
    roots;
  (try eval_loop t ws
   with e ->
     restore_open_frames t ws;
     raise e);
  (* Any frame still pending after the scheduler drained is waiting on a
     value that can never arrive: a dependency cycle. *)
  if Itbl.length ws.frames > 0 then begin
    let solved =
      match t.fixpoint with
      | Some max_iters -> solve_fixpoint t ~max_iters ws
      | None -> false
    in
    if not solved then begin
      let stuck =
        Itbl.fold (fun _ f acc -> (ws.f_id.(f), Symbol.name ws.f_sym.(f)) :: acc) ws.frames []
      in
      restore_open_frames t ws;
      raise (Errors.Cycle (List.sort compare stuck))
    end
  end

(* One timed demand-evaluation wave.  The span is recorded even when a
   rule raises, so failed waves still show up in the latency profile. *)
let run_eval t roots =
  if roots <> [] then begin
    let evals0 = !(t.c_rule_evals) in
    Ctx.time ~h:t.h_eval_wave "eval_wave"
      ~count:(fun () -> !(t.c_rule_evals) - evals0)
      (fun () -> with_wave t (run_eval_inner t roots))
  end

(* ------------------------------------------------------------------ *)
(* Constraint-violation handling                                       *)

let rec handle_violations t =
  let vs = List.rev t.violations in
  t.violations <- [];
  match vs with
  | [] -> ()
  | _ ->
    List.iter
      (fun (id, sym) ->
        match Store.get_opt t.store id with
        | None -> ()
        | Some inst -> (
          let ix =
            match Instance.find_slot_sym inst sym with Some ix -> ix | None -> assert false
          in
          let s = Instance.slot_ix inst ix in
          let si = slot_info inst ix in
          (* A recovery applied for an earlier violation in this batch may
             already have repaired (re-marked) this one. *)
          let still_false =
            s.Instance.state = Instance.Up_to_date && Value.equal s.Instance.value (Value.Bool false)
          in
          if still_false then
            let spec =
              match si.Schema.si_def.Schema.constraint_ with
              | Some spec -> spec
              | None -> assert false
            in
            let fail () =
              raise
                (Errors.Constraint_violation
                   { instance = id; attr = si.Schema.si_name; message = spec.Schema.message })
            in
            match spec.Schema.recovery with
            | None -> fail ()
            | Some name -> (
              if t.in_recovery then fail ();
              match (Hashtbl.find_opt t.recoveries name, t.repair) with
              | Some action, Some apply ->
                t.in_recovery <- true;
                let start_ns = Clock.now_ns () in
                Fun.protect
                  ~finally:(fun () ->
                    t.in_recovery <- false;
                    Ctx.span "recovery" ~start_ns id)
                  (fun () ->
                    Counters.incr (counters t) "recoveries_run";
                    List.iter (fun (j, b, v) -> apply j b v) (action t.store id);
                    (* Re-evaluate the constraint after the repair. *)
                    let v = eval_rec t [] id ix in
                    handle_violations t;
                    if Value.equal v (Value.Bool false) then fail ())
              | _ -> fail ())))
      vs

(* ------------------------------------------------------------------ *)
(* Strategy dispatch for change notification                           *)

let invalidate_all t =
  List.iter
    (fun id ->
      match Store.get_opt t.store id with
      | None -> ()
      | Some inst ->
        let lay = inst.Instance.layout in
        Schema.refresh_layout lay;
        Array.iteri
          (fun ix (si : Schema.slot_info) ->
            if si.Schema.si_derived then begin
              (Instance.slot_ix inst ix).Instance.state <- Instance.Out_of_date;
              Store.notify_mark t.store id si.Schema.si_name;
              if important_si t id si then
                Itbl.replace t.pending_important (Symbol.pack id si.Schema.si_sym) 1
            end)
          lay.Schema.lay_slots)
    (Store.instance_ids t.store)

let eval_everything t =
  List.iter
    (fun id ->
      match Store.get_opt t.store id with
      | None -> ()
      | Some inst ->
        let lay = inst.Instance.layout in
        Schema.refresh_layout lay;
        Array.iteri
          (fun ix (si : Schema.slot_info) ->
            if si.Schema.si_derived then ignore (eval_rec t [] id ix))
          lay.Schema.lay_slots)
    (Store.instance_ids t.store);
  handle_violations t

(* The naive trigger mechanism: each change immediately and recursively
   recomputes every dependent, with no out-of-date marking, in a fixed
   depth-first order.  On diamond-shaped dependency graphs this
   recomputes an exponential number of values — the behaviour the paper's
   algorithm exists to avoid. *)
let rec fire_trigger t tgt =
  match Store.get_opt t.store tgt.t_id with
  | None -> ()
  | Some inst ->
    Store.touch t.store tgt.t_id;
    let si = slot_info inst tgt.t_ix in
    let cr = rule_of_si inst si in
    let fetch_value k kx =
      let kinst = Store.get t.store k in
      if k <> tgt.t_id then Store.touch t.store k;
      let ksi = slot_info kinst kx in
      let s = Instance.slot_ix kinst kx in
      if ksi.Schema.si_derived && s.Instance.state <> Instance.Up_to_date then eval_rec t [] k kx
      else s.Instance.value
    in
    let env = build_env cr inst ~fetch_value in
    let v = cr.Schema.cr_rule.Schema.compute env in
    incr t.c_rule_evals;
    (match t.prof with
    | Some p -> Profile.on_eval p ~key:(Symbol.pack tgt.t_id si.Schema.si_sym)
    | None -> ());
    let s = Instance.slot_ix inst tgt.t_ix in
    s.Instance.value <- v;
    s.Instance.state <- Instance.Up_to_date;
    Store.notify_write t.store tgt.t_id si.Schema.si_name v;
    record_constraint_check t inst si v;
    List.iter (fire_trigger t) (dependents_ix inst tgt.t_ix)

let after_change t targets =
  match t.strategy with
  | Cactis -> run_marks t targets
  | Eager_triggers ->
    List.iter (fire_trigger t) targets;
    handle_violations t
  | Recompute_all ->
    invalidate_all t;
    eval_everything t

let after_intrinsic_set t id a =
  incr t.c_intrinsic_sets;
  let targets =
    match Store.get_opt t.store id with
    | None -> []
    | Some inst -> (
      match Instance.find_slot inst a with
      | Some ix -> dependents_ix inst ix
      | None -> [])
  in
  after_change t targets

let after_link_change t ~from_id ~rel ~to_id =
  let side id r =
    match Store.get_opt t.store id with
    | None -> []
    | Some inst -> (
      match Instance.find_link inst r with
      | None -> []
      | Some lx ->
        let li = link_info inst lx in
        Array.to_list li.Schema.li_rel_deps
        |> List.map (fun d ->
               let si = slot_info inst d in
               { t_id = id; t_ix = d; t_sym = si.Schema.si_sym; t_via = Instance.no_links; t_via_j = -1 }))
  in
  let inverse_of (inst : Instance.t) r =
    match Instance.find_link inst r with
    | Some lx -> (link_info inst lx).Schema.li_def.Schema.inverse
    | None -> Errors.unknown "type %s has no relationship %s" inst.Instance.type_name r
  in
  let inv =
    match Store.get_opt t.store from_id with
    | Some inst -> inverse_of inst rel
    | None -> (
      match Store.get_opt t.store to_id with
      | Some jinst ->
        (* from side gone (undo paths); find inverse from the target. *)
        inverse_of jinst rel
      | None -> rel)
  in
  after_change t (side from_id rel @ side to_id inv)

let on_new_instance t id =
  match Store.get_opt t.store id with
  | None -> ()
  | Some inst -> (
    let lay = inst.Instance.layout in
    Schema.refresh_layout lay;
    match t.strategy with
    | Cactis ->
      (* Creation "does not affect attribute evaluation until
         relationships are established" — but the new instance's own
         constraints must hold at commit. *)
      Array.iter
        (fun (si : Schema.slot_info) ->
          if si.Schema.si_constrained then
            Itbl.replace t.pending_important (Symbol.pack id si.Schema.si_sym) 1)
        lay.Schema.lay_slots
    | Eager_triggers | Recompute_all ->
      Array.iteri
        (fun ix (si : Schema.slot_info) ->
          if si.Schema.si_derived then ignore (eval_rec t [] id ix))
        lay.Schema.lay_slots;
      handle_violations t)

(* Every watch or pending key of an instance names one of its layout's
   slots ([watch] rejects anything else, retracted attributes are purged
   by [after_attr_retracted]), so purging walks the slots: O(slots). *)
let on_delete_instance t id =
  match Store.get_opt t.store id with
  | None -> ()
  | Some inst ->
    let lay = inst.Instance.layout in
    Schema.refresh_layout lay;
    Array.iter
      (fun (si : Schema.slot_info) ->
        let key = Symbol.pack id si.Schema.si_sym in
        Itbl.remove t.watched key;
        Itbl.remove t.pending_important key)
      lay.Schema.lay_slots

let after_attr_added t ~type_name ~attr =
  let def = Schema.attr (schema t) ~type_name attr in
  List.iter
    (fun id ->
      match Store.get_opt t.store id with
      | None -> ()
      | Some inst -> (
        match Instance.find_slot inst attr with
        | None -> ()
        | Some ix ->
          let s = Instance.slot_ix inst ix in
          (match def.Schema.kind with
          | Schema.Intrinsic default ->
            s.Instance.value <- default;
            s.Instance.state <- Instance.Up_to_date
          | Schema.Derived _ ->
            s.Instance.state <- Instance.Out_of_date;
            if important_si t id (slot_info inst ix) then
              Itbl.replace t.pending_important (Symbol.pack id (Symbol.intern attr)) 1)))
    (Store.instances_of_type t.store type_name)

let after_attr_retracted t ~type_name ~attr =
  (* Mirror of [after_attr_added] for schema-delta undo: drop the
     watch/pending bookkeeping keyed on the retracted attribute so a
     later propagate never chases a slot the layout no longer compiles.
     The physical slot value needs no repair — undo restored it to the
     default before the retraction (deltas replay in reverse), and a
     re-declaration (redo) re-initializes it through
     [after_attr_added]. *)
  let sym = Symbol.intern attr in
  List.iter
    (fun id ->
      let key = Symbol.pack id sym in
      Itbl.remove t.watched key;
      Itbl.remove t.pending_important key)
    (Store.instances_of_type t.store type_name)

(* ------------------------------------------------------------------ *)
(* Reading and propagation                                             *)

let peek t id a = (Store.read_slot t.store id a).Instance.value

let is_out_of_date t id a =
  let inst = Store.get t.store id in
  match Instance.slot_opt inst a with
  | Some s -> s.Instance.state <> Instance.Up_to_date
  | None -> true

let read_ix t ~watch (inst : Instance.t) ix =
  let id = inst.Instance.id in
  Store.touch t.store id;
  let si = slot_info inst ix in
  if not si.Schema.si_derived then (Instance.slot_ix inst ix).Instance.value
  else begin
    (* "If the user explicitly requests the value of attributes (i.e.
       makes a query) they become important" (§2.2). *)
    if watch then Itbl.replace t.watched (Symbol.pack id si.Schema.si_sym) 1;
    let s = Instance.slot_ix inst ix in
    (match s.Instance.state with
    | Instance.Up_to_date -> ()
    | Instance.Out_of_date | Instance.In_progress -> (
      match t.strategy with
      | Cactis ->
        run_eval t [ (id, ix) ];
        handle_violations t
      | Eager_triggers | Recompute_all ->
        ignore (eval_rec t [] id ix);
        handle_violations t));
    (Instance.slot_ix inst ix).Instance.value
  end

let read t ?(watch = true) id a =
  let inst = Store.get t.store id in
  match Instance.find_slot inst a with
  | None -> Errors.unknown "type %s has no attribute %s" inst.Instance.type_name a
  | Some ix -> read_ix t ~watch inst ix

(* Pending roots resolved back to (id, name, slot ix); sorted by
   (id, name) to preserve the evaluation order of the string-keyed
   implementation (deterministic counters). *)
let pending_roots t =
  let roots =
    Itbl.fold
      (fun key _ acc ->
        let id = Symbol.pack_id key and sym = Symbol.pack_sym key in
        match Store.get_opt t.store id with
        | None -> acc
        | Some inst -> (
          match Instance.find_slot_sym inst sym with
          | None -> acc
          | Some ix ->
            let si = slot_info inst ix in
            if si.Schema.si_derived then (id, si.Schema.si_name, ix) :: acc else acc))
      t.pending_important []
  in
  List.sort
    (fun (i1, n1, _) (i2, n2, _) -> if i1 <> i2 then compare i1 i2 else String.compare n1 n2)
    roots

let propagate t =
  match t.strategy with
  | Cactis ->
    let roots = pending_roots t in
    Itbl.clear t.pending_important;
    if roots <> [] then
      Ctx.time ~h:t.h_propagate "propagate"
        ~count:(fun () -> List.length roots)
        (fun () ->
          run_eval t (List.map (fun (id, _, ix) -> (id, ix)) roots);
          handle_violations t)
  | Eager_triggers | Recompute_all ->
    let roots = pending_roots t in
    Itbl.clear t.pending_important;
    List.iter (fun (id, _, ix) -> ignore (eval_rec t [] id ix)) roots;
    handle_violations t

let pending_important_count t = Itbl.length t.pending_important

(* ------------------------------------------------------------------ *)
(* Oracle: reference semantics with no caching and no I/O accounting   *)

let oracle_value t id a =
  let attr_def (inst : Instance.t) b =
    Schema.attr (schema t) ~type_name:inst.Instance.type_name b
  in
  let memo : (int * string, Value.t) Hashtbl.t = Hashtbl.create 32 in
  let visiting : (int * string, unit) Hashtbl.t = Hashtbl.create 32 in
  let rec go path id a =
    match Hashtbl.find_opt memo (id, a) with
    | Some v -> v
    | None ->
      if Hashtbl.mem visiting (id, a) then raise (Errors.Cycle (List.rev ((id, a) :: path)));
      let inst = Store.get t.store id in
      let def = attr_def inst a in
      let v =
        match def.Schema.kind with
        | Schema.Intrinsic _ -> (Instance.slot inst a).Instance.value
        | Schema.Derived rule ->
          Hashtbl.add visiting (id, a) ();
          let declared s = List.exists (fun s' -> s' = s) rule.Schema.sources in
          let env =
            {
              Schema.self_value =
                (fun b ->
                  if not (declared (Schema.Self b)) then
                    Errors.type_error "oracle: undeclared source self.%s" b;
                  go ((id, a) :: path) id b);
              related_values =
                (fun r name ->
                  if not (declared (Schema.Rel (r, name))) then
                    Errors.type_error "oracle: undeclared source %s.%s" r name;
                  let attr = resolve_transmission t inst r name in
                  Instance.linked inst r |> List.map (fun j -> go ((id, a) :: path) j attr));
            }
          in
          let v = rule.Schema.compute env in
          Hashtbl.remove visiting (id, a);
          v
      in
      Hashtbl.replace memo (id, a) v;
      v
  in
  go [] id a
