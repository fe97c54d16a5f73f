type state =
  | Up_to_date
  | Out_of_date
  | In_progress

type slot = {
  mutable value : Value.t;
  mutable state : state;
}

type links = {
  mutable ids : int array;
  mutable n : int;
  mutable uses : int array;
}

type t = {
  id : int;
  type_name : string;
  layout : Schema.layout;
  mutable slots : slot array;
  mutable links : links array;
  mutable alive : bool;
}

let fresh_slot (si : Schema.slot_info) =
  match si.Schema.si_def.Schema.kind with
  | Schema.Intrinsic default -> { value = default; state = Up_to_date }
  | Schema.Derived _ -> { value = Value.Null; state = Out_of_date }

let fresh_links () = { ids = [||]; n = 0; uses = [||] }
let no_links = fresh_links ()

let create ~id ~layout =
  Schema.refresh_layout layout;
  {
    id;
    type_name = layout.Schema.lay_type;
    layout;
    slots = Array.map fresh_slot layout.Schema.lay_slots;
    links = Array.init (Array.length layout.Schema.lay_links) (fun _ -> fresh_links ());
    alive = true;
  }

(* Extend the arrays up to the current layout after a DDL change.  New
   slots start [Null]/[Out_of_date] regardless of kind — the lazy-slot
   discipline the evaluators already handle (an out-of-date intrinsic is
   patched to its schema default on first touch). *)
let sync t =
  Schema.refresh_layout t.layout;
  let ns = Array.length t.layout.Schema.lay_slots in
  if Array.length t.slots < ns then begin
    let old = t.slots in
    let k = Array.length old in
    t.slots <-
      Array.init ns (fun i ->
          if i < k then old.(i) else { value = Value.Null; state = Out_of_date })
  end;
  let nl = Array.length t.layout.Schema.lay_links in
  if Array.length t.links < nl then begin
    let old = t.links in
    let k = Array.length old in
    t.links <- Array.init nl (fun i -> if i < k then old.(i) else fresh_links ())
  end

let slot_ix t ix =
  if ix < Array.length t.slots then t.slots.(ix)
  else begin
    sync t;
    t.slots.(ix)
  end

let find_slot t a = Schema.slot_index t.layout a
let find_slot_sym t sym = Schema.slot_index_sym t.layout sym
let find_link t r = Schema.link_index t.layout r

let slot t a =
  match find_slot t a with
  | Some ix -> slot_ix t ix
  | None -> Errors.unknown "type %s has no attribute %s" t.type_name a

let slot_opt t a =
  match find_slot t a with
  | Some ix -> Some (slot_ix t ix)
  | None -> None

let links_ix t ix =
  if ix < Array.length t.links then t.links.(ix)
  else begin
    sync t;
    t.links.(ix)
  end

let linked_ix t ix =
  let l = links_ix t ix in
  let rec go i acc = if i < 0 then acc else go (i - 1) (l.ids.(i) :: acc) in
  go (l.n - 1) []

let iter_linked t ix f =
  let l = links_ix t ix in
  for i = 0 to l.n - 1 do
    f l.ids.(i)
  done

let link_count_ix t ix = (links_ix t ix).n

let linked t rel = match find_link t rel with Some ix -> linked_ix t ix | None -> []

let add_link_ix t ix id =
  let l = links_ix t ix in
  let cap = Array.length l.ids in
  if l.n = cap then begin
    let bigger = Array.make (max 4 (2 * cap)) 0 in
    Array.blit l.ids 0 bigger 0 l.n;
    l.ids <- bigger
  end;
  l.ids.(l.n) <- id;
  l.n <- l.n + 1

let add_link t rel id =
  match find_link t rel with
  | Some ix -> add_link_ix t ix id
  | None -> Errors.unknown "type %s has no relationship %s" t.type_name rel

let remove_link_ix t ix id =
  let l = links_ix t ix in
  let rec find i = if i >= l.n then -1 else if l.ids.(i) = id then i else find (i + 1) in
  let i = find 0 in
  if i < 0 then false
  else begin
    Array.blit l.ids (i + 1) l.ids i (l.n - i - 1);
    (* Positions at or past [Array.length l.uses] hold 0 implicitly; the
       vacated last position is cleared so an append starts at 0. *)
    let nu = min l.n (Array.length l.uses) in
    if i < nu then begin
      Array.blit l.uses (i + 1) l.uses i (nu - i - 1);
      l.uses.(nu - 1) <- 0
    end;
    l.n <- l.n - 1;
    true
  end

(* The counter array is allocated at a link's first crossing and grown
   to the id vector's capacity when a later position is crossed. *)
let cross l j =
  if j < Array.length l.uses then l.uses.(j) <- l.uses.(j) + 1
  else begin
    let bigger = Array.make (Array.length l.ids) 0 in
    Array.blit l.uses 0 bigger 0 (Array.length l.uses);
    bigger.(j) <- 1;
    l.uses <- bigger
  end

let uses_to l id =
  let total = ref 0 in
  for j = 0 to min l.n (Array.length l.uses) - 1 do
    if l.ids.(j) = id then total := !total + l.uses.(j)
  done;
  !total

let remove_link t rel id =
  match find_link t rel with Some ix -> remove_link_ix t ix id | None -> false

let all_links t =
  sync t;
  let acc = ref [] in
  Array.iteri
    (fun ix (li : Schema.link_info) ->
      let ids = linked_ix t ix in
      if ids <> [] then acc := (li.Schema.li_name, ids) :: !acc)
    t.layout.Schema.lay_links;
  List.sort compare !acc

let iter_slots t f =
  sync t;
  Array.iteri
    (fun ix (si : Schema.slot_info) -> f si.Schema.si_name t.slots.(ix))
    t.layout.Schema.lay_slots
