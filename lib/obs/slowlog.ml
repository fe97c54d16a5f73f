type record = {
  sr_wall_us : int64;
  sr_verb : string;
  sr_dur_s : float;
  sr_deadline_s : float;
  sr_span : int;
  sr_req : int;
  sr_version : int;
  sr_domain : string;
  sr_pager_hits : int;
  sr_pager_misses : int;
}

let escape = Flight.json_escape

let to_json r =
  Printf.sprintf
    "{\"ts_us\":%Ld,\"verb\":\"%s\",\"dur_ms\":%.3f,\"deadline_ms\":%.3f,\"span\":%d,\"req\":%d,\"version\":%d,\"domain\":\"%s\",\"pager_hits\":%d,\"pager_misses\":%d}"
    r.sr_wall_us (escape r.sr_verb) (r.sr_dur_s *. 1e3) (r.sr_deadline_s *. 1e3) r.sr_span r.sr_req
    r.sr_version (escape r.sr_domain) r.sr_pager_hits r.sr_pager_misses

type t = {
  default_deadline : float;
  per_verb : (string * float) list;
  sink : string -> unit;
  logged : int Atomic.t;
}

let create ~deadline_s ?(per_verb = []) ~sink () =
  { default_deadline = deadline_s; per_verb; sink; logged = Atomic.make 0 }

let deadline_for t verb =
  match List.assoc_opt verb t.per_verb with Some d -> d | None -> t.default_deadline

let observe t r =
  let deadline = deadline_for t r.sr_verb in
  if r.sr_dur_s >= deadline then begin
    Atomic.incr t.logged;
    t.sink (to_json { r with sr_deadline_s = deadline });
    true
  end
  else false

let logged t = Atomic.get t.logged
