(* Follower-side apply engine.  See the interface for the chain rules. *)

type cursor = { gen : int; records : int }

let cursor_zero = { gen = 0; records = 0 }

let cursor_compare a b =
  match compare a.gen b.gen with 0 -> compare a.records b.records | c -> c

let cursor_to_string c = Printf.sprintf "(gen %d, record %d)" c.gen c.records

type entry = {
  e_seq : int;
  e_prev : cursor;
  e_cursor : cursor;
  e_record : string;
}

exception Corrupt of { context : string; message : string }
exception Gap of { expected : cursor; got : cursor; seq : int }
exception Diverged of { violations : string list }

type t = {
  db : Db.t;
  apply : string -> unit;
  mutable cursor : cursor;
  mutable seq : int;
  mutable records_applied : int;
}

let default_apply db record =
  let delta =
    try Codec.decode_delta record
    with Codec.Error { offset; message } ->
      raise (Corrupt { context = "record"; message = Printf.sprintf "at byte %d: %s" offset message })
  in
  Db.replay_delta db delta;
  Engine.propagate (Db.engine db)

let create ?apply ~cursor db =
  let apply = match apply with Some f -> f | None -> default_apply db in
  { db; apply; cursor; seq = -1; records_applied = 0 }

let db t = t.db
let cursor t = t.cursor
let seq t = t.seq
let records_applied t = t.records_applied

type outcome = Applied | Skipped

let apply_entry t e =
  if cursor_compare e.e_cursor t.cursor <= 0 then begin
    (* Already folded into our state: a resumed stream may repeat the
       tail, and a bootstrap snapshot may cover records also present in
       the backlog.  Skipping is the documented duplicate tolerance. *)
    t.seq <- max t.seq e.e_seq;
    Skipped
  end
  else if cursor_compare e.e_prev t.cursor <> 0 then
    raise (Gap { expected = t.cursor; got = e.e_prev; seq = e.e_seq })
  else begin
    t.apply e.e_record;
    t.cursor <- e.e_cursor;
    t.seq <- e.e_seq;
    t.records_applied <- t.records_applied + 1;
    Applied
  end

let apply_mark t ~seq ~prev ~generation =
  if generation <= t.cursor.gen then begin
    t.seq <- max t.seq seq;
    Skipped
  end
  else if cursor_compare prev t.cursor <> 0 then
    raise (Gap { expected = t.cursor; got = prev; seq })
  else begin
    t.cursor <- { gen = generation; records = 0 };
    t.seq <- seq;
    Applied
  end

let drift_check t =
  match Integrity.check t.db with
  | [] -> ()
  | violations -> raise (Diverged { violations })
