(* Per-domain rings behind domain-local storage.  A ring slot is four
   parallel int arrays (timestamp, kind tag, [a], [b]) plus a detail
   array of shared strings, so the hot path is one flag load, one DLS
   load, five array stores and an atomic write-index bump: no
   allocation.  [snapshot] builds the event records itself.

   A slot spans several words, so a reader copying it while its writer
   reuses it could mix two events.  Two rules keep snapshots tear-free:
   the writer stores every word of a slot *before* the atomic bump that
   publishes it, and the reader, which copies the ring between two
   reads of the index (w before, w2 after), drops every copied entry e
   with e + capacity <= w2 -- exactly the entries whose slots a writer
   may have been storing (events w .. w2) during the copy.  Every entry
   kept was therefore stored, whole, before the first index read and
   untouched until after the second. *)

type kind =
  | Txn_begin
  | Txn_commit
  | Txn_abort
  | Wal_append
  | Wal_fsync
  | Checkpoint
  | Pager_miss
  | Pager_writeback
  | Recluster_slice
  | Net_accept
  | Net_verb
  | Net_error
  | Schema_delta
  | Watchdog
  | Note
  | Span

let kind_tag = function
  | Txn_begin -> 0
  | Txn_commit -> 1
  | Txn_abort -> 2
  | Wal_append -> 3
  | Wal_fsync -> 4
  | Checkpoint -> 5
  | Pager_miss -> 6
  | Pager_writeback -> 7
  | Recluster_slice -> 8
  | Net_accept -> 9
  | Net_verb -> 10
  | Net_error -> 11
  | Schema_delta -> 12
  | Watchdog -> 13
  | Note -> 14
  | Span -> 15

let kind_of_tag = function
  | 0 -> Some Txn_begin
  | 1 -> Some Txn_commit
  | 2 -> Some Txn_abort
  | 3 -> Some Wal_append
  | 4 -> Some Wal_fsync
  | 5 -> Some Checkpoint
  | 6 -> Some Pager_miss
  | 7 -> Some Pager_writeback
  | 8 -> Some Recluster_slice
  | 9 -> Some Net_accept
  | 10 -> Some Net_verb
  | 11 -> Some Net_error
  | 12 -> Some Schema_delta
  | 13 -> Some Watchdog
  | 14 -> Some Note
  | 15 -> Some Span
  | _ -> None

let kind_name = function
  | Txn_begin -> "txn_begin"
  | Txn_commit -> "txn_commit"
  | Txn_abort -> "txn_abort"
  | Wal_append -> "wal_append"
  | Wal_fsync -> "wal_fsync"
  | Checkpoint -> "checkpoint"
  | Pager_miss -> "pager_miss"
  | Pager_writeback -> "pager_writeback"
  | Recluster_slice -> "recluster_slice"
  | Net_accept -> "net_accept"
  | Net_verb -> "net_verb"
  | Net_error -> "net_error"
  | Schema_delta -> "schema_delta"
  | Watchdog -> "watchdog"
  | Note -> "note"
  | Span -> "span"

type event = {
  fe_ts_ns : int64;
  fe_kind : kind;
  fe_a : int;
  fe_b : int;
  fe_detail : string;
}

let capacity = 4096
let mask = capacity - 1

type ring = {
  r_domain : int;
  mutable r_name : string;
  ts : int array;  (* monotonic ns *)
  tag : int array;  (* [kind_tag] *)
  va : int array;
  vb : int array;
  detail : string array;
  written : int Atomic.t;  (* events ever recorded; slot = written land mask *)
}

let mu = Mutex.create ()
let rings : ring list ref = ref []  (* guarded by [mu]; grows only *)
let on = Atomic.make true

let key =
  Domain.DLS.new_key (fun () ->
      let r =
        {
          r_domain = (Domain.self () :> int);
          r_name = "";
          ts = Array.make capacity 0;
          tag = Array.make capacity 0;
          va = Array.make capacity 0;
          vb = Array.make capacity 0;
          detail = Array.make capacity "";
          written = Atomic.make 0;
        }
      in
      Mutex.lock mu;
      rings := r :: !rings;
      Mutex.unlock mu;
      r)

let store ts k ~a ~b detail =
  let detail = if String.length detail > 255 then String.sub detail 0 255 else detail in
  let r = Domain.DLS.get key in
  let w = Atomic.get r.written in
  let i = w land mask in
  r.ts.(i) <- ts;
  r.tag.(i) <- kind_tag k;
  r.va.(i) <- a;
  r.vb.(i) <- b;
  r.detail.(i) <- detail;
  (* The atomic bump publishes the slot's stores to snapshotting domains. *)
  Atomic.set r.written (w + 1)

let record_s k ~a ~b detail =
  if Atomic.get on then store (Int64.to_int (Clock.now_ns ())) k ~a ~b detail

let record k ~a ~b = record_s k ~a ~b ""
let note detail = record_s Note ~a:0 ~b:0 detail

let span name ~start_ns ~end_ns count =
  if Atomic.get on then
    store (Int64.to_int end_ns) Span ~a:(Int64.to_int (Int64.sub end_ns start_ns)) ~b:count name

let name_domain name =
  let r = Domain.DLS.get key in
  r.r_name <- name

let set_recording v = Atomic.set on v
let recording () = Atomic.get on

type section = {
  fs_domain : int;
  fs_name : string;
  fs_total : int;
  fs_events : event list;
}

type dump = {
  d_wall_us : int64;
  d_mono_ns : int64;
  d_sections : section list;
}

let section_of_ring r =
  let w = Atomic.get r.written in
  let n = min w capacity in
  let ts = Array.make n 0 and tag = Array.make n 0 in
  let va = Array.make n 0 and vb = Array.make n 0 in
  let detail = Array.make n "" in
  for i = 0 to n - 1 do
    let j = (w - n + i) land mask in
    ts.(i) <- r.ts.(j);
    tag.(i) <- r.tag.(j);
    va.(i) <- r.va.(j);
    vb.(i) <- r.vb.(j);
    detail.(i) <- r.detail.(j)
  done;
  let w2 = Atomic.get r.written in
  (* Copied entries hold events [w-n, w-1].  A concurrent writer may
     have stored slots for events [w, w2] (w..w2-1 published since our
     first read, plus at most one unpublished in-flight store for event
     w2 itself).  Entry e was recycled iff e + capacity <= w2, so the
     dirty prefix ends at w2 - capacity. *)
  let dirty = max 0 (min (w - 1) (w2 - capacity) - (w - n) + 1) in
  let evs = ref [] in
  for i = n - 1 downto dirty do
    let kind = match kind_of_tag tag.(i) with Some k -> k | None -> Note in
    evs :=
      { fe_ts_ns = Int64.of_int ts.(i); fe_kind = kind; fe_a = va.(i); fe_b = vb.(i);
        fe_detail = detail.(i) }
      :: !evs
  done;
  let name = if r.r_name = "" then Printf.sprintf "domain-%d" r.r_domain else r.r_name in
  { fs_domain = r.r_domain; fs_name = name; fs_total = w2; fs_events = !evs }

let snapshot () =
  Mutex.lock mu;
  let rs = !rings in
  Mutex.unlock mu;
  let sections =
    List.filter_map
      (fun r ->
        let s = section_of_ring r in
        if s.fs_total = 0 then None else Some s)
      rs
    |> List.sort (fun a b -> compare a.fs_domain b.fs_domain)
  in
  {
    d_wall_us = Int64.of_float (Unix.gettimeofday () *. 1e6);
    d_mono_ns = Clock.now_ns ();
    d_sections = sections;
  }

let reset () =
  Mutex.lock mu;
  List.iter
    (fun r ->
      Atomic.set r.written 0;
      r.r_name <- "";
      Array.fill r.detail 0 capacity "")
    !rings;
  Mutex.unlock mu

(* ------------------------------------------------------------------ *)
(* CFR1 binary format (self-contained little-endian; see DESIGN.md §12) *)

let magic = "CFR1\n"

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let add_u16 b v =
  add_u8 b v;
  add_u8 b (v lsr 8)

let add_u32 b v =
  add_u8 b v;
  add_u8 b (v lsr 8);
  add_u8 b (v lsr 16);
  add_u8 b (v lsr 24)

let add_i64 b (v : int64) =
  for i = 0 to 7 do
    add_u8 b (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done

let add_int b v = add_i64 b (Int64.of_int v)

let encode d =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  add_i64 b d.d_wall_us;
  add_i64 b d.d_mono_ns;
  add_u32 b (List.length d.d_sections);
  List.iter
    (fun s ->
      add_u32 b s.fs_domain;
      add_u16 b (String.length s.fs_name);
      Buffer.add_string b s.fs_name;
      add_int b s.fs_total;
      add_u32 b (List.length s.fs_events);
      List.iter
        (fun e ->
          add_u8 b (kind_tag e.fe_kind);
          add_i64 b e.fe_ts_ns;
          add_int b e.fe_a;
          add_int b e.fe_b;
          add_u16 b (String.length e.fe_detail);
          Buffer.add_string b e.fe_detail)
        s.fs_events)
    d.d_sections;
  Buffer.contents b

exception Bad of string

let decode s =
  let pos = ref 0 in
  let len = String.length s in
  let need n what =
    if !pos + n > len then raise (Bad (Printf.sprintf "truncated at byte %d reading %s" !pos what))
  in
  let u8 what =
    need 1 what;
    let v = Char.code s.[!pos] in
    incr pos;
    v
  in
  let u16 what =
    let lo = u8 what in
    let hi = u8 what in
    lo lor (hi lsl 8)
  in
  let u32 what =
    let a = u16 what in
    let b = u16 what in
    a lor (b lsl 16)
  in
  let i64 what =
    need 8 what;
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[!pos + i]))
    done;
    pos := !pos + 8;
    !v
  in
  let int_ what = Int64.to_int (i64 what) in
  let str n what =
    need n what;
    let v = String.sub s !pos n in
    pos := !pos + n;
    v
  in
  try
    if len < String.length magic || String.sub s 0 (String.length magic) <> magic then
      raise (Bad "bad magic (not a CFR1 flight dump)");
    pos := String.length magic;
    let wall = i64 "wall clock" in
    let mono = i64 "monotonic clock" in
    let nsec = u32 "section count" in
    if nsec > 1_000_000 then raise (Bad "implausible section count");
    let sections =
      List.init nsec (fun _ ->
          let dom = u32 "domain id" in
          let name = str (u16 "name length") "name" in
          let total = int_ "total" in
          let nev = u32 "event count" in
          if nev > 100_000_000 then raise (Bad "implausible event count");
          let events =
            List.init nev (fun _ ->
                let tag = u8 "kind" in
                let kind =
                  match kind_of_tag tag with
                  | Some k -> k
                  | None -> raise (Bad (Printf.sprintf "unknown event kind %d" tag))
                in
                let ts = i64 "timestamp" in
                let a = int_ "a" in
                let b = int_ "b" in
                let detail = str (u16 "detail length") "detail" in
                { fe_ts_ns = ts; fe_kind = kind; fe_a = a; fe_b = b; fe_detail = detail })
          in
          { fs_domain = dom; fs_name = name; fs_total = total; fs_events = events })
    in
    if !pos <> len then raise (Bad (Printf.sprintf "%d trailing bytes" (len - !pos)));
    Ok { d_wall_us = wall; d_mono_ns = mono; d_sections = sections }
  with Bad msg -> Error ("flight dump: " ^ msg)

let sanitize_reason r =
  String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '-') r

(* A post-mortem must not be lost to a missing directory: create the
   dump dir (and parents) on demand. *)
let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let dump_to_file ~dir ~reason =
  mkdir_p dir;
  let d = snapshot () in
  let t = Unix.gmtime (Int64.to_float d.d_wall_us /. 1e6) in
  let name =
    Printf.sprintf "flight-%04d%02d%02dT%02d%02d%02dZ-%d-%s.cfr" (t.Unix.tm_year + 1900)
      (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec
      (Unix.getpid ()) (sanitize_reason reason)
  in
  let path = Filename.concat dir name in
  let oc = open_out_bin path in
  output_string oc (encode d);
  close_out oc;
  path

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                             *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Span and Net_verb events are stamped when they end; their start is
   the stamp minus the recorded duration. *)
let start_ns e =
  match e.fe_kind with
  | Span -> Int64.sub e.fe_ts_ns (Int64.of_int e.fe_a)
  | Net_verb -> Int64.sub e.fe_ts_ns (Int64.of_int (e.fe_a * 1000))
  | _ -> e.fe_ts_ns

let to_chrome_json d =
  let t0 =
    List.fold_left
      (fun m s -> List.fold_left (fun m e -> min m (start_ns e)) m s.fs_events)
      Int64.max_int d.d_sections
  in
  let us ns = Int64.to_float (Int64.sub ns t0) *. 1e-3 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"cactis\"}}";
  List.iter
    (fun s ->
      Printf.bprintf buf
        ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
        s.fs_domain (json_escape s.fs_name);
      (* With [stop] a complete ("X") event, without it an instant. *)
      let emit name cat ~start ?stop args =
        Printf.bprintf buf ",\n{\"name\":\"%s\",\"cat\":\"%s\"" (json_escape name) cat;
        (match stop with
        | Some stop ->
          Printf.bprintf buf ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f" (us start)
            (Int64.to_float (Int64.sub stop start) *. 1e-3)
        | None -> Printf.bprintf buf ",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f" (us start));
        Printf.bprintf buf ",\"pid\":1,\"tid\":%d,\"args\":{%s}}" s.fs_domain args
      in
      let instant e =
        emit (kind_name e.fe_kind) "flight" ~start:e.fe_ts_ns
          (Printf.sprintf "\"a\":%d,\"b\":%d,\"detail\":\"%s\"" e.fe_a e.fe_b (json_escape e.fe_detail))
      in
      (* A domain runs one transaction at a time: each Txn_begin opens the
         span its next Txn_commit or Txn_abort closes. *)
      let unclosed =
        List.fold_left
          (fun open_txn e ->
            match (e.fe_kind, open_txn) with
            | Txn_begin, _ ->
              Option.iter instant open_txn;
              Some e
            | (Txn_commit | Txn_abort), Some b ->
              let ops = if e.fe_kind = Txn_commit then e.fe_b else e.fe_a in
              emit "txn" "txn" ~start:b.fe_ts_ns ~stop:e.fe_ts_ns
                (Printf.sprintf "\"v\":%d,\"end\":\"%s\",\"ops\":%d" b.fe_a (kind_name e.fe_kind) ops);
              None
            | Span, _ ->
              emit e.fe_detail "span" ~start:(start_ns e) ~stop:e.fe_ts_ns
                (Printf.sprintf "\"count\":%d" e.fe_b);
              open_txn
            | Net_verb, _ ->
              emit e.fe_detail "net" ~start:(start_ns e) ~stop:e.fe_ts_ns
                (Printf.sprintf "\"req\":%d" e.fe_b);
              open_txn
            | _ ->
              instant e;
              open_txn)
          None s.fs_events
      in
      Option.iter instant unclosed)
    d.d_sections;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf
