type child = {
  c_pid : int;
  c_fd : Unix.file_descr;  (* read end of the child's stdout *)
  c_buf : Buffer.t;  (* bytes read but not yet returned as lines *)
  mutable c_eof : bool;
  mutable c_status : Unix.process_status option;
}

type fields = (string * string) list

let pid c = c.c_pid

(* Children not yet reaped.  If the parent dies half-way (a failed
   read, a failed check), [at_exit] kills and reaps them, so no server
   outlives its parent holding a port and domains. *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let () =
  at_exit (fun () ->
      Hashtbl.iter
        (fun pid () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        live;
      Hashtbl.reset live)

let spawn ~args =
  let r, w = Unix.pipe ~cloexec:false () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv = Array.of_list (Sys.executable_name :: args) in
  let child_pid = Unix.create_process Sys.executable_name argv null w Unix.stderr in
  Unix.close w;
  Unix.close null;
  Hashtbl.replace live child_pid ();
  { c_pid = child_pid; c_fd = r; c_buf = Buffer.create 256; c_eof = false; c_status = None }

let rec restart f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart f

(* Pop one complete line from the buffer, if present. *)
let pop_line c =
  let s = Buffer.contents c.c_buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear c.c_buf;
    Buffer.add_substring c.c_buf s (i + 1) (String.length s - i - 1);
    Some (String.sub s 0 i)

let read_line ?(timeout_s = 30.0) c =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match pop_line c with
    | Some line -> Some line
    | None ->
      if c.c_eof then
        (* EOF: a trailing unterminated fragment still counts as a line. *)
        if Buffer.length c.c_buf > 0 then begin
          let line = Buffer.contents c.c_buf in
          Buffer.clear c.c_buf;
          Some line
        end
        else None
      else begin
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then
          failwith (Printf.sprintf "load child %d: no output within %.1fs" c.c_pid timeout_s);
        match restart (fun () -> Unix.select [ c.c_fd ] [] [] remaining) with
        | [], _, _ -> go ()  (* timed out; loop re-checks the deadline *)
        | _ ->
          let n = restart (fun () -> Unix.read c.c_fd chunk 0 (Bytes.length chunk)) in
          if n = 0 then c.c_eof <- true
          else Buffer.add_subbytes c.c_buf chunk 0 n;
          go ()
      end
  in
  go ()

let reap c =
  match c.c_status with
  | Some st -> st
  | None ->
    let _, st = restart (fun () -> Unix.waitpid [] c.c_pid) in
    c.c_status <- Some st;
    Hashtbl.remove live c.c_pid;
    (try Unix.close c.c_fd with _ -> ());
    st

let wait c =
  let rec drain acc =
    match read_line ~timeout_s:30.0 c with
    | Some line -> drain (line :: acc)
    | None -> List.rev acc
  in
  let lines = drain [] in
  (lines, reap c)

let terminate c =
  (try Unix.kill c.c_pid Sys.sigterm with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
  wait c

let kv line =
  match String.split_on_char ' ' (String.trim line) with
  | [] -> []
  | tag :: rest ->
    ("_tag", tag)
    :: List.filter_map
         (fun tok ->
           match String.index_opt tok '=' with
           | Some i ->
             Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
           | None -> None)
         rest

let tag_of l = Option.value (List.assoc_opt "_tag" l) ~default:""

let field l k =
  match List.assoc_opt k l with
  | Some v -> v
  | None -> failwith (Printf.sprintf "child line %s lacks %s" (tag_of l) k)

let until ?(timeout_s = 120.0) c tag =
  let rec go () =
    match read_line ~timeout_s c with
    | None -> failwith (Printf.sprintf "child %d exited before %s" c.c_pid tag)
    | Some line ->
      let l = kv line in
      if tag_of l = tag then l else go ()
  in
  go ()

let checked c (lines, status) =
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> failwith (Printf.sprintf "child %d exited %d" c.c_pid n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    failwith (Printf.sprintf "child %d killed by signal %d" c.c_pid n));
  List.map kv lines

let finish c = checked c (wait c)
let stop c = checked c (terminate c)

let reply c tag =
  let l = until c tag in
  ignore (finish c);
  l

let tagged tag lines =
  List.concat_map
    (fun l -> if tag_of l = tag then List.remove_assoc "_tag" l else [])
    lines

let trap_sigterm () =
  let stop = Atomic.make false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop true));
  fun () ->
    while not (Atomic.get stop) do
      try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
