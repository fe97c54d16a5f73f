(* Process plumbing shared by the parent process and its children: argument
   lookup, the line protocol children report on, and file helpers.

   Children are this same binary re-executed through
   [Cactis_net.Load.spawn] (OCaml 5 cannot fork a process with running
   domains, so only the children ever start domains).  A child reports
   on stdout in lines of [TAG key=value ...]; floats travel in hex
   notation so no digit is lost on the way. *)

module Load = Cactis_net.Load

let arg key default =
  let v = ref default in
  Array.iteri
    (fun i a -> if a = key && i + 1 < Array.length Sys.argv then v := Sys.argv.(i + 1))
    Sys.argv;
  !v

let arg_int key default = int_of_string (arg key (string_of_int default))
let arg_float key default = float_of_string (arg key (Printf.sprintf "%h" default))

let emit tag kvs =
  print_string tag;
  List.iter (fun (k, v) -> Printf.printf " %s=%s" k v) kvs;
  print_newline ()

let f x = Printf.sprintf "%h" x
let i = string_of_int

(* [METRIC name value] lines carry measured metrics from a child. *)
let metric name v = emit "METRIC" [ (name, f v) ]

type reply = { tag : string; kv : (string * string) list }

let parse line =
  let kv = Load.kv line in
  { tag = (match List.assoc_opt "_tag" kv with Some t -> t | None -> ""); kv }

let get r k =
  match List.assoc_opt k r.kv with
  | Some v -> v
  | None -> failwith (Printf.sprintf "child line %s lacks %s" r.tag k)

let get_float r k = float_of_string (get r k)
let get_int r k = int_of_string (get r k)

(* Reads replies until [tag] arrives (returning it with the replies
   before it), failing if the child exits first or stays silent for
   [timeout_s]. *)
let until ?(timeout_s = 120.0) child tag =
  let rec go acc =
    match Load.read_line ~timeout_s child with
    | None -> failwith (Printf.sprintf "child %d exited before %s" (Load.pid child) tag)
    | Some line ->
      let r = parse line in
      if r.tag = tag then (r, List.rev acc) else go (r :: acc)
  in
  go []

(* Children not yet reaped.  If the run fails half-way, [at_exit] kills
   and reaps them, so no server outlives its parent. *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let () =
  at_exit (fun () ->
      Hashtbl.iter
        (fun pid () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        live)

let spawn args =
  let c = Load.spawn ~args in
  Hashtbl.replace live (Load.pid c) ();
  c

let reap child =
  let r = Load.wait child in
  Hashtbl.remove live (Load.pid child);
  r

(* Drains a child to EOF and reaps it; fails unless it exited 0. *)
let finish child =
  let lines, status = reap child in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> failwith (Printf.sprintf "child %d exited %d" (Load.pid child) n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    failwith (Printf.sprintf "child %d killed by signal %d" (Load.pid child) n));
  List.map parse lines

let stop child =
  (try Unix.kill (Load.pid child) Sys.sigterm with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
  finish child

(* SIGKILL, the crash a durable server must survive. *)
let crash child =
  (try Unix.kill (Load.pid child) Sys.sigkill with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
  ignore (reap child)

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> failwith "no VmHWM in /proc status"
      in
      go ())

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let now () = Cactis_obs.Clock.now_ns ()
let since t0 = Cactis_obs.Clock.elapsed_s ~since:t0

(* Logical cores: the processors the kernel lists. *)
let cores () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | ic ->
    let n = ref 0 in
    (try
       while true do
         let l = input_line ic in
         if String.length l >= 9 && String.sub l 0 9 = "processor" then incr n
       done
     with End_of_file -> ());
    close_in ic;
    if !n = 0 then Domain.recommended_domain_count () else !n
