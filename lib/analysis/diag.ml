type severity =
  | Error
  | Warning
  | Info

type step =
  | S_self
  | S_rel of string

type node = {
  n_type : string;
  n_attr : string;
}

type t = {
  severity : severity;
  code : string;
  path : string;
  message : string;
  witness : (node * step) list;
  hint : string option;
  fix : string option;
}

let make ?(witness = []) ?hint ?fix severity ~code ~path message =
  { severity; code; path; message; witness; hint; fix }

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function
  | Error -> 0
  | Warning -> 1
  | Info -> 2

let compare a b =
  match Int.compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 -> (
    match String.compare a.path b.path with
    | 0 -> String.compare a.code b.code
    | c -> c)
  | c -> c

let is_error d = d.severity = Error
let errors ds = List.filter is_error ds

let node_to_string n = n.n_type ^ "." ^ n.n_attr

let witness_to_string w =
  match w with
  | [] -> ""
  | (first, _) :: _ ->
    let buf = Buffer.create 64 in
    List.iter
      (fun (n, step) ->
        Buffer.add_string buf (node_to_string n);
        Buffer.add_string buf
          (match step with S_self -> " -> " | S_rel r -> Printf.sprintf " -[%s]-> " r))
      w;
    Buffer.add_string buf (node_to_string first);
    Buffer.contents buf

let to_string d =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "%s[%s] %s: %s" (severity_name d.severity) d.code d.path d.message);
  if d.witness <> [] then
    Buffer.add_string buf (Printf.sprintf "\n    witness: %s" (witness_to_string d.witness));
  (match d.hint with
  | Some h -> Buffer.add_string buf (Printf.sprintf "\n    hint: %s" h)
  | None -> ());
  Buffer.contents buf

let jstr s = Printf.sprintf "\"%s\"" (Cactis_obs.Flight.json_escape s)

let to_json d =
  let witness =
    d.witness
    |> List.map (fun (n, step) ->
           Printf.sprintf "{\"type\":%s,\"attr\":%s,\"step\":%s}" (jstr n.n_type) (jstr n.n_attr)
             (match step with S_self -> jstr "self" | S_rel r -> jstr r))
    |> String.concat ","
  in
  Printf.sprintf
    "{\"severity\":%s,\"code\":%s,\"path\":%s,\"message\":%s,\"witness\":[%s],\"hint\":%s,\"fix\":%s}"
    (jstr (severity_name d.severity))
    (jstr d.code) (jstr d.path) (jstr d.message) witness
    (match d.hint with Some h -> jstr h | None -> "null")
    (match d.fix with Some f -> jstr f | None -> "null")

let summary ds =
  let count s = List.length (List.filter (fun d -> d.severity = s) ds) in
  let e = count Error and w = count Warning and i = count Info in
  let part n what = if n = 1 then Printf.sprintf "1 %s" what else Printf.sprintf "%d %ss" n what in
  Printf.sprintf "%d diagnostic%s (%s, %s, %s)" (List.length ds)
    (if List.length ds = 1 then "" else "s")
    (part e "error") (part w "warning") (part i "info")
