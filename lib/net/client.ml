type t = {
  fd : Unix.file_descr;
  mutable next_id : int;
  mutable watermark : int;  (* version of our last commit *)
  mutable open_ : bool;
}

exception Remote of { code : Proto.error_code; message : string }
exception Transport of string

let connect ?(host = "127.0.0.1") ~port () =
  { fd = Frame.connect ~host ~port; next_id = 1; watermark = 0; open_ = true }

let close t =
  if t.open_ then begin
    t.open_ <- false;
    try Unix.close t.fd with _ -> ()
  end

let request ?(span = 0) t req =
  if not t.open_ then raise (Transport "client closed");
  let env = { Proto.req_id = t.next_id; span_id = span } in
  t.next_id <- t.next_id + 1;
  Frame.send t.fd (Proto.encode_req env req);
  match Frame.recv t.fd with
  | None -> raise (Transport "connection closed by server")
  | Some payload ->
    let renv, resp = Proto.decode_resp payload in
    (* Protocol errors for undecodable requests echo req_id 0. *)
    if renv.Proto.req_id <> env.Proto.req_id && renv.Proto.req_id <> 0 then
      raise
        (Transport
           (Printf.sprintf "response id %d does not match request id %d" renv.Proto.req_id
              env.Proto.req_id));
    resp

let fail_unexpected resp =
  match resp with
  | Proto.Error { code; message } -> raise (Remote { code; message })
  | _ -> raise (Transport "unexpected response variant")

let ping t = match request t Proto.Ping with Proto.Pong -> () | r -> fail_unexpected r

type session_info = { version : int; readers : int; instances : int }

let open_session t =
  match request t Proto.Open_session with
  | Proto.Opened { version; readers; instances } -> { version; readers; instances }
  | r -> fail_unexpected r

let read ?span ?min_version t ~instance ~attr =
  let min_version = Option.value ~default:t.watermark min_version in
  match request ?span t (Proto.Read { min_version; instance; attr }) with
  | Proto.Value { version; value } -> (value, version)
  | r -> fail_unexpected r

let traverse ?span ?min_version ?(depth = -1) t ~root ~rel ~attr =
  let min_version = Option.value ~default:t.watermark min_version in
  match request ?span t (Proto.Traverse { min_version; root; rel; attr; depth }) with
  | Proto.Traversed { version; visited; total } -> (visited, total, version)
  | r -> fail_unexpected r

let commit ?span t updates =
  match request ?span t (Proto.Commit updates) with
  | Proto.Committed { version; created } ->
    t.watermark <- max t.watermark version;
    (version, created)
  | r -> fail_unexpected r

let last_commit t = t.watermark

let stats t =
  match request t Proto.Stats with
  | Proto.Stats_reply { counters; latencies } -> (counters, latencies)
  | r -> fail_unexpected r

let metrics t =
  match request t Proto.Metrics with
  | Proto.Metrics_reply text -> text
  | r -> fail_unexpected r
