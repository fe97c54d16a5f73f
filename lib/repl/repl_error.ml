(* Typed replication failures; see the interface for the taxonomy. *)

let code_follower_ahead = "follower-ahead"
let code_generation_mismatch = "generation-mismatch"
let code_protocol = "protocol"

exception Refused of { code : string; message : string }

(* Raised by the codec and the apply engine, rebound here so callers
   catch every replication failure through one module. *)
exception Corrupt = Repl_proto.Corrupt
exception Gap = Cactis.Replica.Gap
exception Diverged = Cactis.Replica.Diverged
exception Transport of string

let to_string = function
  | Refused { code; message } -> Printf.sprintf "refused [%s]: %s" code message
  | Corrupt { context; message } -> Printf.sprintf "corrupt frame (%s): %s" context message
  | Gap { expected; got; seq } ->
    Printf.sprintf "stream gap at seq %d: replica at %s, record follows %s" seq
      (Repl_proto.cursor_to_string expected)
      (Repl_proto.cursor_to_string got)
  | Diverged { violations } ->
    Printf.sprintf "replica diverged: %s" (String.concat "; " violations)
  | Transport m -> Printf.sprintf "transport: %s" m
  | e -> Printexc.to_string e

let recoverable = function
  | Refused _ | Diverged _ -> false
  | Corrupt _ | Gap _ | Transport _ -> true
  | _ -> false
