(** Multi-process load-driver plumbing.

    OCaml 5 forbids forking a process that has running domains, so the
    load drivers never fork workers from a parallel parent: they
    re-execute {e their own binary} ([Sys.executable_name]) via
    fork+exec ([Unix.create_process]) with role-selecting argv, and
    only the children spawn domains.  A child talks back over its
    stdout, one line at a time, a one-word tag then [k=v] fields:

    {v
    READY port=4217          (server child, once listening)
    RESULT ops=8123 ...      (client child, before exiting)
    STAT server.req.read=…   (server child, after SIGTERM)
    v}

    The parent reads lines with a timeout (a wedged child fails the
    run, it does not hang it), stops a server with SIGTERM and requires
    a clean exit.  Children still unreaped when the parent exits, for
    whatever reason, are killed and reaped at exit. *)

type child

(** One parsed line: [("_tag", tag)] then the line's [k=v] pairs. *)
type fields = (string * string) list

(** [spawn ~args] — fork+exec this very binary with [args] appended
    after [argv0], stdout piped to the parent, stderr inherited. *)
val spawn : args:string list -> child

val pid : child -> int

(** [read_line c] — next stdout line.  [None] on EOF.
    @raise Failure on [timeout_s] (default 30s) expiring. *)
val read_line : ?timeout_s:float -> child -> string option

(** [wait c] — drain remaining lines until EOF, reap the child. *)
val wait : child -> string list * Unix.process_status

(** [terminate c] — SIGTERM, then {!wait}.  Safe if already dead. *)
val terminate : child -> string list * Unix.process_status

(** [kv line] — parse ["k1=v1 k2=v2 …"] after a one-word tag into
    assoc pairs; [("_tag", tag)] holds the leading word. *)
val kv : string -> fields

(** [field l k] — the value of [k].  @raise Failure naming the tag if absent. *)
val field : fields -> string -> string

(** [until c tag] — read lines until one tagged [tag] and return it.
    @raise Failure if the child exits first or stays silent for
    [timeout_s] (default 120s). *)
val until : ?timeout_s:float -> child -> string -> fields

(** [finish c] — {!wait}, then the remaining lines parsed.
    @raise Failure unless the child exited 0. *)
val finish : child -> fields list

(** [stop c] — SIGTERM, then {!finish}. *)
val stop : child -> fields list

(** [reply c tag] — {!until} [tag], then {!finish}: a one-shot child's answer. *)
val reply : child -> string -> fields

(** [tagged tag lines] — the fields of every line tagged [tag], merged,
    without the tag. *)
val tagged : string -> fields list -> fields

(** Child side.  [trap_sigterm ()] makes SIGTERM set a flag instead of
    killing the process and returns a function that blocks until the
    flag is set: a server child traps early, serves, then waits there
    for its parent's {!stop}. *)
val trap_sigterm : unit -> unit -> unit
