(** Per-database observability context.

    One [Ctx.t] travels with each store/database: a shared histogram
    registry (always on).  Layers cache the histogram cells they observe
    into at construction time.  Timed sites end through {!span}, which
    feeds the site's histogram and its {!Flight.Span} event from one
    clock reading. *)

type t = { hists : Histogram.t }

val create : unit -> t

(** [span ?h name ~start_ns count] ends the site [name] begun at the
    {!Clock.now_ns} reading [start_ns]: one end reading feeds [h] (when
    given) and records a {!Flight.Span} with [count] as its [b]. *)
val span : ?h:Histogram.h -> string -> start_ns:int64 -> int -> unit

(** [time ?h name ~count f] runs [f] as the site [name] and ends it with
    {!span}, [count] read at the end — also when [f] raises. *)
val time : ?h:Histogram.h -> string -> count:(unit -> int) -> (unit -> 'a) -> 'a
