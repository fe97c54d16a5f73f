(** Log-bucketed latency histograms.

    Each histogram spreads observed durations over power-of-two
    microsecond buckets (bucket [i] covers [[2^(i-1), 2^i)] µs), so an
    observation is two float ops and an array increment — cheap enough
    to leave on permanently.  Quantiles are reconstructed from the
    buckets (geometric midpoint), exact to within one bucket (~2x);
    [max] is exact.

    A [t] is a registry of named histograms, mirroring
    {!Cactis_util.Counters}: hot paths cache the [h] cell once and skip
    the name lookup.

    Registries are {e domain-safe}: {!cell} returns a histogram private
    to the calling domain (so {!observe} is a race-free plain array
    increment with exactly one writer), and {!snapshot} merges the
    per-domain shards by name — bucket counts sum, maxima max.  Totals
    are exact once the observing domains have been joined; snapshots
    taken while other domains observe are monitoring-grade (never torn,
    possibly mid-burst).  Single-domain programs see bit-identical
    statistics to the historical unsharded registry.  A cached [h] must
    only be observed from the domain that obtained it. *)

type h
(** A single histogram. *)

type t
(** A registry of named histograms. *)

type stats = {
  st_name : string;
  st_count : int;
  st_sum : float;  (** seconds *)
  st_mean : float;  (** seconds *)
  st_p50 : float;  (** seconds *)
  st_p95 : float;  (** seconds *)
  st_p99 : float;  (** seconds *)
  st_max : float;  (** seconds *)
}

val create : unit -> t

(** [cell t name] — the named histogram for the calling domain, created
    empty on first use.  [reset] clears cells in place, so cached cells
    stay valid. *)
val cell : t -> string -> h

(** [observe h seconds] records one duration. *)
val observe : h -> float -> unit

(** [observe_named t name seconds] — {!cell} + {!observe} (cold paths). *)
val observe_named : t -> string -> float -> unit

val count : h -> int

(** Exact sum of observed durations, seconds (OpenMetrics [_sum]). *)
val sum : h -> float

(** Exact maximum observed duration, seconds. *)
val max_value : h -> float

(** Number of buckets (fixed). *)
val num_buckets : int

(** [bucket_upper i] — upper bound of bucket [i] in seconds (bucket [i]
    covers [[2^(i-1), 2^i)] µs; bucket 0 is everything under 1µs). *)
val bucket_upper : int -> float

(** Per-bucket observation counts (a fresh copy, length
    {!num_buckets}). *)
val bucket_counts : h -> int array

(** [quantile h q] for [q] in [[0,1]]; 0 when empty. *)
val quantile : h -> float -> float

val stats : string -> h -> stats

(** Stats for every named histogram with at least one observation,
    sorted by name. *)
val snapshot : t -> stats list

(** One merged histogram per name across all shards (fresh private
    copies — safe to read at leisure), names sorted, empty histograms
    omitted.  The raw-bucket counterpart of {!snapshot}, for OpenMetrics
    exposition and window diffing. *)
val merged_cells : t -> (string * h) list

(** Zero every histogram in place. *)
val reset : t -> unit
