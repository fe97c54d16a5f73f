(** Monotonic wall clock.

    All observability timestamps come from the OS monotonic clock
    (CLOCK_MONOTONIC via bechamel's stub), so spans are immune to NTP
    steps and wall-clock adjustments.  Readings are nanoseconds from an
    arbitrary epoch; only differences are meaningful. *)

(** Current monotonic reading, nanoseconds.  Declared as the stub
    itself, so a caller that consumes the reading as an unboxed int64
    (say [Int64.to_int (now_ns ())]) allocates nothing. *)
external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
  [@@noalloc]

(** [elapsed_s ~since] — seconds since an earlier [now_ns] reading. *)
val elapsed_s : since:int64 -> float
