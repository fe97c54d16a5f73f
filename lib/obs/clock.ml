external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
  [@@noalloc]

let elapsed_s ~since = Int64.to_float (Int64.sub (now_ns ()) since) *. 1e-9
