type t = { hists : Histogram.t }

let create () = { hists = Histogram.create () }

let span ?h name ~start_ns count =
  let end_ns = Clock.now_ns () in
  (match h with
  | Some h -> Histogram.observe h (Int64.to_float (Int64.sub end_ns start_ns) *. 1e-9)
  | None -> ());
  Flight.span name ~start_ns ~end_ns count

let time ?h name ~count f =
  let start_ns = Clock.now_ns () in
  match f () with
  | v ->
    span ?h name ~start_ns (count ());
    v
  | exception e ->
    span ?h name ~start_ns (count ());
    raise e
