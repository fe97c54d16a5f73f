(* Raw samples and exact order statistics.  Latencies are kept as raw
   samples (no log2 buckets), so a percentile is an observed value. *)

type samples = { mutable data : Float.Array.t; mutable len : int }

let samples () = { data = Float.Array.create 4096; len = 0 }

let add s x =
  if s.len = Float.Array.length s.data then begin
    let bigger = Float.Array.create (2 * s.len) in
    Float.Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  Float.Array.unsafe_set s.data s.len x;
  s.len <- s.len + 1

let count s = s.len

let merge l =
  let out = samples () in
  List.iter
    (fun s ->
      for i = 0 to s.len - 1 do
        add out (Float.Array.get s.data i)
      done)
    l;
  out

let sorted s =
  let a = Float.Array.sub s.data 0 s.len in
  Float.Array.sort Float.compare a;
  a

(* Nearest-rank percentile of sorted data: the smallest sample with at
   least [p] of the samples at or below it. *)
let percentile sorted p =
  let n = Float.Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    Float.Array.get sorted (max 0 (min (n - 1) (rank - 1)))

(* Samples strictly above the [p] percentile's rank: a percentile is
   reported only when this is at least 10. *)
let beyond n p = n - int_of_float (Float.ceil (p *. float_of_int n))

(* Median and quartiles as Python's [statistics.quantiles(values, n=4)]
   (the default, exclusive method) computes them, so the benchmark's
   own spread matches the one its users compute. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let ld = Array.length a in
  match ld with
  | 0 -> (nan, nan, nan)
  | 1 -> (a.(0), a.(0), a.(0))
  | _ ->
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
