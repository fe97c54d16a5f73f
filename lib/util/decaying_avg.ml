(* An all-float record is stored flat, so [observe] updates the
   estimate in place; a mixed record would box every new estimate.  The
   observation count is a float for the same reason (exact to 2^53). *)
type t = {
  alpha : float;
  mutable estimate : float;
  mutable count : float;
}

let create ?(alpha = 0.25) ~initial () =
  if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Decaying_avg.create: alpha must be in (0,1]";
  { alpha; estimate = initial; count = 0.0 }

let observe t x =
  t.estimate <- t.estimate +. (t.alpha *. (x -. t.estimate));
  t.count <- t.count +. 1.0

let value t = t.estimate
let observations t = int_of_float t.count

let reset t ~initial =
  t.estimate <- initial;
  t.count <- 0.0

let pp fmt t = Format.fprintf fmt "%.3f (n=%d)" t.estimate (observations t)
