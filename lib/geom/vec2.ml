type t = { x : float; y : float }

let v x y = { x; y }
let zero = { x = 0.; y = 0. }
let add a b = { x = a.x +. b.x; y = a.y +. b.y }
let sub a b = { x = a.x -. b.x; y = a.y -. b.y }
let scale k a = { x = k *. a.x; y = k *. a.y }
let dot a b = (a.x *. b.x) +. (a.y *. b.y)
let norm a = sqrt (dot a a)

let dist2 a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  (dx *. dx) +. (dy *. dy)

let dist a b = sqrt (dist2 a b)

(* Same arithmetic as [add a (scale u (sub b a))] term by term (float
   multiplication commutes bit-exactly), without the two intermediate
   records — this sits on the mobility fast path. *)
let lerp a b u =
  { x = a.x +. ((b.x -. a.x) *. u); y = a.y +. ((b.y -. a.y) *. u) }

let normalize a =
  let n = norm a in
  if n = 0. then zero else scale (1. /. n) a

let equal a b = a.x = b.x && a.y = b.y
