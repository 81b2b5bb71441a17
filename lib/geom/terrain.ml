type t = { width : float; height : float }

let create ~width ~height =
  if width <= 0. || height <= 0. then invalid_arg "Terrain.create: non-positive size";
  { width; height }

let contains t (p : Vec2.t) =
  p.x >= 0. && p.x <= t.width && p.y >= 0. && p.y <= t.height

let clamp t (p : Vec2.t) =
  Vec2.v (Float.max 0. (Float.min t.width p.x)) (Float.max 0. (Float.min t.height p.y))

let random_point t rng =
  Vec2.v (Sim.Rng.float rng t.width) (Sim.Rng.float rng t.height)

let diagonal t = sqrt ((t.width *. t.width) +. (t.height *. t.height))
let area t = t.width *. t.height
