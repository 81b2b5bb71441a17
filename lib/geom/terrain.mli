(** Rectangular simulation terrain, origin at (0, 0). *)

type t = { width : float; height : float }

val create : width:float -> height:float -> t
(** Raises [Invalid_argument] on non-positive dimensions. *)

val contains : t -> Vec2.t -> bool

val clamp : t -> Vec2.t -> Vec2.t
(** Nearest point inside the terrain. *)

val random_point : t -> Sim.Rng.t -> Vec2.t
(** Uniform point in the rectangle. *)

val diagonal : t -> float
val area : t -> float
