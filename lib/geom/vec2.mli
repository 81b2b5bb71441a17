(** Planar positions and displacements, in metres. *)

type t = { x : float; y : float }

val v : float -> float -> t
val zero : t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val dot : t -> t -> float
val norm : t -> float
val dist : t -> t -> float
val dist2 : t -> t -> float
(** Squared distance; avoids the sqrt in range tests. *)

val lerp : t -> t -> float -> t
(** [lerp a b u] is the point a fraction [u] of the way from [a] to [b]. *)

val normalize : t -> t
(** Unit vector in the same direction; [zero] maps to [zero]. *)

val equal : t -> t -> bool
