(** DSR path cache.

    Stores complete source routes (node lists).  A lookup for a
    destination returns the hops of the shortest live cached path that
    runs from the owning node to that destination — including paths where
    both appear mid-route, since any contiguous subpath of a valid route
    is valid.  Link removals truncate every path at the broken link. *)

open Packets

type t

val create : engine:Sim.Engine.t -> owner:Node_id.t -> capacity:int -> ttl:Sim.Time.t -> t

val distinct : Node_id.t list -> bool
(** No node appears twice: the route is loop-free. *)

val add_path : t -> Node_id.t list -> unit
(** Cache a route (two or more distinct nodes).  Oldest paths are evicted
    beyond capacity. *)

val find : t -> dst:Node_id.t -> Node_id.t list option
(** Hops from the owner to [dst], excluding the owner, including [dst];
    shortest first by construction.  [None] if nothing usable. *)

val remove_link : t -> Node_id.t -> Node_id.t -> unit
(** Drop the directed link (and, links being symmetric, its reverse) from
    every cached path, truncating them. *)

val paths : t -> Node_id.t list list
(** Live cached paths, for tests and debugging. *)

val clear : t -> unit
(** Drop every cached path — churn teardown. *)
