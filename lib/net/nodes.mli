(** Struct-of-arrays per-node state.

    Flat preallocated arrays indexed by node id, replacing scattered
    per-node record fields on the hot path: positions and current
    mobility legs live in a {!Mobility.Pos_store} (unboxed float
    planes), and the per-node MAC/ifq scalars (frames sent, unicast
    failures, queue length, queue drops) are int arrays that
    {!Net.Mac} writes through at its slot.  The [up]
    plane tracks churn state (false while a node is down). *)

type t

val create : width:float -> height:float -> Mobility.t array -> at:Sim.Time.t -> t
(** [create ~width ~height mobs ~at] — one slot per element of [mobs],
    node id [i] owning slot [i].  [width]/[height] are the arena bounds
    (the channel sizes its cell index from them). *)

val length : t -> int
val store : t -> Mobility.Pos_store.t
val width : t -> float
val height : t -> float

val sent : t -> int -> int
val failures : t -> int -> int
val queue_length : t -> int -> int
val queue_drops : t -> int -> int

val up : t -> int -> bool
val set_up : t -> int -> bool -> unit

val sent_plane : t -> int array
(** The raw counter planes ([sent_plane]/[failures_plane]/[qlen_plane]/
    [qdrops_plane]): each {!Net.Mac} holds its node's cells directly,
    so counter updates are flat array stores. *)

val failures_plane : t -> int array
val qlen_plane : t -> int array
val qdrops_plane : t -> int array

val total_sent : t -> int
val total_failures : t -> int
val total_queue_drops : t -> int
