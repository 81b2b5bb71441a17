(** Idealized protocol-level network for tests and walkthroughs.

    Agents are wired over an explicit, mutable adjacency: no MAC, no
    collisions, just deterministic per-link delays.  Broadcast reaches the
    current neighbors (in id order, at slightly staggered times, so reply
    ordering is deterministic); unicast to a disconnected node triggers
    the agent's [link_failure] callback after a short delay, imitating
    MAC retry exhaustion.  This isolates protocol logic from radio
    effects — the full stack is exercised by {!Runner}. *)


type t

val create :
  ?obs:Obs.Bus.t ->
  engine:Sim.Engine.t -> factory:Routing.Agent.factory -> n:int -> unit -> t
(** [obs] is shared by every node's ctx (so one monitor sees all
    table writes); omitted, each node gets a private disabled bus.
    Under a [`Controlled] engine the transport switches to floating
    events: every in-flight message (and every link-failure
    notification) becomes an explorer-orderable event tagged with the
    receiving node — no fixed per-hop delays. *)

val create_custom :
  ?obs:Obs.Bus.t ->
  engine:Sim.Engine.t ->
  factories:(Routing.Agent.ctx -> Routing.Agent.t) array ->
  unit ->
  t
(** Per-node factories (e.g. to keep debug handles on some nodes). *)

val agent : t -> int -> Routing.Agent.t
val connect : t -> int -> int -> unit
val disconnect : t -> int -> int -> unit
val connected : t -> int -> int -> bool
val connect_chain : t -> int list -> unit
val metrics : t -> Metrics.t

val origin : t -> src:int -> dst:int -> unit
(** Originate one data packet at [src] for [dst] (counted in metrics). *)

val delivered : t -> int
val run : t -> for_:Sim.Time.t -> unit
(** Advance the engine by the given amount of virtual time. *)

val find_cycle : t -> (int * int list) option
(** First successor-graph cycle as [(destination, cycle nodes in walk
    order)] ({!Routing.Agent.cycle}), [None] when every chain is
    acyclic.  The mcheck explorer calls it after every fired event and
    puts the cycle in the violation trace. *)
