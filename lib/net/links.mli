(** Explicit-link medium: an idealized transport over a mutable
    adjacency, for protocol tests, walkthroughs and the model checker.

    No radio, no collisions: a hop takes 1 ms.  A broadcast reaches the
    current neighbours in id order, 100 us apart, so reply order is a
    function of node ids; a unicast over a missing link reports a link
    failure at the sender 10 ms later, imitating MAC retry exhaustion.
    Link state is re-checked at delivery, and a node whose MAC is down
    neither sends nor is reached.  Deliveries and link failures go
    through the node's {!Mac.callbacks}, the record its MAC got.

    Under a [`Controlled] engine each hop and link failure is instead a
    floating event labelled ["CLASS src->dst #hash"] (["LINKFAIL
    src->dst"]) that the explorer orders freely. *)

open Packets

type t

val create : engine:Sim.Engine.t -> int -> t
(** [create ~engine n]: nodes [0 .. n-1], no links. *)

val attach : t -> Mac.t -> Mac.callbacks -> unit
(** Register node [Mac.id mac]: its power state and its callbacks. *)

val connect : t -> int -> int -> unit
(** Add the undirected link [a]-[b] ([a = b] is ignored). *)

val disconnect : t -> int -> int -> unit

val send : t -> int -> dst:Frame.dst -> Payload.t -> unit
(** [send t i ~dst payload]: node [i] transmits [payload]. *)
