(** CSMA/CA medium access (simplified 802.11 DCF).

    Mechanisms modelled: carrier sense with DIFS deferral, binary
    exponential backoff (frozen while the medium is busy), unicast
    ACK + retransmission with a retry limit, unacknowledged broadcast, a
    drop-tail interface queue.  Unicast retry exhaustion is reported as a
    link failure — the signal on-demand routing protocols use for route
    maintenance.

    Not modelled (see DESIGN.md): RTS/CTS and the NAV; EIFS; capture. *)

open Packets

type t

type callbacks = {
  receive : Payload.t -> from:Node_id.t -> unit;
      (** frames addressed to this node or broadcast *)
  promiscuous : Payload.t -> from:Node_id.t -> dst:Frame.dst -> unit;
      (** frames overheard but addressed elsewhere (DSR snooping) *)
  link_failure : Payload.t -> next_hop:Node_id.t -> unit;
      (** unicast gave up after the retry limit *)
}

val create :
  engine:Sim.Engine.t ->
  channel:Channel.t ->
  rng:Sim.Rng.t ->
  id:Node_id.t ->
  slot:int ->
  callbacks ->
  t
(** [slot] is the node's slot in the channel's {!Nodes.t}: the MAC
    registers its radio there ({!Channel.attach}) and writes its
    sent/failure/queue counters through that slot of the flat [Nodes]
    planes. *)

val send : t -> dst:Frame.dst -> Packets.Payload.t -> unit
(** Enqueue a frame.  Silently dropped (counted) if the queue is full.
    Ignored while the node is down. *)

val set_down : t -> bool -> unit
(** Churn power toggle.  Going down flushes the interface queue, cancels
    the armed CSMA/ACK timers and discards any half-sent frame (no link
    failure is reported — the node died, the link did not).  Going up
    restores a clean idle MAC.  Pair with [Channel.set_attached] so the
    radio also stops receiving. *)

val is_down : t -> bool

val id : t -> Node_id.t
val queue_length : t -> int
val queue_drops : t -> int
val unicast_failures : t -> int
val frames_sent : t -> int
(** Payload frames this MAC put on the air (counting retransmissions,
    not ACKs). *)

val radio : t -> Channel.radio
