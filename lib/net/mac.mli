(** CSMA/CA medium access (simplified 802.11 DCF).

    Mechanisms modelled: carrier sense with DIFS deferral, binary
    exponential backoff (frozen while the medium is busy), unicast
    ACK + retransmission with a retry limit, unacknowledged broadcast, a
    drop-tail interface queue.  Unicast retry exhaustion is reported as a
    link failure — the signal on-demand routing protocols use for route
    maintenance.

    The capture effect is modelled in {!Channel}: a reception survives an
    interferer at least 1.78 times as far from the receiver as the
    wanted transmitter (10 dB SIR); comparable-power overlaps corrupt
    both frames.

    Not modelled (see DESIGN.md): RTS/CTS and the NAV; EIFS. *)

open Packets

type t

val retry_limit : int
(** Unicast attempts before declaring link failure. *)

type callbacks = {
  receive : Payload.t -> from:Node_id.t -> unit;
      (** frames addressed to this node or broadcast *)
  promiscuous : (Payload.t -> from:Node_id.t -> dst:Frame.dst -> unit) option;
      (** unicast frames overheard but addressed elsewhere (DSR
          snooping); [None] tells the channel not to hand the MAC such
          frames at all ({!Channel.set_receiver}) *)
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
(** [slot] is the node's slot in the channel's position store: the MAC
    registers its radio there ({!Channel.attach}). *)

val send : t -> dst:Frame.dst -> Packets.Payload.t -> unit
(** Enqueue a frame.  Silently dropped (counted) if the queue is full.
    Ignored while the node is down. *)

val set_down : t -> bool -> unit
(** Churn power toggle.  Going down detaches the radio from the channel
    ({!Channel.set_attached}), so no later transmission reaches it,
    flushes the interface queue, cancels the armed CSMA/ACK timers and
    discards any half-sent frame (no link failure is reported — the
    node died, the link did not).  Going up re-attaches the radio and
    restores a clean idle MAC. *)

val is_down : t -> bool

val id : t -> Node_id.t
val queue_length : t -> int
val queue_drops : t -> int
val unicast_failures : t -> int

val radio : t -> Channel.radio
