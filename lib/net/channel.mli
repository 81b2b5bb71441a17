(** Shared radio medium.

    Unit-disk propagation: a transmission reaches exactly the radios
    within [Params.range_m] of the sender at the moment it starts.
    Collision model: a radio that sees two temporally overlapping
    transmissions decodes neither, and a radio that is itself transmitting
    hears nothing.  Carrier sense is binary — the medium is busy for a
    radio whenever at least one in-range transmission is in the air.

    Positions are read from the shared {!Mobility.Pos_store} planes of
    the channel's {!Nodes.t} and candidates come from an incrementally
    maintained {!Geom.Cell_index}: the index over-approximates by a
    drift bound, then the exact range predicate is re-applied and
    receptions are ordered newest attach first.  A brute-force scan
    over every radio touches the same radios in the same order; the
    test suite keeps one as an oracle. *)

open Packets

type t

type radio

val create :
  engine:Sim.Engine.t -> ?max_speed:float -> ?obs:Obs.Bus.t ->
  nodes:Nodes.t -> ?link:Link_model.t -> params:Params.t -> unit -> t
(** [create ~engine ~nodes ~params] builds a channel.  [obs] is the
    observability bus ({!Obs.Bus}) the channel (and the MACs attached to
    it) emit on; defaults to a fresh disabled bus.

    Radio positions come from the [nodes] store and its arena bounds
    size the cell index.  [max_speed] is an upper bound (m/s) on any
    radio's speed: the index is resynced only when indexed positions may
    have drifted past a fixed margin, and queries are inflated by the
    current drift bound.  When omitted,
    speeds are treated as unknown and the index is resynced on every
    clock advance — exact for any mobility.  [link] layers deterministic
    shadowing and/or a partition wall on the unit disk
    ({!Link_model}); omitted, the propagation fast path is the plain
    unit disk. *)

val params : t -> Params.t

val nodes : t -> Nodes.t
(** The per-node state the channel reads positions from; MACs write
    their counters into the same planes. *)

val attach : t -> slot:int -> id:Node_id.t -> radio
(** Register a node's radio at its [slot] in the node store, from which
    the radio takes its position.  One radio per slot. *)

val set_attached : t -> radio -> bool -> unit
(** Churn: [set_attached t r false] removes the radio from the
    incremental index immediately, and so from the candidate set of
    every subsequent transmission; [true] re-inserts it at its current
    position.
    In-flight receptions drain normally — the down-gated MAC discards
    them. *)

val attached : radio -> bool

val index_stats : t -> int * int * int
(** [(cells, occupied, max_occupancy)] of the live spatial index —
    health gauges surfaced through [Obs.Telemetry]. *)

val set_receiver : radio -> (Frame.t -> unit) -> unit
(** Called with every frame the radio decodes, including frames addressed
    to other nodes (promiscuous reception is the MAC's filtering job). *)

val set_medium_listener : radio -> (bool -> unit) -> unit
(** Called when carrier sense transitions busy<->idle for this radio. *)

val transmit : t -> radio -> Frame.t -> duration:Sim.Time.t -> unit
(** Start a transmission now.  The caller (MAC) is responsible for medium
    access; the channel just propagates. *)


val busy : t -> radio -> bool
(** Carrier sense, including the radio's own transmission. *)

val transmitting : radio -> bool

val radio_id : radio -> Node_id.t

val fanout : t -> radio -> Node_id.t list
(** The radios a transmission by this radio starting now would touch
    (carrier-sense range, link model applied), in delivery order —
    computed by the same candidate walk as {!transmit}.  Used by tests
    and topology audits, not by protocols. *)

val add_transmit_hook : t -> (Node_id.t -> Frame.t -> unit) -> unit
(** Register a tap invoked at the start of every transmission (metrics,
    pcap export, ...).  Hooks run in registration order. *)

val transmissions : t -> int
(** Total frames put on the air so far. *)

val in_flight : t -> int
(** Transmissions currently in the air. *)

val obs : t -> Obs.Bus.t
(** The channel's observability bus.  The channel emits [Tx] at every
    transmission start and [Collision] for each locked-but-lost frame
    at end of transmission; MACs share this bus for their rx/ifq
    events. *)
