(** Shared radio medium.

    Unit-disk propagation: a transmission reaches exactly the radios
    within [Params.range_m] of the sender at the moment it starts.
    Collision model: a radio that sees two temporally overlapping
    transmissions decodes neither, and a radio that is itself transmitting
    hears nothing.  Carrier sense is binary — the medium is busy for a
    radio whenever at least one in-range transmission is in the air.

    A channel created with [~world] is store-backed, the production path:
    positions are read from the shared {!Mobility.Pos_store} planes and
    candidates come from an incrementally maintained
    {!Geom.Cell_index}.  Without [~world] it scans every radio's position
    closure — the reference path for differential tests.  Both touch
    identical radios in identical order (the index over-approximates by
    a drift bound, then the exact range predicate is re-applied and
    receptions are ordered newest attach first), so per-seed runs are
    byte-identical across the two. *)

open Packets

type t

type radio

val create :
  engine:Sim.Engine.t -> ?max_speed:float -> ?obs:Obs.Bus.t ->
  ?world:Nodes.t -> ?link:Link_model.t -> params:Params.t -> unit -> t
(** [create ~engine ~params] builds a channel.  [obs] is the
    observability bus ({!Obs.Bus}) the channel (and the MACs attached to
    it) emit on; defaults to a fresh disabled bus.

    [world] makes the channel store-backed: radio positions come from the
    node store and its arena bounds size the cell index.  [max_speed] is
    an upper bound (m/s) on any radio's speed: the index is resynced
    only when indexed positions may have drifted past a fixed margin,
    and queries are inflated by the current drift bound.  When omitted,
    speeds are treated as unknown and the index is resynced on every
    clock advance — exact for any mobility.  [link] layers deterministic
    shadowing and/or a partition wall on the unit disk
    ({!Link_model}); omitted, the propagation fast path is the plain
    unit disk. *)

val params : t -> Params.t

val attach :
  t -> ?idx:int -> id:Node_id.t -> position:(unit -> Geom.Vec2.t) -> unit ->
  radio
(** Register a node's radio.  [idx] is the node's slot in the store —
    required on a store-backed channel, whose radios then take their
    positions from the store, and ignored otherwise.  On a naive channel
    [position] is queried at event times (it must be safe to call with
    the engine's current clock); a store-backed channel ignores it. *)

val set_attached : t -> radio -> bool -> unit
(** Churn: [set_attached t r false] removes the radio from the candidate
    set of every subsequent transmission (and from the incremental index
    immediately); [true] re-inserts it at its current position.
    In-flight receptions drain normally — the down-gated MAC discards
    them. *)

val attached : radio -> bool

val index_stats : t -> int * int * int
(** [(cells, occupied, max_occupancy)] of the live spatial index —
    health gauges surfaced through [Obs.Telemetry]; all zero on a naive
    channel, which has no index. *)

val set_receiver : radio -> (Frame.t -> unit) -> unit
(** Called with every frame the radio decodes, including frames addressed
    to other nodes (promiscuous reception is the MAC's filtering job). *)

val set_medium_listener : radio -> (bool -> unit) -> unit
(** Called when carrier sense transitions busy<->idle for this radio. *)

val transmit : t -> radio -> Frame.t -> duration:Sim.Time.t -> unit
(** Start a transmission now.  The caller (MAC) is responsible for medium
    access; the channel just propagates. *)

val set_remote :
  t -> grace:Sim.Time.t -> (Frame.t -> src:radio -> duration:Sim.Time.t -> bool)
  -> unit
(** PDES routing hook, called at the start of every local transmission.
    The callback posts remote copies to whichever other shards the
    transmission may concern and returns whether it posted any; the
    result is latched on the source radio ({!crossed}) so the MAC can
    extend that frame's unicast ACK wait by [grace] (the cross-shard
    delivery latency is paid twice: data out, ACK back). *)

val remote_grace : t -> Sim.Time.t
(** The [grace] registered with {!set_remote}; [Time.zero] when no
    remote hook is installed (every non-PDES run). *)

val crossed : radio -> bool
(** Whether this radio's most recent transmission was forwarded
    cross-shard by the remote hook. *)

val radio_pos : radio -> Geom.Vec2.t
(** The radio's current position (from the store on a store-backed
    channel, else from the position closure). *)

val transmit_from :
  t -> src_id:Node_id.t -> pos:Geom.Vec2.t -> Frame.t -> duration:Sim.Time.t
  -> unit
(** Deliver the remote copy of a transmission whose source radio lives
    on another shard: propagates [frame] from the snapshot position
    [pos] to this channel's radios with normal carrier-sense, capture
    and collision handling.  Does not count in {!transmissions}, does
    not run transmit hooks and emits no Tx event — the source's home
    shard already accounted for the transmission. *)

val busy : t -> radio -> bool
(** Carrier sense, including the radio's own transmission. *)

val transmitting : radio -> bool

val radio_id : radio -> Node_id.t

val neighbors_in_range : t -> radio -> Node_id.t list
(** Radios currently within range — used by tests and topology audits,
    not by protocols. *)

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
