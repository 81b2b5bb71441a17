(** Shared radio medium.

    Unit-disk propagation: a transmission reaches exactly the radios
    within 275 m of the sender at the moment it starts.
    Collision model: a radio that sees two temporally overlapping
    transmissions decodes neither, and a radio that is itself transmitting
    hears nothing.  Carrier sense is binary — the medium is busy for a
    radio whenever at least one in-range transmission is in the air.

    Positions are read from the shared {!Mobility.Pos_store} planes.
    Candidates come from the sender's neighbour list: the radios within
    the carrier-sense range (times the link model's largest gain) plus
    a fixed margin, newest attach first.  One pass over the list
    classifies each attached entry, so receptions come out newest
    attach first with no sort.  On the plain unit disk an entry whose
    cached position, widened by {!Mobility.max_move}, settles its
    fate — certainly beyond carrier sense, or certainly touched without
    being able to decode, lock or corrupt — is not refreshed; every
    other entry is refreshed and decided by the exact predicate, so the
    outcome is the exact one.  Lists name every radio that has ever
    attached.  All of them are rebuilt together, in one pass over a
    uniform cell grid, at the first transmission after a radio's first
    attach or once twice the fastest store process's
    {!Mobility.max_speed} times their age exceeds the margin.  A
    brute-force scan over every radio touches the same radios in the
    same order; the test suite keeps one as an oracle. *)

open Packets

type t

type radio

val create :
  engine:Sim.Engine.t -> ?obs:Obs.Bus.t ->
  store:Mobility.Pos_store.t -> terrain:Geom.Terrain.t ->
  ?link:Link_model.t -> params:Params.t -> unit -> t
(** [create ~engine ~store ~terrain ~params] builds a channel.  [obs] is
    the observability bus ({!Obs.Bus}) the channel (and the MACs
    attached to it) emit on; defaults to a fresh disabled bus.

    Radio positions come from [store], slot [i] of which is node [i]'s
    mobility process; the [terrain] bounds size the rebuild's cell
    grid.  The largest {!Mobility.max_speed} over the store's processes
    bounds how fast neighbour lists age: they live until both ends of a
    pair may have closed their margin.  [link] layers deterministic
    shadowing and/or a partition wall on the unit disk
    ({!Link_model}); omitted, the propagation fast path is the plain
    unit disk. *)

val params : t -> Params.t

val attach : t -> slot:int -> id:Node_id.t -> radio
(** Register a node's radio at its [slot] in the position store, from
    which the radio takes its position.  One radio per slot (a second
    raises [Invalid_argument]). *)

val set_attached : t -> radio -> bool -> unit
(** Churn: after [set_attached t r false] no transmission touches the
    radio; [true] makes it reachable again.  Neighbour lists keep naming
    a detached radio, so neither direction rebuilds them.
    {!Mac.set_down} calls it; in-flight receptions drain normally and
    the down-gated MAC discards them. *)

val attached : t -> radio -> bool

val index_stats : t -> int * int * int
(** [(cells, occupied, max_occupancy)] of the rebuild's cell grid, as
    binned by the last rebuild (no radio binned before the first) — health
    gauges surfaced through [Obs.Telemetry].  A rebuild bins every radio
    that has ever attached, detached ones included, at its position
    then. *)

val set_receiver : radio -> overhear:bool -> (Frame.t -> unit) -> unit
(** Called with each frame the radio decodes that is broadcast or
    addressed to it, and if [overhear] with the data unicasts it
    decodes for other nodes too; an ACK for another node is never
    handed over.  A withheld frame still locks, captures and corrupts
    as one handed over. *)

val set_medium_listener : radio -> (bool -> unit) -> unit
(** Called when carrier sense transitions busy<->idle for this radio,
    while the radio contends ({!set_contending}).  The sender's own edge
    comes first.  The busy edges of a transmission fire after every
    touched radio has been classified and counted busy, in delivery
    order.  At its end each touched radio's idle edge fires just before
    its frame is handed over or lost, in delivery order. *)

val set_contending : t -> radio -> bool -> unit
(** Whether the medium listener hears carrier-sense edges: [true] (the
    default) reports every edge, [false] none.  Edges missed while off
    are not replayed; a listener that turns it back on reads {!busy}.
    {!Mac} turns it on exactly while it counts down its access backoff,
    the only phase in which it acts on an edge. *)

val transmit : t -> radio -> Frame.t -> duration:Sim.Time.t -> unit
(** Start a transmission now.  The caller (MAC) is responsible for medium
    access; the channel just propagates. *)


val busy : t -> radio -> bool
(** Carrier sense, including the radio's own transmission. *)

val transmitting : t -> radio -> bool

val radio_id : radio -> Node_id.t

val fanout : t -> radio -> Node_id.t list
(** The radios a transmission by this radio starting now would touch
    (carrier-sense range, link model applied), in delivery order —
    classified by the same neighbour-list scan as {!transmit}, which
    rebuilds the list first if it may be stale.  Used by tests and
    topology audits, not by protocols. *)

type reception = {
  rx : Node_id.t;
  decodable : bool;  (** within decode range of the transmitter *)
  locked : bool;  (** the receiver locked onto the frame *)
  corrupted : bool;  (** an overlap has since corrupted the locked frame *)
}

val receptions : t -> radio -> reception list
(** The transmission this radio has in the air, as the channel
    classified it: every radio it touches, in delivery order.  Empty
    when the radio is not transmitting.  Used by tests, not by
    protocols. *)

val add_transmit_hook : t -> (Node_id.t -> Frame.t -> unit) -> unit
(** Register a tap invoked at the start of every transmission (metrics,
    pcap export, ...).  Hooks run in registration order. *)

val in_flight : t -> int
(** Transmissions currently in the air. *)

val obs : t -> Obs.Bus.t
(** The channel's observability bus.  The channel emits [Tx] at every
    transmission start and [Collision] for each locked-but-lost frame
    at end of transmission; MACs share this bus for their rx/ifq
    events. *)
