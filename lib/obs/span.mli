(** Causal packet spans: emit-side stage codes and the offline
    critical-path analyzer behind [manet_sim trace --spans].

    A data packet's trace id is its [(flow, seq)] pair — already
    carried end-to-end by [Packets.Data_msg] and preserved across
    forwarding, so the wire stays byte-true.  Instrumented layers emit
    {!Event.Span} records ({!Bus.span}) at each lifecycle stage;
    {!reconstruct} stitches them (plus the existing [Deliver] /
    [Data_drop] events) back into per-packet paths with per-hop MAC
    timings, and {!report} renders the waterfall and the
    p50/p95/p99-by-stage breakdown on {!Stats.Hdr} histograms. *)

(** Stage codes for {!Event.Span} field [a].  Remaining fields:
    - [originate]: node = source, d = destination, e = payload bytes
    - [buf_enter]/[buf_exit]: node = holder, d = destination
    - [mac_enq]: node = transmitter, d = next hop (-1 broadcast);
      [mac_drop] is the interface-queue-overflow refusal of the same
    - [mac_deq]: head-of-line, transmission is being scheduled
    - [mac_try]: e = attempt number (1-based; retries increment)
    - [mac_end]: ACK received (or broadcast done), e = attempts used
    - [mac_fail]: retry limit exhausted, e = attempts used
    - [ring]/[agg]: discovery-side spans, flow = seq = -1, node =
      origin, d = sought destination, e = ring TTL / aggregate batch
      size, f = rreq id. *)
module Stage : sig
  val originate : int
  val buf_enter : int
  val buf_exit : int
  val mac_enq : int
  val mac_deq : int
  val mac_try : int
  val mac_end : int
  val mac_fail : int
  val mac_drop : int
  val ring : int
  val agg : int

  val name : int -> string
  (** = {!Event.span_stage_name}. *)
end

(** One MAC-layer hop of a packet's path, times in ns (-1 absent). *)
type hop = {
  h_node : int;
  h_next : int;
  mutable h_enq : int;
  mutable h_deq : int;
  mutable h_first_try : int;
  mutable h_last_try : int;
  mutable h_end : int;
  mutable h_attempts : int;
  mutable h_failed : bool;
}

type path = {
  p_flow : int;
  p_seq : int;
  mutable p_src : int;
  mutable p_dst : int;
  mutable p_bytes : int;
  mutable p_originated : int;  (** ns, -1 if the Originate span is missing *)
  mutable p_delivered : int;  (** ns, -1 if not delivered *)
  mutable p_deliver_hops : int;  (** hop count from the Deliver event *)
  mutable p_buffer_ns : int;  (** total route-wait buffer residency *)
  mutable p_hops : hop list;  (** in path order once reconstructed *)
  mutable p_dropped : bool;
  mutable p_drop_reason : int;  (** interned reason id, -1 *)
}

type t = {
  paths : path list;  (** sorted by (flow, seq) *)
  ring_attempts : int;  (** discovery ring spans seen *)
  agg_members : int;  (** RREQs that rode in an aggregate *)
}

val reconstruct : Bus.t -> unit -> t
(** Attach a sink that stitches the bus's span/deliver/drop events (in
    time order) into per-packet paths, and return the function that
    reads them once the events are over.  It keeps the paths, never
    the events.  Non-span events other than [Deliver] and [Data_drop]
    are ignored. *)

val is_complete : path -> bool
(** A delivered path is complete when its Originate span is present
    and at least [p_deliver_hops] hops carry both an enqueue and a
    transmission attempt.  (The final hop's [mac_end] lands after the
    Deliver event — the ACK is still in the air — and may be clipped
    by the horizon, so it is deliberately not required.) *)

val report : ?flow:int -> name:(int -> string) -> t -> string list
(** Rendered analyzer output: reconstruction summary (with a
    [delivered paths complete: d/c] line), stage-latency breakdown
    (p50/p95/p99 over {!Stats.Hdr}), per-flow waterfall, and — when
    [flow] is given — a per-packet stage table for that flow.  [name]
    resolves interned drop-reason ids ({!Bus.name}). *)
