(** Origin-side route discovery shared by the on-demand protocols.

    One machine per node runs the paper's Procedure 1 (initiate
    solicitation) for LDR, AODV and DSR alike: data for a destination
    without a route is held in a {!Packet_buffer}, an RREQ goes out per
    attempt of a schedule, each attempt waits for its timeout, and when
    the schedule runs out the held packets are reported as
    ["discovery-failed"] drops.  A protocol supplies only what differs:
    its route lookup, how a held packet is forwarded, how an RREQ is
    built and sent, and its attempt schedule. *)

open Packets

(** {1 Expanding-ring schedule}

    Constants follow the AODV draft the paper measures against, with
    per-attempt timeouts of RING_TRAVERSAL_TIME = 2 x
    {!node_traversal} x (TTL + TIMEOUT_BUFFER) per RFC 3561 section 10,
    and a bounded number of full-diameter retries. *)

val ttl_start : int
(** TTL_START = 1 *)

val ttl_threshold : int
(** TTL_THRESHOLD = 7; the ring grows by TTL_INCREMENT = 2 up to it *)

val net_diameter : int
(** NET_DIAMETER = 35 *)

val node_traversal : Sim.Time.t
(** conservative one-hop latency estimate (40 ms) *)

val max_retries : int
(** network-wide attempts after the ring search (2) *)

type ring = {
  timeout_buffer : int;
      (** RFC 3561 TIMEOUT_BUFFER: extra TTL-equivalents of slack in the
          per-attempt timeout so a slow reply is not re-flooded over *)
}

val default : ring
(** TIMEOUT_BUFFER = 2. *)

val next_ttl : prev:int option -> int option
(** TTL of the attempt after one with TTL [prev] ([None] = first
    attempt).  [None] once the ring has reached {!net_diameter}; the
    full-diameter retries are added by {!ring_attempts}. *)

val attempt_timeout : ring -> ttl:int -> Sim.Time.t
(** How long to wait for a reply to an attempt with this TTL. *)

type attempt = { ttl : int; timeout : Sim.Time.t }

val ring_attempts : ?first:int -> ring -> attempt Seq.t
(** The RFC 3561 ring from TTL [first] (default {!ttl_start}), then
    {!max_retries} network-wide retries. *)

(** {1 The per-node machine} *)

val buffer_max_age : Sim.Time.t
(** How long every protocol holds a packet waiting for a route (30 s). *)

type 'r t
(** Discovery state of one node; ['r] is the protocol's route. *)

val create :
  Agent.ctx ->
  capacity:int ->
  max_age:Sim.Time.t ->
  schedule:(Node_id.t -> attempt Seq.t) ->
  route:(Node_id.t -> 'r option) ->
  forward:('r -> Data_msg.t -> unit) ->
  send_rreq:(dst:Node_id.t -> ttl:int -> rreq_id:int -> unit) ->
  'r t
(** [capacity]/[max_age] bound the holding buffer.  [schedule dst] is
    read when a discovery for [dst] starts; [route dst] is a usable route
    to [dst], if any, and [forward] carries a held packet over it;
    [send_rreq] builds and transmits one attempt's RREQ. *)

val hold : 'r t -> Data_msg.t -> unit
(** Buffer a packet that has no route, and start a discovery for its
    destination unless one is already pending. *)

val settle : 'r t -> Node_id.t -> unit
(** A route to the destination may now exist: end its discovery (cancel
    the retry timer) and forward what is held for it, if the route is
    there. *)

val pending : 'r t -> Node_id.t -> bool
(** Is a discovery for this destination running? *)

val destinations : 'r t -> Node_id.t list
(** Destinations with a discovery running. *)

val fresh_rreq_id : 'r t -> dst:Node_id.t -> ttl:int -> int
(** Allocate the id of an RREQ this node originates toward [dst] with
    [ttl], and record it: the ["rreq_init"] protocol event and a ring
    span.  Attempts call this themselves; a protocol calls it for the
    requests it originates outside a discovery (LDR's N-bit probe). *)

val reset : 'r t -> crash:bool -> unit
(** Churn teardown: cancel every discovery and report the held packets
    as ["node-down"] drops.  [crash = true] also restarts the RREQ-id
    counter. *)
