(** CBR workload generator (paper, Section 4).

    The load consists of [num_flows] concurrent flow slots.  The slots
    start at instants drawn uniformly from the first 10 s.  Each slot
    picks a random source/destination pair and a duration drawn from an
    exponential with mean 100 s (as in the paper), emits
    [packets_per_sec] packets of {!payload_bytes}, then immediately
    restarts with a fresh random pair — keeping the number of concurrent
    flows constant, as the paper's "10-flow" / "30-flow" loads require. *)

open Packets

type config = { num_flows : int; packets_per_sec : float }

val default_config : config
(** 10 flows, 4 pps. *)

val payload_bytes : int
(** Data payload per packet: 512 B, as in the paper. *)

val setup :
  engine:Sim.Engine.t ->
  rng:Sim.Rng.t ->
  num_nodes:int ->
  config:config ->
  until:Sim.Time.t ->
  emit:(src:Node_id.t -> Data_msg.t -> unit) ->
  unit
(** Schedule the whole workload on [engine].  [emit] is called at each
    packet origination time with a fresh [Data_msg.t] (unique
    (flow_id, seq), origin time stamped).  Raises [Invalid_argument]
    with fewer than two nodes, or unless the packet interval
    [1 / packets_per_sec] is a positive time once rounded to the
    nanosecond. *)
