(** AODV (RFC 3561 / draft-10 era) — the paper's primary on-demand
    baseline.

    Loop freedom comes from destination sequence numbers alone.  The
    behaviours LDR improves on are kept faithful here:

    - a node increments its {e own} sequence number before every RREQ it
      originates;
    - a node that detects a link break increments the {e stored} sequence
      number of every destination routed over that link and advertises the
      bumped numbers in RERRs — so non-owners effectively raise other
      nodes' numbers, which inhibits replies from valid downstream routes
      and makes sequence numbers grow with mobility (the paper's Fig. 7);
    - an intermediate node may answer a RREQ only with a route whose
      stored number is at least the requested one. *)

type config = {
  use_hello : bool;
      (** RFC 3561 6.9: nodes with active routes broadcast periodic HELLOs
          (TTL-1 RREPs for themselves); missing [allowed_hello_loss]
          consecutive ones declares the link broken.  Off by default — the
          paper's scenarios rely on link-layer feedback instead. *)
  hello_interval : Sim.Time.t;
  allowed_hello_loss : int;
  active_route_timeout : Sim.Time.t;
  my_route_timeout : Sim.Time.t;
  ring : Routing.Discovery.ring;
  rreq_cache_ttl : Sim.Time.t;
  buffer_capacity : int;
  buffer_max_age : Sim.Time.t;
  flood_jitter : Sim.Time.t;
  data_ttl : int;
}

val default_config : config

val factory : ?config:config -> unit -> Routing.Agent.factory

val name : string
