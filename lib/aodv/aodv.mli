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
      stored number is at least the requested one.

    Broken links are detected from MAC link-layer feedback, as in the
    paper's scenarios; RFC 3561's HELLO messages are not implemented. *)

type config = {
  ring : Routing.Discovery.ring;  (** expanding-ring-search schedule *)
  flood_jitter : Sim.Time.t;  (** max uniform delay before relaying a RREQ *)
}

val default_config : config

val factory : ?config:config -> unit -> Routing.Agent.factory
