(** The LDR routing agent.

    Implements the paper's Procedures 1-4 over the {!Conditions}
    predicates and {!Route_table}:

    - Route discovery by expanding-ring RREQ flood; any node satisfying
      SDC answers, so replies come from both sides of the requester
      (unlike AODV, where raising the requested sequence number silences
      downstream nodes).
    - The T-bit path reset: when the flood would violate feasible-distance
      ordering, the first SDC-capable node unicasts the RREQ to the
      destination, which alone may raise its sequence number, resetting
      feasible distances along the reply path.
    - The N-bit reverse-path repair probe.
    - Route maintenance from MAC link-failure feedback, with RERRs.
    - The five Section-4 optimizations, individually switchable in
      {!Config.t}. *)

val factory : ?config:Config.t -> unit -> Routing.Agent.factory

type debug = {
  table : Route_table.t;
  own_sn : unit -> Packets.Seqnum.t;
  pending_discoveries : unit -> Packets.Node_id.t list;
  discovery_built : unit -> bool;
      (** whether Procedure 1's machine exists: a node builds it at its
          first discovery *)
}

val factory_with_debug :
  ?config:Config.t -> unit -> Routing.Agent.ctx -> Routing.Agent.t * debug
(** Like {!factory} but also exposes internal state; tests and the
    Figure-1 example use this to inspect invariants mid-run. *)
