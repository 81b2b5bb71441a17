(** OLSR (RFC 3626 subset) — the paper's proactive baseline.

    Implements neighbor sensing via periodic HELLOs, multipoint-relay
    (MPR) selection, TC flooding over the MPR backbone, and shortest-path
    route computation.  Includes the paper's fix to the INRIA code: a
    FIFO jitter queue that spaces consecutive control transmissions by a
    uniform 0-15 ms gap while preserving order.  HNA/MID are out of scope
    (single interface, no gateways). *)

val factory : Routing.Agent.factory

(** MPR selection in isolation, for unit tests: given the symmetric
    neighbors and each one's own symmetric neighborhood, return a minimal
    (greedy) relay set covering every strict two-hop neighbor. *)
val select_mprs :
  self:Packets.Node_id.t ->
  neighbors:(Packets.Node_id.t * Packets.Node_id.t list) list ->
  Packets.Node_id.Set.t
