(** LDR protocol configuration.

    The five [opt_*] switches are the Section-4 optimizations the paper's
    results use; each can be disabled independently for ablation. *)

type t = {
  active_route_timeout : Sim.Time.t;  (** route freshness window (3 s) *)
  my_route_timeout : Sim.Time.t;
      (** lifetime a destination advertises in its own RREPs (6 s) *)
  ring : Routing.Discovery.ring;  (** expanding-ring-search schedule *)
  buffer_capacity : int;
  flood_jitter : Sim.Time.t;  (** max uniform delay before relaying a RREQ *)
  data_ttl : int;  (** IP TTL on originated data *)
  opt_multiple_rreps : bool;
      (** relay later RREPs of a computation when strictly stronger *)
  opt_request_as_error : bool;
      (** a solicitation arriving from one's own next hop implies that hop
          lost its route *)
  opt_reduced_distance : bool;
      (** advertise a lowered answering distance in RREQs *)
  opt_min_lifetime : bool;
      (** don't answer with a route about to expire; relay instead *)
  opt_optimal_ttl : bool;
      (** first-attempt TTL from known distance and requested fd *)
  seqnum_counter_limit : int;
      (** counter wrap point (small values exercise restamping in tests) *)
  multipath : bool;
      (** extension (off by default, not part of the paper's evaluation):
          retain every LFI-feasible neighbor — advertised distance under
          the feasible distance — as an alternate successor, and fail
          over to one instantly on link loss instead of rediscovering.
          Loop-freedom is preserved by the same ordering argument (the
          LFI condition of PDA, which the paper's Section 2.1 surveys). *)
  link_cost : Packets.Node_id.t -> Packets.Node_id.t -> int;
      (** [link_cost self neighbor]: positive symmetric cost of the link
          the node just heard a message over.  Default: hop count
          (constant 1).  The paper assumes unit costs but notes LDR works
          unchanged with general positive symmetric costs — distances and
          feasible distances simply become path costs. *)
}

val default : t
(** Paper parameters, all optimizations on. *)

val plain : t
(** All five optimizations off — the unoptimized protocol, for
    ablations. *)
