(** LDR protocol configuration.

    The five [opt_*] switches are the Section-4 optimizations the paper's
    results use; each can be disabled independently for ablation. *)

type t = {
  ring : Routing.Discovery.ring;  (** expanding-ring-search schedule *)
  flood_jitter : Sim.Time.t;  (** max uniform delay before relaying a RREQ *)
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
}

val default : t
(** Paper parameters, all optimizations on. *)

val plain : t
(** All five optimizations off — the unoptimized protocol, for
    ablations. *)
