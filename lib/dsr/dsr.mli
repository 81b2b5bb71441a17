(** DSR — Dynamic Source Routing, the paper's second on-demand baseline.

    Routes are discovered by accumulating the traversed path in RREQs and
    carried explicitly in every packet header.  Implemented features, per
    the drafts the paper simulates: path route cache, replies from cache,
    a non-propagating first request, packet salvaging at intermediate
    nodes, RERRs routed back over the traversed prefix, promiscuous route
    snooping, and automatic route shortening: a node that overhears a
    source-routed packet listing it further down the route sends the
    source a gratuitous RREP with the intermediate hops cut out.  Not
    implemented: flow state. *)

module Route_cache = Route_cache
(** Re-exported so library users reach the cache as [Dsr.Route_cache]. *)

type config = {
  reply_from_cache : bool;
      (** intermediate nodes may answer with cached routes (on in the
          paper's draft-3 runs; the Fig-6 "QualNet / draft 7" cross-check
          runs with it off) *)
}

val default_config : config

val factory : ?config:config -> unit -> Routing.Agent.factory
