open Sim

type t = {
  ring : Routing.Discovery.ring;
  flood_jitter : Time.t;
  opt_multiple_rreps : bool;
  opt_request_as_error : bool;
  opt_reduced_distance : bool;
  opt_min_lifetime : bool;
  opt_optimal_ttl : bool;
  seqnum_counter_limit : int;
}

let default =
  {
    ring = Routing.Discovery.default;
    flood_jitter = Time.ms 10.;
    opt_multiple_rreps = true;
    opt_request_as_error = true;
    opt_reduced_distance = true;
    opt_min_lifetime = true;
    opt_optimal_ttl = true;
    seqnum_counter_limit = 1 lsl 30;
  }

let plain =
  {
    default with
    opt_multiple_rreps = false;
    opt_request_as_error = false;
    opt_reduced_distance = false;
    opt_min_lifetime = false;
    opt_optimal_ttl = false;
  }
