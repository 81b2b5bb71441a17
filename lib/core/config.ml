open Sim

type t = {
  active_route_timeout : Time.t;
  my_route_timeout : Time.t;
  ring : Routing.Discovery.ring;
  rreq_cache_ttl : Time.t;
  buffer_capacity : int;
  buffer_max_age : Time.t;
  flood_jitter : Time.t;
  data_ttl : int;
  opt_multiple_rreps : bool;
  opt_request_as_error : bool;
  opt_reduced_distance : bool;
  reduced_distance_factor : float;
  opt_min_lifetime : bool;
  min_lifetime_fraction : float;
  opt_optimal_ttl : bool;
  local_add_ttl : int;
  seqnum_counter_limit : int;
  multipath : bool;
  link_cost : Packets.Node_id.t -> Packets.Node_id.t -> int;
}

let default =
  {
    active_route_timeout = Time.sec 3.;
    my_route_timeout = Time.sec 6.;
    ring = Routing.Discovery.default;
    rreq_cache_ttl = Time.sec 6.;
    buffer_capacity = 64;
    buffer_max_age = Time.sec 30.;
    flood_jitter = Time.ms 10.;
    data_ttl = Packets.Data_msg.default_ttl;
    opt_multiple_rreps = true;
    opt_request_as_error = true;
    opt_reduced_distance = true;
    reduced_distance_factor = 0.8;
    opt_min_lifetime = true;
    min_lifetime_fraction = 1. /. 3.;
    opt_optimal_ttl = true;
    local_add_ttl = 2;
    seqnum_counter_limit = 1 lsl 30;
    multipath = false;
    link_cost = (fun _ _ -> 1);
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
