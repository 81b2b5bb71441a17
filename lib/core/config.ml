open Sim

type t = {
  active_route_timeout : Time.t;
  my_route_timeout : Time.t;
  ring : Routing.Discovery.ring;
  buffer_capacity : int;
  flood_jitter : Time.t;
  data_ttl : int;
  opt_multiple_rreps : bool;
  opt_request_as_error : bool;
  opt_reduced_distance : bool;
  opt_min_lifetime : bool;
  opt_optimal_ttl : bool;
  seqnum_counter_limit : int;
  multipath : bool;
  link_cost : Packets.Node_id.t -> Packets.Node_id.t -> int;
}

let default =
  {
    active_route_timeout = Time.sec 3.;
    my_route_timeout = Time.sec 6.;
    ring = Routing.Discovery.default;
    buffer_capacity = 64;
    flood_jitter = Time.ms 10.;
    data_ttl = Packets.Data_msg.default_ttl;
    opt_multiple_rreps = true;
    opt_request_as_error = true;
    opt_reduced_distance = true;
    opt_min_lifetime = true;
    opt_optimal_ttl = true;
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
