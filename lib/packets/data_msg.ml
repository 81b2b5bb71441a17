type t = {
  flow_id : int;
  seq : int;
  src : Node_id.t;
  dst : Node_id.t;
  payload_bytes : int;
  origin_time : Sim.Time.t;
  ttl : int;
  hops : int;
}

let default_ttl = 64

let fresh ~flow_id ~seq ~src ~dst ~payload_bytes ~origin_time =
  { flow_id; seq; src; dst; payload_bytes; origin_time; ttl = default_ttl; hops = 0 }

let hop t = { t with hops = t.hops + 1 }
let uid t = (t.flow_id, t.seq)
let relay t = { t with ttl = t.ttl - 1; hops = t.hops + 1 }

let pp fmt t =
  Format.fprintf fmt "data[f%d#%d %a->%a]" t.flow_id t.seq Node_id.pp t.src
    Node_id.pp t.dst
