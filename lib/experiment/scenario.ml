open Sim

type protocol =
  | Ldr of Ldr.Config.t
  | Aodv of Aodv.config
  | Dsr of Dsr.config
  | Olsr
  | Ldr_agg of Ldr.Config.t
  | Aodv_agg of Aodv.config

let protocol_name = function
  | Ldr c when c = Ldr.Config.plain -> "LDR-PLAIN"
  | Ldr _ -> "LDR"
  | Aodv _ -> "AODV"
  | Dsr { Dsr.reply_from_cache = false } -> "DSR-DRAFT7"
  | Dsr _ -> "DSR"
  | Olsr -> "OLSR"
  | Ldr_agg _ -> "LDR-AGG"
  | Aodv_agg _ -> "AODV-AGG"

let ldr = Ldr Ldr.Config.default
let aodv = Aodv Aodv.default_config
let dsr = Dsr Dsr.default_config
let dsr_draft7 = Dsr { Dsr.reply_from_cache = false }
let olsr = Olsr
let ldr_agg = Ldr_agg Ldr.Config.default
let aodv_agg = Aodv_agg Aodv.default_config

let factory = function
  | Ldr config -> Ldr.Protocol.factory ~config ()
  | Aodv config -> Aodv.factory ~config ()
  | Dsr config -> Dsr.factory ~config ()
  | Olsr -> Olsr.factory
  | Ldr_agg config -> Routing.Aggregation.wrap (Ldr.Protocol.factory ~config ())
  | Aodv_agg config -> Routing.Aggregation.wrap (Aodv.factory ~config ())

type placement = Uniform | Grid | Fixed of Geom.Vec2.t list

type mobility =
  | Waypoint
  | Manhattan of { spacing : float }
  | Rpgm of { groups : int; radius : float }

let mobility_name = function
  | Waypoint -> "waypoint"
  | Manhattan _ -> "manhattan"
  | Rpgm _ -> "rpgm"

type shadowing = { sigma_db : float; eta : float }

let default_shadowing = { sigma_db = 4.; eta = 3. }

type churn = {
  churn_frac : float;
  crash_frac : float;
  down_min : Time.t;
  down_max : Time.t;
  churn_start : Time.t;
  churn_stop : Time.t;
}

let default_churn =
  {
    churn_frac = 0.2;
    crash_frac = 0.5;
    down_min = Time.sec 10.;
    down_max = Time.sec 30.;
    churn_start = Time.sec 10.;
    churn_stop = Time.sec 60.;
  }

type partition = {
  part_at : Time.t;
  part_heal : Time.t;
  part_x_frac : float;
}

type medium = Radio | Links of (int * int) list

type t = {
  label : string;
  num_nodes : int;
  terrain : Geom.Terrain.t;
  placement : placement;
  speed_min : float;
  speed_max : float;
  pause : Time.t;
  duration : Time.t;
  traffic : Traffic.config;
  protocol : protocol;
  net : Net.Params.t;
  seed : int;
  audit_loops : bool;
  mobility : mobility;
  shadowing : shadowing option;
  churn : churn option;
  partition : partition option;
  medium : medium;
}

let paper_50 protocol =
  {
    label = "50-node";
    num_nodes = 50;
    terrain = Geom.Terrain.create ~width:1500. ~height:300.;
    placement = Uniform;
    speed_min = 1.;
    speed_max = 20.;
    pause = Time.sec 0.;
    duration = Time.sec 900.;
    traffic = Traffic.default_config;
    protocol;
    net = Net.Params.default;
    seed = 1;
    audit_loops = false;
    mobility = Waypoint;
    shadowing = None;
    churn = None;
    partition = None;
    medium = Radio;
  }

let paper_100 protocol =
  {
    (paper_50 protocol) with
    label = "100-node";
    num_nodes = 100;
    terrain = Geom.Terrain.create ~width:2200. ~height:600.;
  }

let graph protocol ~nodes ~links =
  {
    (paper_50 protocol) with
    label = "graph";
    num_nodes = nodes;
    placement = Grid;
    speed_max = 0.;
    traffic = { Traffic.default_config with Traffic.num_flows = 0 };
    medium = Links links;
  }

let positions t rng =
  match t.placement with
  | Uniform ->
      Array.init t.num_nodes (fun _ -> Geom.Terrain.random_point t.terrain rng)
  | Grid ->
      let w = t.terrain.Geom.Terrain.width and h = t.terrain.Geom.Terrain.height in
      let cols =
        Stdlib.max 1
          (int_of_float
             (Float.round (sqrt (float_of_int t.num_nodes *. w /. h))))
      in
      let rows = (t.num_nodes + cols - 1) / cols in
      Array.init t.num_nodes (fun i ->
          let c = i mod cols and r = i / cols in
          Geom.Vec2.v
            ((float_of_int c +. 0.5) *. w /. float_of_int cols)
            ((float_of_int r +. 0.5) *. h /. float_of_int rows))
  | Fixed ps ->
      if List.length ps <> t.num_nodes then
        invalid_arg "Scenario.positions: Fixed placement length mismatch";
      Array.of_list ps

let with_flows n t = { t with traffic = { t.traffic with Traffic.num_flows = n } }
let with_pause pause t = { t with pause }
let with_duration duration t = { t with duration }
let with_seed seed t = { t with seed }
let with_mobility mobility t = { t with mobility }
let with_shadowing shadowing t = { t with shadowing }
let with_churn churn t = { t with churn }
let with_partition partition t = { t with partition }
