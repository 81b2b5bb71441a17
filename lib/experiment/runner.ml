open Sim
open Packets

type outcome = {
  metrics : Metrics.t;
  summary : Metrics.summary;
  events_processed : int;
  mac_queue_drops : int;
  mac_unicast_failures : int;
  transmissions : int;
  invariant_violations : int;
}

type sim = {
  engine : Engine.t;
  agents : Routing.Agent.t array;
  macs : Net.Mac.t array;
  channel : Net.Channel.t;
  store : Mobility.Pos_store.t;
  link : Net.Link_model.t option;
  links : Net.Links.t option;
  bus : Obs.Bus.t;
  inject : src:int -> dst:int -> unit;
  sim_metrics : Metrics.t;
  finalize : unit -> unit;
  mutable monitor : Obs.Monitor.t option;
  mutable cleanup : (unit -> unit) list;
}

(* Any loop created by a routing-table write must traverse the edge just
   written, so it suffices to walk successor chains starting at the node
   that changed, for every destination. *)
let audit_from walk agents metrics n num_nodes =
  for d = 0 to num_nodes - 1 do
    if d <> n
       && Routing.Agent.first_repeat walk agents ~dst:(Node_id.of_int d) n >= 0
    then Metrics.loop_violation metrics
  done

(* Every random stream of a run, by a fixed index, so no stream depends
   on the order in which [build] derives them.  The root [Rng.create
   sc.seed] gives [placement], [mobility], [traffic] and each node's
   [mac] and [agent] stream.  Inside the mobility stream, RPGM group
   centre [j] draws from stream [j] and member [i] from [g + i] ([g]
   groups); other families give node [i] stream [i].  Churn (node [i]:
   stream [i]) and shadowing have roots of their own, so arming either
   changes no other draw. *)
module Stream = struct
  let placement = 0
  let mobility = 1
  let traffic = 2
  let mac i = 3 + (2 * i)
  let agent i = 4 + (2 * i)
  let churn_seed seed = seed lxor 0x6368_7572
  let shadow_seed seed = seed lxor 0x5348_4144
end

let make_mobs (sc : Scenario.t) mobility_rng ~(starts : Geom.Vec2.t array) =
  let n = sc.num_nodes in
  let static = sc.speed_max <= 0. in
  let mobs = Array.make n (Mobility.static (Geom.Vec2.v 0. 0.)) in
  (match sc.mobility with
  | Scenario.Rpgm { groups; radius } when not static ->
      let g = Stdlib.max 1 (Stdlib.min groups n) in
      let centres = Array.make g None in
      for j = 0 to g - 1 do
        (* The centre starts where the group's first member was placed,
           so group clusters respect the scenario's placement. *)
        centres.(j) <-
          Some
            (Mobility.rpgm_group ~terrain:sc.terrain
               ~rng:(Rng.stream mobility_rng j) ~speed_min:sc.speed_min
               ~speed_max:sc.speed_max ~pause:sc.pause
               ~start:starts.(j * n / g))
      done;
      for i = 0 to n - 1 do
        let r = Rng.stream mobility_rng (g + i) in
        let ang = Rng.float r (2. *. Float.pi) in
        let rad = radius *. sqrt (Rng.float r 1.) in
        let centre =
          match centres.(i * g / n) with Some c -> c | None -> assert false
        in
        mobs.(i) <-
          Mobility.rpgm_member centre ~ox:(rad *. cos ang)
            ~oy:(rad *. sin ang)
      done
  | _ ->
      for i = 0 to n - 1 do
        mobs.(i) <-
          (if static then Mobility.static starts.(i)
           else
             let rng = Rng.stream mobility_rng i in
             match sc.mobility with
             | Scenario.Manhattan { spacing } ->
                 Mobility.manhattan ~terrain:sc.terrain ~rng ~spacing
                   ~speed_min:sc.speed_min ~speed_max:sc.speed_max
                   ~pause:sc.pause ~start:starts.(i)
             | _ ->
                 Mobility.waypoint ~terrain:sc.terrain ~rng
                   ~speed_min:sc.speed_min ~speed_max:sc.speed_max
                   ~pause:sc.pause ~start:starts.(i))
      done);
  mobs

let make_link (sc : Scenario.t) =
  match (sc.shadowing, sc.partition) with
  | None, None -> None
  | sh, pa ->
      let shadowing =
        Option.map
          (fun (s : Scenario.shadowing) ->
            (Stream.shadow_seed sc.seed, s.Scenario.sigma_db, s.Scenario.eta))
          sh
      in
      let partition =
        Option.map
          (fun (p : Scenario.partition) ->
            ( p.Scenario.part_at,
              p.Scenario.part_heal,
              p.Scenario.part_x_frac *. sc.terrain.Geom.Terrain.width ))
          pa
      in
      Some (Net.Link_model.create ?shadowing ?partition ())

(* One down/up cycle per selected node, from its churn stream; the
   toggles are events at exact virtual times. *)
let plan_churn (sc : Scenario.t) ~engine
    ~(take_down : int -> crash:bool -> unit) ~(bring_up : int -> unit) =
  match sc.churn with
  | None -> ()
  | Some c ->
      let churn_rng = Rng.create (Stream.churn_seed sc.seed) in
      let window =
        Float.max 0.
          (Time.to_sec c.Scenario.churn_stop
          -. Time.to_sec c.Scenario.churn_start)
      in
      let spread =
        Float.max 0.
          (Time.to_sec c.Scenario.down_max -. Time.to_sec c.Scenario.down_min)
      in
      for i = 0 to sc.num_nodes - 1 do
        let r = Rng.stream churn_rng i in
        if Rng.float r 1. < c.Scenario.churn_frac then begin
          let t_down =
            Time.add c.Scenario.churn_start
              (Time.sec (if window > 0. then Rng.float r window else 0.))
          in
          let dur =
            Time.to_sec c.Scenario.down_min
            +. (if spread > 0. then Rng.float r spread else 0.)
          in
          let t_up = Time.add t_down (Time.sec dur) in
          let crash = Rng.float r 1. < c.Scenario.crash_frac in
          ignore (Engine.at engine t_down (fun () -> take_down i ~crash));
          ignore (Engine.at engine t_up (fun () -> bring_up i))
        end
      done

let build ?on_engine ?scheduler ?factory (sc : Scenario.t) =
  let engine = Engine.create ?scheduler () in
  (* Instrumentation hook (e.g. [Engine.record_trace]), called before
     anything is scheduled so setup-time events are captured too. *)
  (match on_engine with Some f -> f engine | None -> ());
  let bus = Obs.Bus.create () in
  (* The run's counts are the bus's first sink: the hooks below only
     emit, and [Metrics] folds what they emit. *)
  let metrics = Metrics.attach bus in
  let root = Rng.create sc.seed in
  let n = sc.num_nodes in
  let starts = Scenario.positions sc (Rng.stream root Stream.placement) in
  let mobs = make_mobs sc (Rng.stream root Stream.mobility) ~starts in
  let store = Mobility.Pos_store.of_array mobs ~at:Time.zero in
  let link = make_link sc in
  let channel =
    Net.Channel.create ~engine ~store ~terrain:sc.terrain ?link ~obs:bus
      ~params:sc.net ()
  in
  let agents = Array.make n Routing.Agent.null in
  let audit_walk = Routing.Agent.walk n in
  let factory =
    match factory with Some f -> f | None -> Scenario.factory sc.protocol
  in
  let links =
    match sc.medium with
    | Scenario.Radio -> None
    | Scenario.Links l ->
        let t = Net.Links.create ~engine n in
        List.iter (fun (a, b) -> Net.Links.connect t a b) l;
        Some t
  in
  let macs = ref [] in
  for i = 0 to n - 1 do
    let id = Node_id.of_int i in
    let callbacks =
      {
        Net.Mac.receive =
          (fun payload ~from -> agents.(i).Routing.Agent.recv payload ~from);
        promiscuous =
          (* Only DSR's agents act on frames for other nodes. *)
          (match sc.protocol with
          | Scenario.Dsr _ ->
              Some
                (fun p ~from ~dst ->
                  agents.(i).Routing.Agent.overheard p ~from ~dst)
          | Ldr _ | Aodv _ | Olsr | Ldr_agg _ | Aodv_agg _ -> None);
        link_failure =
          (fun payload ~next_hop ->
            if Obs.Bus.on bus Link_failure then
              Obs.Bus.link_failure bus ~time:(Engine.now engine) ~node:i
                ~next_hop:(Node_id.to_int next_hop);
            agents.(i).Routing.Agent.link_failure payload ~next_hop);
      }
    in
    let mac =
      Net.Mac.create ~engine ~channel ~rng:(Rng.stream root (Stream.mac i)) ~id
        ~slot:i callbacks
    in
    macs := mac :: !macs;
    (match links with
    | Some l -> Net.Links.attach l mac callbacks
    | None -> ());
    let ctx =
      {
        Routing.Agent.id;
        engine;
        rng = Rng.stream root (Stream.agent i);
        send =
          (match links with
          | None -> fun ~dst payload -> Net.Mac.send mac ~dst payload
          | Some l -> fun ~dst payload -> Net.Links.send l i ~dst payload);
        deliver =
          (fun msg ->
            let now = Engine.now engine in
            Obs.Bus.deliver bus ~time:now ~node:i ~flow:msg.Data_msg.flow_id
              ~seq:msg.Data_msg.seq
              ~src:(Node_id.to_int msg.Data_msg.src)
              ~hops:msg.Data_msg.hops
              ~latency_ns:((Time.diff now msg.Data_msg.origin_time :> int)));
        drop_data =
          (fun msg ~reason ->
            Obs.Bus.data_drop bus ~time:(Engine.now engine) ~node:i
              ~reason:(Obs.Bus.intern bus reason)
              ~flow:msg.Data_msg.flow_id ~seq:msg.Data_msg.seq
              ~src:(Node_id.to_int msg.Data_msg.src)
              ~dst:(Node_id.to_int msg.Data_msg.dst));
        event =
          (fun ?dst name ->
            Obs.Bus.proto bus ~time:(Engine.now engine) ~node:i
              ~name:(Obs.Bus.intern bus name)
              ~dst:(match dst with Some d -> Node_id.to_int d | None -> -1));
        table_changed =
          (if sc.audit_loops then fun () ->
             audit_from audit_walk agents metrics i n
           else ignore);
        obs = bus;
      }
    in
    agents.(i) <- factory ctx
  done;
  Array.iter (fun (a : Routing.Agent.t) -> a.start ()) agents;
  let mac_arr = Array.of_list (List.rev !macs) in
  (* A down node originates nothing, from the workload or [inject]: the
     gate is checked at emission time against its MAC's power state.
     The span trail starts at the application boundary: one Originate
     record per data packet, before the agent sees it. *)
  let originate ~src (msg : Data_msg.t) =
    let i = Node_id.to_int src in
    if not (Net.Mac.is_down mac_arr.(i)) then begin
      Obs.Bus.span bus ~time:(Engine.now engine) ~node:i
        ~stage:Obs.Span.Stage.originate ~flow:msg.Data_msg.flow_id
        ~seq:msg.Data_msg.seq
        ~d:(Node_id.to_int msg.Data_msg.dst)
        ~e:msg.Data_msg.payload_bytes ~f:(-1);
      agents.(i).Routing.Agent.origin_data msg
    end
  in
  Traffic.setup ~engine ~rng:(Rng.stream root Stream.traffic) ~num_nodes:n
    ~config:sc.traffic ~until:sc.duration ~emit:originate;
  plan_churn sc ~engine
    ~take_down:(fun i ~crash ->
      Net.Mac.set_down mac_arr.(i) true;
      agents.(i).Routing.Agent.reset ~crash)
    ~bring_up:(fun i -> Net.Mac.set_down mac_arr.(i) false);
  let injected = ref 0 in
  let inject ~src ~dst =
    incr injected;
    originate ~src:(Node_id.of_int src)
      (Data_msg.fresh
         ~flow_id:(1_000_000 + !injected)
         ~seq:0 ~src:(Node_id.of_int src) ~dst:(Node_id.of_int dst)
         ~payload_bytes:Traffic.payload_bytes
         ~origin_time:(Engine.now engine))
  in
  let finalize () =
    let total = ref 0. in
    Array.iter
      (fun (a : Routing.Agent.t) -> total := !total +. a.own_seqno ())
      agents;
    Metrics.set_mean_dest_seqno metrics (!total /. float_of_int n)
  in
  {
    engine;
    agents;
    macs = mac_arr;
    channel;
    store;
    link;
    links;
    bus;
    inject;
    sim_metrics = metrics;
    finalize;
    monitor = None;
    cleanup = [];
  }

let attach_trace sim path =
  let oc = open_out path in
  Obs.Bus.add_sink sim.bus (Obs.Jsonl.sink sim.bus oc);
  sim.cleanup <- (fun () -> close_out oc) :: sim.cleanup

let attach_pcap sim path =
  let sink = Net.Pcap.open_sink path in
  Net.Channel.add_transmit_hook sim.channel (fun _src frame ->
      Net.Pcap.write sink ~time:(Engine.now sim.engine) frame);
  sim.cleanup <- (fun () -> Net.Pcap.close sink) :: sim.cleanup

let attach_monitor ?quiet sim =
  let lookup ~node ~dst =
    sim.agents.(node).Routing.Agent.invariants (Node_id.of_int dst)
  in
  let m = Obs.Monitor.create ?quiet ~lookup sim.bus in
  sim.monitor <- Some m;
  m

(* The simulation gauges of one telemetry sample: reads only, so
   sampling cannot perturb the run. *)
let gauges sim : Obs.Telemetry.gauges =
  let entries = ref 0 and finite = ref 0 and fd_sum = ref 0 in
  Array.iter
    (fun (a : Routing.Agent.t) ->
      let e, f, s = a.route_stats () in
      entries := !entries + e;
      finite := !finite + f;
      fd_sum := !fd_sum + s)
    sim.agents;
  let n = Array.length sim.agents in
  let m = sim.sim_metrics in
  {
    inflight = Net.Channel.in_flight sim.channel;
    ifq =
      Array.fold_left (fun acc mac -> acc + Net.Mac.queue_length mac) 0 sim.macs;
    originated = Metrics.originated m;
    delivered = Metrics.delivered m;
    control_tx = Metrics.control_transmissions m;
    rt_mean = (if n = 0 then 0. else float_of_int !entries /. float_of_int n);
    fd_mean =
      (if !finite = 0 then 0. else float_of_int !fd_sum /. float_of_int !finite);
  }

let attach_telemetry sim path ~every ~until =
  if Time.(every <= Time.zero) then
    invalid_arg "Runner.attach_telemetry: interval must be positive";
  let c = Obs.Telemetry.create path in
  let sample () =
    Obs.Telemetry.record c sim.engine
      ~grid:(Net.Channel.index_stats sim.channel)
      (gauges sim)
  in
  Engine.every sim.engine ~start:Time.zero ~interval:every ~until sample;
  (* [every] stops strictly before [until], so whatever the interval
     the series would otherwise end without a sample at the horizon —
     the one post-processing reads last.  A one-shot at exactly [until]
     closes it and can never duplicate a periodic firing. *)
  ignore (Engine.at sim.engine until sample);
  sim.cleanup <- (fun () -> Obs.Telemetry.close c) :: sim.cleanup

let finish sim =
  sim.finalize ();
  List.iter (fun f -> f ()) sim.cleanup;
  sim.cleanup <- []

let run ?on_engine ?monitor ?trace_out ?pcap_out ?telemetry_out
    ?telemetry_every ?prepare (sc : Scenario.t) =
  let sim = build ?on_engine sc in
  (* Let in-flight packets (and their latency) resolve briefly after the
     last origination. *)
  let drain = Time.sec 2. in
  let until = Time.add sc.duration drain in
  (* File sinks before the monitor, so a violation's ring dump and the
     trace file agree on what precedes the violation line. *)
  (match trace_out with Some path -> attach_trace sim path | None -> ());
  (match pcap_out with Some path -> attach_pcap sim path | None -> ());
  if monitor = Some true then ignore (attach_monitor sim);
  (match telemetry_out with
  | None -> ()
  | Some path ->
      let every =
        match telemetry_every with Some e -> e | None -> Time.sec 1.
      in
      attach_telemetry sim path ~every ~until);
  (match prepare with Some f -> f sim | None -> ());
  Engine.run ~until sim.engine;
  finish sim;
  let metrics = sim.sim_metrics in
  let sum f = Array.fold_left (fun acc m -> acc + f m) 0 sim.macs in
  {
    metrics;
    summary = Metrics.summary metrics;
    events_processed = Engine.events_processed sim.engine;
    mac_queue_drops = sum Net.Mac.queue_drops;
    mac_unicast_failures = sum Net.Mac.unicast_failures;
    transmissions =
      Metrics.data_transmissions metrics
      + Metrics.control_transmissions metrics
      + Metrics.ack_transmissions metrics;
    invariant_violations =
      (match sim.monitor with Some m -> Obs.Monitor.violations m | None -> 0);
  }
