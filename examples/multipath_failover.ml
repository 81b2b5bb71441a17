(* The multipath extension in action: LDR vs LDR+LFI-alternates on the
   same mobile scenario.  With alternates, link breaks fail over locally
   instead of triggering route rediscovery floods.

   Run with: dune exec examples/multipath_failover.exe *)

open Experiment

let scenario protocol seed =
  {
    Scenario.label = "multipath";
    num_nodes = 40;
    terrain = Geom.Terrain.create ~width:1200. ~height:300.;
    placement = Scenario.Uniform;
    speed_min = 1.;
    speed_max = 18.;
    pause = Sim.Time.sec 0.;
    duration = Sim.Time.sec 90.;
    traffic =
      {
        Traffic.num_flows = 8;
        packets_per_sec = 4.;
        payload_bytes = 512;
        mean_flow_duration = Sim.Time.sec 60.;
        startup_window = Sim.Time.sec 5.;
      };
    protocol;
    net = Net.Params.default;
    seed;
    audit_loops = true;
    naive_channel = false;
    mobility = Scenario.Waypoint;
    shadowing = None;
    churn = None;
    partition = None;
  }

let run name protocol =
  let p = Sweep.empty_point () in
  let promotions = ref 0 and loops = ref 0 in
  List.iter
    (fun seed ->
      let o = Runner.run (scenario protocol seed) in
      Sweep.add_summary p o.summary;
      promotions := !promotions + Metrics.event_count o.metrics "alternate_promoted";
      loops := !loops + Metrics.loop_violations o.metrics)
    [ 1; 2; 3 ];
  let mean w = Stats.Welford.mean w in
  Format.printf "%-14s delivery %.3f  latency %6.1f ms  rreq-load %.3f  promotions %4d  loops %d@."
    name
    (mean p.Sweep.delivery_ratio)
    (mean p.Sweep.latency_ms)
    (mean p.Sweep.rreq_load)
    !promotions !loops;
  !loops

let () =
  Format.printf
    "40 mobile nodes, 8 flows, 90 s, 3 seeds, loop auditor on every table write:@.";
  let l1 = run "LDR" Scenario.ldr in
  let l2 = run "LDR+multipath" Scenario.ldr_multipath in
  if l1 + l2 > 0 then begin
    Format.printf "FAIL: loops detected@.";
    exit 1
  end
  else
    Format.printf
      "OK: failover happened without rediscovery and without loops@."
