(* Compare LDR, AODV, DSR and OLSR on the same mobile scenario: 30 nodes
   on 1000x300m, random waypoint at 1-15 m/s with no pauses (continuous
   motion), 5 CBR flows, 60 simulated seconds.

   Run with: dune exec examples/protocol_comparison.exe *)

open Experiment

let scenario protocol =
  {
    Scenario.label = "comparison";
    num_nodes = 30;
    terrain = Geom.Terrain.create ~width:1000. ~height:300.;
    placement = Scenario.Uniform;
    speed_min = 1.;
    speed_max = 15.;
    pause = Sim.Time.sec 0.;
    duration = Sim.Time.sec 60.;
    traffic = { Traffic.num_flows = 5; packets_per_sec = 4. };
    protocol;
    net = Net.Params.default;
    seed = 11;
    audit_loops = false;
    mobility = Scenario.Waypoint;
    shadowing = None;
    churn = None;
    partition = None;
  }

let () =
  let rows =
    List.map
      (fun protocol ->
        let outcome = Runner.run (scenario protocol) in
        let m = outcome.metrics in
        [
          Scenario.protocol_name protocol;
          Printf.sprintf "%.3f" (Metrics.delivery_ratio m);
          Printf.sprintf "%.1f" (Metrics.mean_latency_ms m);
          Printf.sprintf "%.2f" (Metrics.network_load m);
          Printf.sprintf "%.2f" (Metrics.rreq_load m);
          string_of_int (Metrics.delivered m);
          string_of_int (Metrics.originated m);
        ])
      [ Scenario.ldr; Scenario.aodv; Scenario.dsr; Scenario.olsr ]
  in
  print_endline
    "30 mobile nodes, 5 CBR flows @ 4 pps, 60 s, same seed for all:";
  print_endline
    (Stats.Table.render
       ~header:
         [ "protocol"; "delivery"; "latency ms"; "net load"; "rreq load";
           "recv"; "sent" ]
       rows)
