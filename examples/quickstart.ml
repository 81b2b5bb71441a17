(* Quickstart: a 9-node static chain-of-grids network running LDR.
   One node sends CBR traffic to the far corner; we watch the route
   discovery happen and print the resulting metrics.

   Run with: dune exec examples/quickstart.exe *)

open Experiment

let () =
  let scenario =
    {
      Scenario.label = "quickstart";
      num_nodes = 9;
      (* An explicit 3x3 grid on 400x400m: adjacent grid neighbors are
         ~133m apart, inside the 275m radio range. *)
      terrain = Geom.Terrain.create ~width:400. ~height:400.;
      placement = Scenario.Grid;
      speed_min = 0.;
      speed_max = 0.;
      (* static *)
      pause = Sim.Time.sec 0.;
      duration = Sim.Time.sec 30.;
      traffic =
        {
          Traffic.num_flows = 2;
          packets_per_sec = 4.;
          payload_bytes = 512;
          mean_flow_duration = Sim.Time.sec 30.;
          startup_window = Sim.Time.sec 1.;
        };
      protocol = Scenario.ldr;
      net = Net.Params.default;
      seed = 7;
      audit_loops = true;
      mobility = Scenario.Waypoint;
      shadowing = None;
      churn = None;
      partition = None;
    }
  in
  let outcome = Runner.run scenario in
  let m = outcome.metrics in
  Format.printf "LDR quickstart (9 static nodes, 2 CBR flows, 30 s)@.";
  Format.printf "  originated        %d@." (Metrics.originated m);
  Format.printf "  delivered         %d@." (Metrics.delivered m);
  Format.printf "  delivery ratio    %.3f@." (Metrics.delivery_ratio m);
  Format.printf "  mean latency      %.2f ms@." (Metrics.mean_latency_ms m);
  Format.printf "  control packets   %d (hop-wise)@."
    (Metrics.control_transmissions m);
  List.iter
    (fun (kind, count) -> Format.printf "    %-5s %d@." kind count)
    (Metrics.control_by_kind m);
  Format.printf "  loop violations   %d@." (Metrics.loop_violations m);
  Format.printf "  events processed  %d@." outcome.events_processed;
  if Metrics.delivery_ratio m < 0.95 then begin
    Format.printf "UNEXPECTED: low delivery in a static connected network@.";
    exit 1
  end;
  Format.printf "OK@."
