(* Loop-freedom audit under churn: run LDR and AODV on a dense, fast
   network with the successor-graph auditor armed on every routing-table
   write.  LDR must report zero loops at every instant (the paper's
   Theorem 4).

   Run with: dune exec examples/loop_check.exe *)

open Experiment

let scenario protocol seed =
  {
    Scenario.label = "loop-check";
    num_nodes = 25;
    terrain = Geom.Terrain.create ~width:900. ~height:300.;
    placement = Scenario.Uniform;
    speed_min = 5.;
    speed_max = 20.;
    pause = Sim.Time.sec 0.;
    duration = Sim.Time.sec 45.;
    traffic = { Traffic.num_flows = 8; packets_per_sec = 4. };
    protocol;
    net = Net.Params.default;
    seed;
    audit_loops = true;
    mobility = Scenario.Waypoint;
    shadowing = None;
    churn = None;
    partition = None;
    medium = Scenario.Radio;
  }

let () =
  let failures = ref 0 in
  List.iter
    (fun protocol ->
      List.iter
        (fun seed ->
          let outcome = Runner.run (scenario protocol seed) in
          let m = outcome.metrics in
          Format.printf
            "%-5s seed=%d  table-writes audited; loops=%d  delivery=%.3f@."
            (Scenario.protocol_name protocol)
            seed
            (Metrics.loop_violations m)
            (Metrics.delivery_ratio m);
          if
            Metrics.loop_violations m > 0
            && Scenario.protocol_name protocol = "LDR"
          then incr failures)
        [ 3; 5; 8 ])
    [ Scenario.ldr; Scenario.aodv ];
  if !failures > 0 then begin
    Format.printf "FAIL: LDR formed a routing loop@.";
    exit 1
  end
  else Format.printf "OK: LDR loop-free at every audited instant@."
