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
    medium = Scenario.Radio;
  }

(* Every protocol faces the same offered load (the traffic generator
   draws from its own RNG stream), and each delivers most of it on this
   connected scenario. *)
let min_delivery = 0.90

let () =
  let results =
    List.map
      (fun protocol ->
        (Scenario.protocol_name protocol, (Runner.run (scenario protocol)).metrics))
      [ Scenario.ldr; Scenario.aodv; Scenario.dsr; Scenario.olsr ]
  in
  let rows =
    List.map
      (fun (name, m) ->
        [
          name;
          Printf.sprintf "%.3f" (Metrics.delivery_ratio m);
          Printf.sprintf "%.1f" (Metrics.mean_latency_ms m);
          Printf.sprintf "%.2f" (Metrics.network_load m);
          Printf.sprintf "%.2f" (Metrics.rreq_load m);
          string_of_int (Metrics.delivered m);
          string_of_int (Metrics.originated m);
        ])
      results
  in
  print_endline
    "30 mobile nodes, 5 CBR flows @ 4 pps, 60 s, same seed for all:";
  print_endline
    (Stats.Table.render
       ~header:
         [ "protocol"; "delivery"; "latency ms"; "net load"; "rreq load";
           "recv"; "sent" ]
       rows);
  let sent = List.map (fun (_, m) -> Metrics.originated m) results in
  let low =
    List.filter (fun (_, m) -> Metrics.delivery_ratio m < min_delivery) results
  in
  if List.exists (( <> ) (List.hd sent)) sent then begin
    print_endline "FAIL: the protocols originated different numbers of packets";
    exit 1
  end
  else if low <> [] then begin
    Printf.printf "FAIL: %s delivered less than %.2f\n"
      (String.concat ", " (List.map fst low))
      min_delivery;
    exit 1
  end
  else
    Printf.printf "OK: all four originated %d packets and delivered >= %.2f\n"
      (List.hd sent) min_delivery
