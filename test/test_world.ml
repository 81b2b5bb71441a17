(* The struct-of-arrays world (city-scale node state) is tested
   against an oracle, never with tolerances:

   - at every transmission, the channel (shared Mobility.Pos_store +
     neighbour lists) touches exactly the radios a
     brute-force scan over record mobility finds (test/naive_medium.ml),
     across protocols, mobility families, shadowing, partition and
     churn; arming that oracle leaves the outcome unchanged;
   - only DSR's radios are handed frames addressed to other nodes;
   - churn edge cases: traffic to a crashed node, teardown of routing
     state, rejoin recovery, and detach/re-attach under the neighbour
     lists;
   - the LDR invariant monitor stays silent across churn and
     partition-then-heal sweeps (crash-rebooted sequence numbers are
     the van Glabbeek loop stressor this guards against). *)

open Sim
open Experiment
open Packets

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let fig5 ?(protocol = Scenario.ldr) ?(seed = 5) ?(mobility = Scenario.Waypoint)
    ?shadowing ?churn ?partition ?(duration = 15.) () =
  {
    Scenario.label = "world";
    num_nodes = 24;
    terrain = Geom.Terrain.create ~width:1200. ~height:300.;
    placement = Scenario.Uniform;
    speed_min = 1.;
    speed_max = 10.;
    pause = Time.sec 0.;
    duration = Time.sec duration;
    traffic = { Traffic.num_flows = 4; packets_per_sec = 4. };
    protocol;
    net = Net.Params.default;
    seed;
    audit_loops = false;
    mobility;
    shadowing;
    churn;
    partition;
    medium = Scenario.Radio;
  }

let digest (o : Runner.outcome) =
  let m = o.Runner.metrics in
  ( ( o.Runner.summary,
      o.Runner.events_processed,
      o.Runner.transmissions,
      o.Runner.mac_queue_drops,
      o.Runner.mac_unicast_failures,
      o.Runner.invariant_violations ),
    ( Metrics.originated m,
      Metrics.delivered m,
      Metrics.duplicates m,
      Metrics.median_latency_ms m,
      Metrics.p95_latency_ms m,
      Metrics.mean_hops m ),
    ( Metrics.control_by_kind m,
      Metrics.control_bytes_by_kind m,
      Metrics.drops_by_reason m,
      Metrics.loop_violations m,
      Metrics.data_bytes m,
      Metrics.ack_bytes m ) )

let same_digest label a b =
  checkb label true (Stdlib.compare (digest a) (digest b) = 0)

(* --- Channel fan-out vs brute-force oracle ------------------------------ *)

(* Run [sc] with the fan-out oracle checking every transmission (it
   raises at the first divergence); [prepare] runs after arming it. *)
let run_checked ?monitor ?(prepare = ignore) sc =
  let checked = ref 0 in
  let o =
    Runner.run ?monitor
      ~prepare:(fun sim ->
        Naive_medium.arm_sim ~checked sim;
        prepare sim)
      sc
  in
  checki "oracle checked every transmission" o.Runner.transmissions !checked;
  o

let test_soa_identical protocol () =
  let checked = run_checked (fig5 ~protocol ()) in
  let plain = Runner.run (fig5 ~protocol ()) in
  checkb "run did work" true (Metrics.delivered plain.Runner.metrics > 0);
  same_digest "oracle-checked digest = plain digest" checked plain

let test_soa_identical_mobility mobility () =
  let checked = run_checked (fig5 ~mobility ()) in
  let plain = Runner.run (fig5 ~mobility ()) in
  checkb "run did work" true (Metrics.delivered plain.Runner.metrics > 0);
  same_digest
    (Scenario.mobility_name mobility ^ ": oracle-checked = plain")
    checked plain

(* --- overhearing: only DSR's radios are handed frames for others ------ *)

(* Run [sc] with every agent wrapped to count its [overheard] calls. *)
let overheard_calls sc =
  let calls = ref 0 in
  let o =
    Runner.run
      ~prepare:(fun sim ->
        Array.iteri
          (fun i (a : Routing.Agent.t) ->
            sim.Runner.agents.(i) <-
              {
                a with
                Routing.Agent.overheard =
                  (fun p ~from ~dst ->
                    incr calls;
                    a.overheard p ~from ~dst);
              })
          sim.Runner.agents)
      sc
  in
  checkb "run did work" true (Metrics.delivered o.Runner.metrics > 0);
  !calls

let test_overhearing () =
  checkb "DSR overhears" true
    (overheard_calls (fig5 ~protocol:Scenario.dsr ()) > 0);
  checki "LDR is handed nothing to overhear" 0
    (overheard_calls (fig5 ~protocol:Scenario.ldr ()))

(* --- shadowing: deterministic, observable, oracle-checked ------------ *)

let test_shadowing () =
  let sh = Some Scenario.default_shadowing in
  let a = Runner.run (fig5 ~shadowing:(Option.get sh) ()) in
  let b = Runner.run (fig5 ~shadowing:(Option.get sh) ()) in
  same_digest "shadowed rerun identical" a b;
  let checked = run_checked (fig5 ~shadowing:(Option.get sh) ()) in
  same_digest "shadowed oracle-checked = plain" checked a;
  let plain = Runner.run (fig5 ()) in
  checkb "shadowing changes the outcome" true
    (Stdlib.compare (digest a) (digest plain) <> 0)

(* --- partition wall: heals, monitor silent, oracle-checked ----------- *)

let test_partition_heal () =
  let partition =
    { Scenario.part_at = Time.sec 4.; part_heal = Time.sec 8.;
      part_x_frac = 0.5 }
  in
  let o = Runner.run ~monitor:true (fig5 ~partition ()) in
  checki "monitor silent across partition-heal" 0
    o.Runner.invariant_violations;
  checkb "still delivered" true (Metrics.delivered o.Runner.metrics > 0);
  let checked = run_checked ~monitor:true (fig5 ~partition ()) in
  same_digest "partitioned oracle-checked = plain" checked o

(* --- churn: monitor silent, oracle-checked ------------------------------ *)

let churn_cfg =
  {
    Scenario.churn_frac = 0.4;
    crash_frac = 0.5;
    down_min = Time.sec 3.;
    down_max = Time.sec 6.;
    churn_start = Time.sec 3.;
    churn_stop = Time.sec 10.;
  }

let test_churn_monitor_silent () =
  let o = Runner.run ~monitor:true (fig5 ~churn:churn_cfg ()) in
  checki "monitor silent across churn" 0 o.Runner.invariant_violations;
  checkb "churned run still delivers" true
    (Metrics.delivered o.Runner.metrics > 0);
  let checked = run_checked ~monitor:true (fig5 ~churn:churn_cfg ()) in
  same_digest "churned oracle-checked = plain" checked o

(* --- crashed-destination edge cases --------------------------------- *)

(* A five-node chain, 200 m spacing (range 250 m: only neighbours hear
   each other).  Node 4 crashes mid-run while node 0 keeps injecting. *)
let chain_scenario () =
  let positions =
    List.init 5 (fun i -> Geom.Vec2.v (100. +. (200. *. float_of_int i)) 150.)
  in
  {
    (fig5 ~duration:20. ()) with
    Scenario.label = "chain-crash";
    num_nodes = 5;
    placement = Scenario.Fixed positions;
    speed_min = 0.;
    speed_max = 0.;
    traffic = { (fig5 ()).Scenario.traffic with Traffic.num_flows = 0 };
  }

let run_chain_crash ~oracle =
  let crashed_successor = ref (Some (Node_id.of_int 0)) in
  let prepare (sim : Runner.sim) =
      let eng = sim.Runner.engine in
      let take_down at =
        ignore
          (Engine.at eng at (fun () ->
               Net.Mac.set_down sim.Runner.macs.(4) true;
               sim.Runner.agents.(4).Routing.Agent.reset ~crash:true;
               crashed_successor :=
                 sim.Runner.agents.(4).Routing.Agent.successor
                   (Node_id.of_int 0)))
      and bring_up at =
        ignore
          (Engine.at eng at (fun () ->
               Net.Mac.set_down sim.Runner.macs.(4) false))
      and inject at =
        ignore (Engine.at eng at (fun () -> sim.Runner.inject ~src:0 ~dst:4))
      in
      inject (Time.sec 1.);
      (* route formed *)
      take_down (Time.sec 5.);
      inject (Time.sec 6.);
      (* traffic to a crashed node *)
      bring_up (Time.sec 10.);
      inject (Time.sec 13.)
      (* rediscovery after the reboot *)
  in
  if oracle then run_checked ~monitor:true ~prepare (chain_scenario ())
  else Runner.run ~monitor:true ~prepare (chain_scenario ())

let test_crashed_destination () =
  let o = run_chain_crash ~oracle:false in
  let m = o.Runner.metrics in
  checki "monitor silent across crash/rejoin" 0 o.Runner.invariant_violations;
  checki "three originations" 3 (Metrics.originated m);
  (* First packet (live chain) and third (after rejoin and
     rediscovery) arrive; the mid-crash one cannot. *)
  checki "crash-window packet lost" 2 (Metrics.delivered m);
  checki "no loops" 0 (Metrics.loop_violations m)

let test_crash_successor_cleared () =
  let crashed_successor = ref (Some (Node_id.of_int 0)) in
  ignore
    (Runner.run
       ~prepare:(fun sim ->
         ignore
           (Engine.at sim.Runner.engine (Time.sec 5.) (fun () ->
                sim.Runner.agents.(4).Routing.Agent.reset ~crash:true;
                crashed_successor :=
                  sim.Runner.agents.(4).Routing.Agent.successor
                    (Node_id.of_int 0)));
         ignore
           (Engine.at sim.Runner.engine (Time.sec 1.) (fun () ->
                sim.Runner.inject ~src:0 ~dst:4)))
       (chain_scenario ()));
  checkb "reset cleared every successor" true (!crashed_successor = None)

let test_crashed_destination_soa_identical () =
  (* The scripted crash/rejoin under the fan-out oracle: exercises the
     neighbour lists' attached filter across detach and re-attach
     against the brute-force scan's at every transmission. *)
  let a = run_chain_crash ~oracle:true in
  let b = run_chain_crash ~oracle:false in
  same_digest "chain crash oracle-checked = plain" a b

let () =
  Alcotest.run "world"
    [
      ( "soa-differential",
        [
          Alcotest.test_case "ldr" `Quick (test_soa_identical Scenario.ldr);
          Alcotest.test_case "aodv" `Quick (test_soa_identical Scenario.aodv);
          Alcotest.test_case "olsr" `Quick (test_soa_identical Scenario.olsr);
          Alcotest.test_case "dsr" `Quick (test_soa_identical Scenario.dsr);
          Alcotest.test_case "manhattan" `Quick
            (test_soa_identical_mobility
               (Scenario.Manhattan { spacing = 150. }));
          Alcotest.test_case "rpgm" `Quick
            (test_soa_identical_mobility
               (Scenario.Rpgm { groups = 4; radius = 60. }));
        ] );
      ( "overhearing",
        [ Alcotest.test_case "DSR only" `Quick test_overhearing ] );
      ( "link-model",
        [
          Alcotest.test_case "shadowing deterministic" `Quick test_shadowing;
          Alcotest.test_case "partition heals, monitor silent" `Quick
            test_partition_heal;
        ] );
      ( "churn",
        [
          Alcotest.test_case "monitor silent" `Quick test_churn_monitor_silent;
          Alcotest.test_case "crashed destination" `Quick
            test_crashed_destination;
          Alcotest.test_case "crash clears successors" `Quick
            test_crash_successor_cleared;
          Alcotest.test_case "crash/rejoin soa = record" `Quick
            test_crashed_destination_soa_identical;
        ] );
    ]
