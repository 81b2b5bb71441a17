(* Integration tests: full-stack simulations through the Runner, metric
   accounting, and trial sweeps. *)

open Sim

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

open Experiment

let small_scenario ?(protocol = Scenario.ldr) ?(seed = 7) ?(audit = false)
    ?(speed_max = 0.) ?(duration = 20.) ?(flows = 2) ?(nodes = 10) () =
  {
    Scenario.label = "test";
    num_nodes = nodes;
    terrain = Geom.Terrain.create ~width:500. ~height:400.;
    placement = Scenario.Uniform;
    speed_min = (if speed_max > 0. then 1. else 0.);
    speed_max;
    pause = Time.sec 0.;
    duration = Time.sec duration;
    traffic = { Traffic.num_flows = flows; packets_per_sec = 4. };
    protocol;
    net = Net.Params.default;
    seed;
    audit_loops = audit;
    mobility = Scenario.Waypoint;
    shadowing = None;
    churn = None;
    partition = None;
  }

let static_delivery ?(threshold = 0.95) protocol () =
  (* Dense static network: essentially everything must arrive.  OLSR gets
     a slightly lower bar — packets sent before the first HELLO/TC rounds
     converge are dropped by design. *)
  let outcome = Runner.run (small_scenario ~protocol ~duration:30. ()) in
  let m = outcome.metrics in
  checkb "originated some" true (Metrics.originated m > 50);
  checkb
    (Printf.sprintf "delivery >= %.2f (got %.3f)" threshold
       (Metrics.delivery_ratio m))
    true
    (Metrics.delivery_ratio m >= threshold)

let mobile_delivery protocol () =
  let outcome =
    Runner.run (small_scenario ~protocol ~speed_max:10. ~duration:40. ())
  in
  let m = outcome.metrics in
  checkb
    (Printf.sprintf "mobile delivery >= 0.7 (got %.3f)" (Metrics.delivery_ratio m))
    true
    (Metrics.delivery_ratio m >= 0.7)

let determinism () =
  let run () =
    let o = Runner.run (small_scenario ~speed_max:10. ()) in
    ( Metrics.originated o.metrics,
      Metrics.delivered o.metrics,
      o.events_processed,
      o.transmissions )
  in
  let a = run () and b = run () in
  checkb "bit-identical reruns" true (a = b)

(* [outcome.transmissions] counts every frame on the air, ACKs
   included: under every protocol it equals the count of a transmit
   hook attached before the run. *)
let transmissions_count_every_frame () =
  List.iter
    (fun protocol ->
      let name = Scenario.protocol_name protocol in
      let seen = ref 0 in
      let prepare (sim : Runner.sim) =
        Net.Channel.add_transmit_hook sim.channel (fun _ _ -> incr seen)
      in
      let o =
        Runner.run ~prepare
          (small_scenario ~protocol ~speed_max:10. ~duration:10. ())
      in
      checkb (name ^ ": frames on the air") true (!seen > 0);
      checki (name ^ ": transmissions") !seen o.transmissions)
    Scenario.[ ldr; aodv; dsr; dsr_draft7; olsr; ldr_agg; aodv_agg ]

(* The comparisons assume every protocol faces the same traffic:
   [Runner.build] gives the traffic generator its own RNG stream, split
   off before the per-node MAC and agent streams, so the packets offered
   to the routing layer (flow, sequence number, endpoints, emission
   time) do not depend on the protocol. *)
let offered_load_protocol_independent () =
  let offered protocol =
    let log = ref [] in
    let prepare (sim : Runner.sim) =
      Array.iteri
        (fun i (a : Routing.Agent.t) ->
          sim.agents.(i) <-
            {
              a with
              origin_data =
                (fun (msg : Packets.Data_msg.t) ->
                  log :=
                    ( msg.flow_id,
                      msg.seq,
                      Packets.Node_id.to_int msg.src,
                      Packets.Node_id.to_int msg.dst,
                      msg.origin_time )
                    :: !log;
                  a.origin_data msg);
            })
        sim.agents
    in
    ignore
      (Runner.run ~prepare
         (small_scenario ~protocol ~seed:3 ~speed_max:10. ~duration:20. ~flows:3 ()));
    List.rev !log
  in
  let reference = offered Scenario.ldr in
  checkb "ldr originated some" true (List.length reference > 100);
  List.iter
    (fun (name, protocol) ->
      let got = offered protocol in
      checki (name ^ ": originated") (List.length reference) (List.length got);
      checkb (name ^ ": same packets at the same times") true (got = reference))
    Scenario.
      [
        ("ldr-plain", Ldr Ldr.Config.plain);
        ("ldr-agg", ldr_agg);
        ("aodv", aodv);
        ("aodv-agg", aodv_agg);
        ("dsr", dsr);
        ("dsr-draft7", dsr_draft7);
        ("olsr", olsr);
      ]

let seeds_differ () =
  let run seed = (Runner.run (small_scenario ~speed_max:10. ~seed ())).events_processed in
  checkb "different seeds, different runs" true (run 1 <> run 2)

let audit_ldr_loop_free () =
  let outcome =
    Runner.run (small_scenario ~audit:true ~speed_max:15. ~duration:30. ~flows:4 ())
  in
  checki "no loops" 0 (Metrics.loop_violations outcome.metrics)

let latency_positive () =
  let o = Runner.run (small_scenario ()) in
  checkb "latency > 0" true (Metrics.mean_latency_ms o.metrics > 0.);
  (* One-to-few-hop static network at 2 Mbps: latencies are milliseconds,
     not seconds. *)
  checkb "latency < 1s" true (Metrics.mean_latency_ms o.metrics < 1000.)

let control_accounting () =
  let o = Runner.run (small_scenario ()) in
  let m = o.metrics in
  let by_kind = Metrics.control_by_kind m in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 by_kind in
  checki "kinds sum to total" (Metrics.control_transmissions m) total;
  checkb "rreqs happened" true (List.mem_assoc "RREQ" by_kind);
  checkb "network load finite" true (Metrics.network_load m >= 0.)

let olsr_control_kinds () =
  let o = Runner.run (small_scenario ~protocol:Scenario.olsr ~duration:30. ()) in
  let by_kind = Metrics.control_by_kind o.metrics in
  checkb "hellos counted" true (List.mem_assoc "HELLO" by_kind);
  checkb "no rreqs in olsr" false (List.mem_assoc "RREQ" by_kind)

let summary_consistent () =
  let o = Runner.run (small_scenario ()) in
  let s = o.summary in
  let m = o.metrics in
  checkb "ratio matches" true (s.Metrics.s_delivery_ratio = Metrics.delivery_ratio m);
  checkb "latency matches" true (s.Metrics.s_latency_ms = Metrics.mean_latency_ms m)

let dest_seqno_ldr_vs_aodv () =
  (* The Fig-7 relation must hold even on a small mobile run: AODV's mean
     destination number exceeds LDR's. *)
  let run protocol =
    let o =
      Runner.run
        (small_scenario ~protocol ~speed_max:15. ~duration:40. ~flows:4 ())
    in
    Metrics.mean_dest_seqno o.metrics
  in
  let ldr = run Scenario.ldr and aodv = run Scenario.aodv in
  checkb
    (Printf.sprintf "aodv (%.1f) > ldr (%.1f)" aodv ldr)
    true (aodv > ldr)

let injection_api () =
  let sim = Runner.build (small_scenario ~flows:2 ()) in
  (* Inject an extra packet mid-run. *)
  ignore
    (Engine.at sim.engine (Time.sec 5.) (fun () -> sim.inject ~src:0 ~dst:1));
  Engine.run ~until:(Time.sec 20.) sim.engine;
  sim.finalize ();
  checkb "injected packet counted" true (Metrics.originated sim.sim_metrics > 0)

let sweep_trials () =
  let sc = small_scenario ~duration:10. () in
  let p = Sweep.trials sc ~n:3 in
  checki "3 trials" 3 (Stats.Welford.count p.Sweep.delivery_ratio);
  checkb "mean sane" true (Stats.Welford.mean p.Sweep.delivery_ratio > 0.5)

let sweep_pause_series () =
  let sc = small_scenario ~speed_max:10. ~duration:10. () in
  let pause p (s : Scenario.t) = { s with pause = Time.sec p } in
  let series = Sweep.run sc ~points:[ pause 0.; pause 5. ] ~trials:2 in
  checki "two points" 2 (List.length series);
  List.iter
    (fun p -> checki "two trials each" 2 (Stats.Welford.count p.Sweep.delivery_ratio))
    series

(* merge_points against a single-pass baseline: feeding every summary
   into one point must equal splitting them across two points and
   merging — mean, variance, and count, per field. *)
let sweep_merge_points () =
  let sc = small_scenario ~duration:10. () in
  let summaries =
    List.map
      (fun seed -> (Runner.run { sc with Scenario.seed }).Runner.summary)
      [ 1; 2; 3; 4; 5 ]
  in
  let single = Sweep.empty_point () in
  List.iter (Sweep.add_summary single) summaries;
  let a = Sweep.empty_point () and b = Sweep.empty_point () in
  List.iteri
    (fun i s -> Sweep.add_summary (if i < 2 then a else b) s)
    summaries;
  let merged = Sweep.merge_points a b in
  let fields =
    [
      ("delivery", fun (p : Sweep.point) -> p.Sweep.delivery_ratio);
      ("latency", fun p -> p.Sweep.latency_ms);
      ("load", fun p -> p.Sweep.network_load);
      ("rreq", fun p -> p.Sweep.rreq_load);
      ("rrep_init", fun p -> p.Sweep.rrep_init);
      ("rrep_recv", fun p -> p.Sweep.rrep_recv);
      ("seqno", fun p -> p.Sweep.mean_dest_seqno);
    ]
  in
  List.iter
    (fun (name, f) ->
      let w1 = f single and w2 = f merged in
      checki (name ^ " count") (Stats.Welford.count w1)
        (Stats.Welford.count w2);
      Alcotest.check (Alcotest.float 1e-9) (name ^ " mean")
        (Stats.Welford.mean w1) (Stats.Welford.mean w2);
      Alcotest.check (Alcotest.float 1e-9) (name ^ " variance")
        (Stats.Welford.variance w1) (Stats.Welford.variance w2))
    fields

let scenario_builders () =
  let sc = Scenario.paper_50 Scenario.ldr in
  checki "50 nodes" 50 sc.Scenario.num_nodes;
  let sc100 = Scenario.paper_100 Scenario.aodv in
  checki "100 nodes" 100 sc100.Scenario.num_nodes;
  let sc' = Scenario.with_flows 30 sc in
  checki "flows set" 30 sc'.Scenario.traffic.Traffic.num_flows;
  let sc'' = Scenario.with_pause (Time.sec 60.) sc in
  checkb "pause set" true (Time.equal sc''.Scenario.pause (Time.sec 60.));
  Alcotest.check Alcotest.string "ldr name" "LDR" (Scenario.protocol_name Scenario.ldr);
  Alcotest.check Alcotest.string "dsr7" "DSR" (Scenario.protocol_name Scenario.dsr_draft7)

let metrics_dedup () =
  let m = Metrics.create () in
  let msg =
    Packets.Data_msg.fresh ~flow_id:1 ~seq:1 ~src:(Packets.Node_id.of_int 0)
      ~dst:(Packets.Node_id.of_int 1) ~payload_bytes:10 ~origin_time:Time.zero
  in
  Metrics.data_originated m msg;
  let travelled =
    Packets.Data_msg.hop (Packets.Data_msg.hop (Packets.Data_msg.hop msg))
  in
  Metrics.data_delivered m ~now:(Time.ms 5.) travelled;
  Metrics.data_delivered m ~now:(Time.ms 9.) travelled;
  checki "delivered once" 1 (Metrics.delivered m);
  checki "dup counted" 1 (Metrics.duplicates m);
  checkb "latency from first copy" true
    (abs_float (Metrics.mean_latency_ms m -. 5.) < 1e-9);
  checkb "median matches" true
    (abs_float (Metrics.median_latency_ms m -. 5.) < 1e-9);
  checkb "hops recorded" true (abs_float (Metrics.mean_hops m -. 3.) < 1e-9)

let placement_grid () =
  let sc =
    { (small_scenario ~nodes:9 ()) with
      Scenario.placement = Scenario.Grid;
      terrain = Geom.Terrain.create ~width:300. ~height:300. }
  in
  let ps = Scenario.positions sc (Rng.create 1) in
  checki "nine positions" 9 (Array.length ps);
  Array.iter
    (fun p -> checkb "inside terrain" true (Geom.Terrain.contains sc.Scenario.terrain p))
    ps;
  (* Deterministic: independent of the rng. *)
  let ps' = Scenario.positions sc (Rng.create 99) in
  checkb "grid ignores rng" true (ps = ps');
  (* All positions distinct. *)
  let distinct = Array.to_list ps |> List.sort_uniq compare |> List.length in
  checki "distinct" 9 distinct

let placement_fixed () =
  let pts = [ Geom.Vec2.v 1. 1.; Geom.Vec2.v 2. 2. ] in
  let sc =
    { (small_scenario ~nodes:2 ()) with Scenario.placement = Scenario.Fixed pts }
  in
  let ps = Scenario.positions sc (Rng.create 1) in
  checkb "exact" true (Array.to_list ps = pts);
  let bad = { sc with Scenario.num_nodes = 3 } in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Scenario.positions: Fixed placement length mismatch")
    (fun () -> ignore (Scenario.positions bad (Rng.create 1)))

let () =
  Alcotest.run "experiment"
    [
      ( "runner",
        [
          Alcotest.test_case "ldr static delivery" `Slow (static_delivery Scenario.ldr);
          Alcotest.test_case "aodv static delivery" `Slow (static_delivery Scenario.aodv);
          Alcotest.test_case "dsr static delivery" `Slow (static_delivery Scenario.dsr);
          Alcotest.test_case "olsr static delivery" `Slow
            (static_delivery ~threshold:0.9 Scenario.olsr);
          Alcotest.test_case "ldr mobile delivery" `Slow (mobile_delivery Scenario.ldr);
          Alcotest.test_case "aodv mobile delivery" `Slow (mobile_delivery Scenario.aodv);
          Alcotest.test_case "determinism" `Slow determinism;
          Alcotest.test_case "transmissions count every frame" `Quick
            transmissions_count_every_frame;
          Alcotest.test_case "offered load is protocol-independent" `Quick
            offered_load_protocol_independent;
          Alcotest.test_case "seed sensitivity" `Slow seeds_differ;
          Alcotest.test_case "ldr loop-free full stack" `Slow audit_ldr_loop_free;
          Alcotest.test_case "latency sane" `Quick latency_positive;
          Alcotest.test_case "control accounting" `Quick control_accounting;
          Alcotest.test_case "olsr control kinds" `Slow olsr_control_kinds;
          Alcotest.test_case "summary consistent" `Quick summary_consistent;
          Alcotest.test_case "fig7 relation" `Slow dest_seqno_ldr_vs_aodv;
          Alcotest.test_case "injection api" `Quick injection_api;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "trials aggregate" `Slow sweep_trials;
          Alcotest.test_case "merge points" `Slow sweep_merge_points;
          Alcotest.test_case "pause series" `Slow sweep_pause_series;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "builders" `Quick scenario_builders;
          Alcotest.test_case "grid placement" `Quick placement_grid;
          Alcotest.test_case "fixed placement" `Quick placement_fixed;
        ] );
      ("metrics", [ Alcotest.test_case "dedup" `Quick metrics_dedup ]);
    ]
