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
    medium = Scenario.Radio;
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
   [Runner.build] gives the traffic generator its own RNG stream, by a
   fixed index apart from the per-node MAC and agent streams, so the
   packets offered to the routing layer (flow, sequence number,
   endpoints, emission time) do not depend on the protocol. *)
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
  match Sweep.run [ sc ] ~trials:3 with
  | [ sums ] ->
      checki "3 trials" 3 (Array.length sums);
      let w =
        Stats.Welford.of_array
          (Array.map (fun s -> s.Metrics.s_delivery_ratio) sums)
      in
      checkb "mean sane" true (Stats.Welford.mean w > 0.5)
  | l -> Alcotest.failf "one scenario, %d results" (List.length l)

let sweep_pause_series () =
  let sc = small_scenario ~speed_max:10. ~duration:10. () in
  let pause p = { sc with pause = Time.sec p } in
  let series = Sweep.run [ pause 0.; pause 5. ] ~trials:2 in
  checki "two scenarios" 2 (List.length series);
  List.iter (fun sums -> checki "two trials each" 2 (Array.length sums)) series

(* Each scenario's array is in seed order: trial i ran under seed
   [seed + i]. *)
let sweep_seed_order () =
  let sc = small_scenario ~duration:10. () in
  match
    Sweep.run [ sc; { sc with seed = sc.seed + 1 } ] ~trials:2
  with
  | [ from_7; from_8 ] ->
      checkb "seed 8 is trial 1 of the first and trial 0 of the second" true
        (Stdlib.compare from_7.(1) from_8.(0) = 0);
      checkb "seeds 7 and 8 differ" true
        (Stdlib.compare from_7.(0) from_7.(1) <> 0)
  | l -> Alcotest.failf "two scenarios, %d results" (List.length l)

let sweep_edges () =
  Alcotest.check_raises "zero trials"
    (Invalid_argument "Sweep.run: trials must be >= 1") (fun () ->
      ignore (Sweep.run [ small_scenario () ] ~trials:0));
  checki "no scenarios, no results" 0 (List.length (Sweep.run [] ~trials:3))

let scenario_builders () =
  let sc = Scenario.paper_50 Scenario.ldr in
  checki "50 nodes" 50 sc.Scenario.num_nodes;
  let sc100 = Scenario.paper_100 Scenario.aodv in
  checki "100 nodes" 100 sc100.Scenario.num_nodes;
  let sc' = Scenario.with_flows 30 sc in
  checki "flows set" 30 sc'.Scenario.traffic.Traffic.num_flows;
  let sc'' = Scenario.with_pause (Time.sec 60.) sc in
  checkb "pause set" true (Time.equal sc''.Scenario.pause (Time.sec 60.));
  let name what want p =
    Alcotest.check Alcotest.string what want (Scenario.protocol_name p)
  in
  name "ldr name" "LDR" Scenario.ldr;
  name "ldr-plain name" "LDR-PLAIN" (Scenario.Ldr Ldr.Config.plain);
  name "dsr name" "DSR" Scenario.dsr;
  name "dsr7" "DSR-DRAFT7" Scenario.dsr_draft7

(* The CLI's run header is one line, whatever the protocol: the
   pps separator is a literal [@], not a Format break hint. *)
let run_header_one_line () =
  List.iter
    (fun (p, name) ->
      let out = Filename.temp_file "manet_sim_header" ".txt" in
      let code =
        Sys.command
          (Printf.sprintf "../bin/manet_sim.exe run -p %s -n 10 -d 1 > %s" p
             (Filename.quote out))
      in
      let ic = open_in out in
      let first = input_line ic in
      close_in ic;
      Sys.remove out;
      checki (p ^ ": exit code") 0 code;
      Alcotest.check Alcotest.string (p ^ ": header")
        (name ^ ": 10 nodes on 1500x300m, 10 flows @ 4 pps, pause 0s, 1s")
        first)
    [ ("ldr", "LDR"); ("ldr-plain", "LDR-PLAIN"); ("dsr-draft7", "DSR-DRAFT7") ]

(* Metrics is a bus sink: an originate span and two Deliver events of
   one packet count one origination, one delivery and one duplicate,
   with latency and hops from the first copy. *)
let metrics_dedup () =
  let bus = Obs.Bus.create () in
  let m = Metrics.attach bus in
  Obs.Bus.span bus ~time:Time.zero ~node:0 ~stage:Obs.Span.Stage.originate
    ~flow:1 ~seq:1 ~d:1 ~e:10 ~f:(-1);
  let deliver at =
    Obs.Bus.deliver bus ~time:at ~node:1 ~flow:1 ~seq:1 ~src:0 ~hops:3
      ~latency_ns:(at :> int)
  in
  deliver (Time.ms 5.);
  deliver (Time.ms 9.);
  checki "originated once" 1 (Metrics.originated m);
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

(* Churn over the explicit-link medium: a 3-node LDR chain whose nodes
   all go down together at 10 s, crashing, and come back at 15 s.  The
   link medium reads each node's MAC power state, so while the nodes
   are down nothing is received and every send is dropped; a packet
   injected at a down origin is not originated at all.  After the
   window a fresh packet is delivered, and the invariant monitor stays
   silent across the crash reboots. *)
let graph_churn () =
  let window =
    {
      Scenario.churn_frac = 1.;
      crash_frac = 1.;
      down_min = Time.sec 5.;
      down_max = Time.sec 5.;
      churn_start = Time.sec 10.;
      churn_stop = Time.sec 10.;
    }
  in
  let sends = ref 0 and receives = ref 0 in
  let counting (ctx : Routing.Agent.ctx) =
    let send ~dst p =
      incr sends;
      ctx.send ~dst p
    in
    let a = Scenario.factory Scenario.ldr { ctx with send } in
    {
      a with
      Routing.Agent.recv =
        (fun p ~from ->
          incr receives;
          a.recv p ~from);
    }
  in
  let sim =
    Runner.build ~factory:counting
      (Scenario.with_churn (Some window)
         (Scenario.graph Scenario.ldr ~nodes:3 ~links:[ (0, 1); (1, 2) ]))
  in
  let monitor = Runner.attach_monitor ~quiet:true sim in
  let run_to s = Engine.run ~until:(Time.sec s) sim.Runner.engine in
  let delivered () = Metrics.delivered sim.Runner.sim_metrics in
  sim.Runner.inject ~src:0 ~dst:2;
  run_to 9.;
  checki "delivered before the window" 1 (delivered ());
  run_to 10.5;
  checkb "every node down" true (Array.for_all Net.Mac.is_down sim.Runner.macs);
  let sends0 = !sends and receives0 = !receives in
  let originated () = Metrics.originated sim.Runner.sim_metrics in
  let originated0 = originated () in
  sim.Runner.inject ~src:0 ~dst:2;
  run_to 14.9;
  checki "the down origin originated nothing" originated0 (originated ());
  checki "the down origin sent nothing" sends0 !sends;
  checki "nothing received while down" receives0 !receives;
  checki "nothing delivered while down" 1 (delivered ());
  run_to 16.;
  checkb "every node up" true
    (Array.for_all (fun m -> not (Net.Mac.is_down m)) sim.Runner.macs);
  let before = delivered () in
  sim.Runner.inject ~src:0 ~dst:2;
  run_to 20.;
  checki "fresh packet delivered after the window" (before + 1) (delivered ());
  checki "monitor silent" 0 (Obs.Monitor.violations monitor)

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
          Alcotest.test_case "churn over explicit links" `Quick graph_churn;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "trials aggregate" `Slow sweep_trials;
          Alcotest.test_case "seed order" `Slow sweep_seed_order;
          Alcotest.test_case "pause series" `Slow sweep_pause_series;
          Alcotest.test_case "zero trials, no scenarios" `Quick sweep_edges;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "builders" `Quick scenario_builders;
          Alcotest.test_case "run header is one line" `Quick run_header_one_line;
          Alcotest.test_case "grid placement" `Quick placement_grid;
          Alcotest.test_case "fixed placement" `Quick placement_fixed;
        ] );
      ("metrics", [ Alcotest.test_case "dedup" `Quick metrics_dedup ]);
    ]
