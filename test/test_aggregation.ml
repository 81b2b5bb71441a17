(* Route-request aggregation layer: piggybacking, suppression, RREP
   fan-out, codec round-trips for the aggregate option block, and the
   loop-freedom monitor staying authoritative with the layer on. *)

open Sim
open Packets

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let nid = Node_id.of_int

let ldr_agg_factory () = Routing.Aggregation.wrap (Ldr.Protocol.factory ())
let aodv_agg_factory () = Routing.Aggregation.wrap (Aodv.factory ())

module TN = Graph_net

(* ---- Window merge / piggybacking -------------------------------------- *)

(* Two discoveries started back-to-back at the same node must leave in
   one aggregate transmission instead of two floods. *)
let window_merge () =
  let net = TN.create ~factory:(ldr_agg_factory ()) ~n:5 () in
  (* 0 - 1 - 2 with leaves 3 and 4 on node 2. *)
  TN.connect_chain net [ 0; 1; 2; 3 ];
  TN.connect net 2 4;
  TN.origin net ~src:0 ~dst:3;
  TN.origin net ~src:0 ~dst:4;
  TN.run net ~for_:(Time.sec 5.);
  let m = TN.metrics net in
  checki "both flows delivered" 2 (Experiment.Metrics.delivered m);
  checkb "floods were piggybacked" true
    (Experiment.Metrics.event_count m "rreq_aggregated" >= 1);
  checkb "no loops" true (TN.find_cycle net = None)

let window_merge_aodv () =
  let net = TN.create ~factory:(aodv_agg_factory ()) ~n:5 () in
  TN.connect_chain net [ 0; 1; 2; 3 ];
  TN.connect net 2 4;
  TN.origin net ~src:0 ~dst:3;
  TN.origin net ~src:0 ~dst:4;
  TN.run net ~for_:(Time.sec 5.);
  let m = TN.metrics net in
  checki "both flows delivered" 2 (Experiment.Metrics.delivered m);
  checkb "floods were piggybacked" true
    (Experiment.Metrics.event_count m "rreq_aggregated" >= 1)

(* ---- Suppression + RREP fan-out ---------------------------------------- *)

(* Topology: 0 and 4 hang off relay 1; 1 - 2 - 3 is the trunk.  Both 0
   and 4 want routes to 3 at nearly the same time.  Node 1 must forward
   only one of the two floods, and the single returning RREP must be
   fanned out so both origins' data is delivered. *)
let fanout_serves_suppressed_origin () =
  let net = TN.create ~factory:(ldr_agg_factory ()) ~n:5 () in
  TN.connect_chain net [ 0; 1; 2; 3 ];
  TN.connect net 1 4;
  TN.origin net ~src:0 ~dst:3;
  ignore
    (Engine.at (TN.engine net) (Time.ms 30.) (fun () ->
         TN.origin net ~src:4 ~dst:3));
  TN.run net ~for_:(Time.sec 5.);
  let m = TN.metrics net in
  checki "both flows delivered" 2 (Experiment.Metrics.delivered m);
  checkb "a flood was suppressed" true
    (Experiment.Metrics.event_count m "rreq_suppressed" >= 1);
  checkb "the reply was fanned out" true
    (Experiment.Metrics.event_count m "rrep_fanout" >= 1);
  checkb "no loops" true (TN.find_cycle net = None)

(* A stock (unwrapped) agent must interoperate with aggregating
   neighbours: aggregates unpack inside the inner recv. *)
let stock_node_understands_aggregates () =
  let factory (ctx : Routing.Agent.ctx) =
    match Node_id.to_int ctx.id with
    | 0 | 2 -> ldr_agg_factory () ctx
    | _ -> Ldr.Protocol.factory () ctx
  in
  let net = TN.create ~factory ~n:5 () in
  TN.connect_chain net [ 0; 1; 2; 3 ];
  TN.connect net 2 4;
  TN.origin net ~src:0 ~dst:3;
  TN.origin net ~src:0 ~dst:4;
  TN.run net ~for_:(Time.sec 5.);
  let m = TN.metrics net in
  checki "both flows delivered through a mixed net" 2
    (Experiment.Metrics.delivered m)

(* ---- Codec round-trip --------------------------------------------------- *)

let ldr_rreq ~dst ~origin ~rreq_id =
  {
    Ldr_msg.dst = nid dst;
    dst_sn = None;
    rreq_id;
    origin = nid origin;
    origin_sn = { Seqnum.stamp = 3; counter = 9 };
    fd = Wire.Ldr.infinite_distance;
    answer_dist = 7;
    dist = 2;
    ttl = 5;
    reset = false;
    no_reverse = false;
    unicast_probe = false;
  }

let aodv_rreq ~dst ~origin ~rreq_id =
  {
    Aodv_msg.dst = nid dst;
    dst_sn = Some 17;
    rreq_id;
    origin = nid origin;
    origin_sn = 4;
    hop_count = 1;
    ttl = 7;
  }

let ldr_agg_roundtrip () =
  let msg =
    Ldr_msg.Rreq_agg
      [
        ldr_rreq ~dst:3 ~origin:0 ~rreq_id:1;
        ldr_rreq ~dst:4 ~origin:0 ~rreq_id:2;
        ldr_rreq ~dst:9 ~origin:6 ~rreq_id:41;
      ]
  in
  let p = Payload.Ldr msg in
  let family = Wire.Payload.family p in
  let b = Wire.Payload.encode p in
  checki "length matches encoded_length" (Wire.Ldr.encoded_length msg)
    (Bytes.length b);
  checki "header + 3 nested rreqs" (4 + (3 * 44)) (Bytes.length b);
  (match Wire.Payload.decode ~family b with
  | Ok m -> checkb "round-trips" true (m = p)
  | Error e -> Alcotest.fail (Wire.error_to_string e));
  (* Truncated aggregates must be rejected, not mis-parsed. *)
  match Wire.Payload.decode ~family (Bytes.sub b 0 (Bytes.length b - 1)) with
  | Ok _ -> Alcotest.fail "truncated aggregate accepted"
  | Error _ -> ()

let aodv_agg_roundtrip () =
  let msg =
    Aodv_msg.Rreq_agg
      [ aodv_rreq ~dst:3 ~origin:0 ~rreq_id:1; aodv_rreq ~dst:4 ~origin:2 ~rreq_id:9 ]
  in
  let p = Payload.Aodv msg in
  let family = Wire.Payload.family p in
  let b = Wire.Payload.encode p in
  checki "length matches encoded_length" (Wire.Aodv.encoded_length msg)
    (Bytes.length b);
  checki "header + 2 nested rreqs" (4 + (2 * 24)) (Bytes.length b);
  (match Wire.Payload.decode ~family b with
  | Ok m -> checkb "round-trips" true (m = p)
  | Error e -> Alcotest.fail (Wire.error_to_string e));
  match
    Wire.Payload.decode ~family
      (Wire.Payload.encode (Payload.Aodv (Aodv_msg.Rreq_agg [])))
  with
  | Ok _ -> Alcotest.fail "empty aggregate accepted"
  | Error _ -> ()

let agg_roundtrip_qcheck =
  let gen_member =
    QCheck.Gen.(
      let* dst = int_bound 1000 in
      let* origin = int_bound 1000 in
      let* rreq_id = int_bound 0xffff in
      let* ttl = int_range 1 35 in
      let* dist = int_bound 30 in
      return
        {
          (ldr_rreq ~dst ~origin ~rreq_id) with
          ttl;
          dist;
          fd = (if dist mod 2 = 0 then Wire.Ldr.infinite_distance else dist + 1);
        })
  in
  let gen = QCheck.Gen.(list_size (int_range 1 12) gen_member) in
  QCheck.Test.make ~name:"ldr aggregate encode/decode round-trip" ~count:200
    (QCheck.make gen) (fun members ->
      let p = Payload.Ldr (Ldr_msg.Rreq_agg members) in
      match
        Wire.Payload.decode ~family:(Wire.Payload.family p)
          (Wire.Payload.encode p)
      with
      | Ok m -> m = p
      | Error _ -> false)

(* ---- Loop-freedom monitor with aggregation on --------------------------- *)

let scenario ?(seed = 7) ?(duration = 30.) () =
  {
    Experiment.Scenario.label = "agg-test";
    num_nodes = 20;
    terrain = Geom.Terrain.create ~width:800. ~height:400.;
    placement = Experiment.Scenario.Uniform;
    speed_min = 1.;
    speed_max = 10.;
    pause = Time.sec 0.;
    duration = Time.sec duration;
    traffic = { Traffic.num_flows = 6; packets_per_sec = 4. };
    protocol = Experiment.Scenario.ldr_agg;
    net = Net.Params.default;
    seed;
    audit_loops = true;
    mobility = Experiment.Scenario.Waypoint;
    shadowing = None;
    churn = None;
    partition = None;
    medium = Experiment.Scenario.Radio;
  }

(* A healthy LDR-AGG run must keep the monitor silent: the wrapper may
   suppress and replicate control packets but never weakens the
   invariants the inner machine maintains. *)
let monitor_silent_with_aggregation () =
  let outcome = Experiment.Runner.run ~monitor:true (scenario ()) in
  checki "no invariant violations" 0
    outcome.Experiment.Runner.invariant_violations;
  checki "no successor loops" 0
    (Experiment.Metrics.loop_violations outcome.Experiment.Runner.metrics);
  checkb "delivered some" true
    (Experiment.Metrics.delivered outcome.Experiment.Runner.metrics > 0)

(* ...and a forged stale-seqno RREP must still trip it — aggregation
   must not blind the monitor to real corruption. *)
let monitor_still_catches_fault () =
  let injected = ref (ref false) in
  let outcome =
    Experiment.Runner.run
      ~prepare:(fun sim ->
        ignore (Experiment.Runner.attach_monitor ~quiet:true sim);
        injected :=
          (Experiment.Fault.stale_seqno sim ~at:(Time.sec 10.))
            .Experiment.Fault.injected)
      (scenario ~duration:20. ())
  in
  checkb "fault injected" true !(!injected);
  checkb "monitor fired through the aggregation layer" true
    (outcome.Experiment.Runner.invariant_violations >= 1)

let () =
  Alcotest.run "aggregation"
    [
      ( "piggyback",
        [
          Alcotest.test_case "window merge (ldr)" `Quick window_merge;
          Alcotest.test_case "window merge (aodv)" `Quick window_merge_aodv;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "rrep fan-out" `Quick
            fanout_serves_suppressed_origin;
          Alcotest.test_case "mixed stock/agg net" `Quick
            stock_node_understands_aggregates;
        ] );
      ( "codec",
        [
          Alcotest.test_case "ldr aggregate round-trip" `Quick ldr_agg_roundtrip;
          Alcotest.test_case "aodv aggregate round-trip" `Quick
            aodv_agg_roundtrip;
          QCheck_alcotest.to_alcotest agg_roundtrip_qcheck;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "silent on clean run" `Quick
            monitor_silent_with_aggregation;
          Alcotest.test_case "still catches stale seqno" `Quick
            monitor_still_catches_fault;
        ] );
    ]
