(* Origin-side discovery behaviour every on-demand protocol must share,
   written once over Graph_net and instantiated per protocol by
   test_ldr, test_aodv and test_dsr ([ttl_guard] by test_olsr too). *)

open Sim
module TN = Graph_net
module M = Experiment.Metrics

let make factory k = TN.create ~seed:3 ~factory ~n:k ()

let drops net reason =
  M.drops_by_reason (TN.metrics net)
  |> List.assoc_opt reason
  |> Option.value ~default:0

let rreqs net = M.event_count (TN.metrics net) "rreq_init"

(* A graceful leave in the middle of a discovery cancels it: no further
   attempt fires, the held packet is reported as a node-down drop (not a
   discovery failure), and after the rejoin a new packet starts a fresh
   discovery that delivers. *)
let reset_mid_discovery factory () =
  let net = make factory 3 in
  TN.connect net 0 1;
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.ms 50.);
  let before = rreqs net in
  Alcotest.(check bool) "discovery running" true (before >= 1);
  (TN.agent net 0).Routing.Agent.reset ~crash:false;
  TN.run net ~for_:(Time.sec 60.);
  Alcotest.(check int) "no attempt after reset" before (rreqs net);
  Alcotest.(check int) "held packet dropped node-down" 1
    (drops net "node-down");
  Alcotest.(check int) "not reported as discovery-failed" 0
    (drops net "discovery-failed");
  TN.connect net 1 2;
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 3.);
  Alcotest.(check bool) "fresh discovery after rejoin" true
    (rreqs net > before);
  Alcotest.(check int) "delivered after rejoin" 1 (TN.delivered net)

(* An unreachable destination exhausts the schedule: the held packet is
   reported as a discovery-failed drop. *)
let gives_up factory () =
  let net = make factory 4 in
  TN.connect net 0 1;
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 60.);
  Alcotest.(check int) "nothing delivered" 0 (TN.delivered net);
  Alcotest.(check int) "discovery-failed drop" 1 (drops net "discovery-failed")

(* A broken next hop: the origin holds its packet and rediscovers, so
   the packet arrives over the alternate path; a relay whose next hop
   breaks drops its packet as a link failure. *)
let origin_rescue factory () =
  let net = make factory 4 in
  TN.connect_chain net [ 0; 1; 3 ];
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 1.);
  Alcotest.(check int) "first packet over 0-1-3" 1 (TN.delivered net);
  (* The origin's route still leads through 1 when 0-1 breaks. *)
  TN.disconnect net 0 1;
  TN.connect_chain net [ 0; 2; 3 ];
  let before = rreqs net in
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 1.);
  Alcotest.(check bool) "origin rediscovered" true (rreqs net > before);
  Alcotest.(check int) "held packet delivered over 0-2-3" 2 (TN.delivered net);
  Alcotest.(check int) "origin dropped nothing" 0 (drops net "link-failure");
  (* Now the relay's next hop breaks. *)
  TN.disconnect net 2 3;
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 1.);
  Alcotest.(check int) "nothing more delivered" 2 (TN.delivered net);
  Alcotest.(check int) "relay dropped link-failure" 1 (drops net "link-failure")

(* Forwarding decrements the IP TTL and drops at zero: a packet handed
   to the agent with TTL 2 dies two hops short of a destination four
   hops away, while a fresh packet (full TTL) then arrives.  A proactive
   protocol first lets its routes form for [converge]. *)
let ttl_guard ?(converge = Time.zero) factory () =
  let net = make factory 5 in
  TN.connect_chain net [ 0; 1; 2; 3; 4 ];
  TN.run net ~for_:converge;
  let fresh =
    Packets.Data_msg.fresh ~flow_id:1_000 ~seq:0
      ~src:(Packets.Node_id.of_int 0) ~dst:(Packets.Node_id.of_int 4)
      ~payload_bytes:512 ~origin_time:Time.zero
  in
  let msg = { fresh with Packets.Data_msg.ttl = 2 } in
  (TN.agent net 0).Routing.Agent.origin_data msg;
  TN.run net ~for_:(Time.sec 10.);
  Alcotest.(check int) "too far for ttl 2" 0 (TN.delivered net);
  Alcotest.(check int) "ttl-expired drop" 1 (drops net "ttl-expired");
  TN.origin net ~src:0 ~dst:4;
  TN.run net ~for_:(Time.sec 3.);
  Alcotest.(check int) "full ttl delivered" 1 (TN.delivered net)
