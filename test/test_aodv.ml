(* Tests for the AODV baseline. *)

open Sim
open Packets

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let n = Node_id.of_int

module TN = Graph_net

let make_net ?(seed = 3) k =
  let net = TN.create ~seed ~factory:(Aodv.factory ()) ~n:k () in
  (TN.engine net, net)

let discovery_on_chain () =
  let _, net = make_net 5 in
  TN.connect_chain net [ 0; 1; 2; 3; 4 ];
  TN.origin net ~src:0 ~dst:4;
  TN.run net ~for_:(Time.sec 3.);
  checki "delivered" 1 (TN.delivered net)

let partitioned_fails () =
  let _, net = make_net 4 in
  TN.connect net 0 1;
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 60.);
  checki "nothing delivered" 0 (TN.delivered net);
  checkb "drop recorded" true
    (List.mem_assoc "discovery-failed"
       (Experiment.Metrics.drops_by_reason (TN.metrics net)))

let repair_after_failure () =
  let _, net = make_net 5 in
  TN.connect_chain net [ 0; 1; 2 ];
  TN.connect_chain net [ 0; 3; 2 ];
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 2.);
  checki "first" 1 (TN.delivered net);
  TN.disconnect net 0 1;
  TN.disconnect net 1 2;
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 5.);
  checki "repaired" 2 (TN.delivered net)

let own_seqno_grows_with_discoveries () =
  (* The AODV pathology the paper plots in Fig. 7: every discovery bumps
     the originator's own number; breaks bump stored numbers. *)
  let _, net = make_net 3 in
  TN.connect_chain net [ 0; 1; 2 ];
  let before = (TN.agent net 0).Routing.Agent.own_seqno () in
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 2.);
  let after = (TN.agent net 0).Routing.Agent.own_seqno () in
  checkb "own sn bumped by discovery" true (after > before)

let stored_seqno_bumped_on_break () =
  let _, net = make_net 3 in
  TN.connect_chain net [ 0; 1; 2 ];
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 2.);
  checki "primed" 1 (TN.delivered net);
  (* Break 1-2; a forward attempt makes node 1 detect the break and
     increment its stored number for 2; its RERR reaches 0; the next
     RREQ demands a number only the destination can satisfy. *)
  TN.disconnect net 1 2;
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 10.);
  (* Reconnect: destination replies with its (bumped) number. *)
  TN.connect net 1 2;
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 10.);
  checkb "delivery resumed" true (TN.delivered net >= 2);
  let dest_sn = (TN.agent net 2).Routing.Agent.own_seqno () in
  checkb "destination number grew past initial" true (dest_sn >= 1.)

let reverse_route_built_by_rreq () =
  (* After 0 discovers 4, intermediate node 2 has a route back to 0
     (reverse path), shown by immediate reverse traffic needing no new
     discovery. *)
  let _, net = make_net 5 in
  TN.connect_chain net [ 0; 1; 2; 3; 4 ];
  TN.origin net ~src:0 ~dst:4;
  TN.run net ~for_:(Time.sec 2.);
  let rreqs = Experiment.Metrics.event_count (TN.metrics net) "rreq_init" in
  TN.origin net ~src:4 ~dst:0;
  TN.run net ~for_:(Time.sec 2.);
  checki "both delivered" 2 (TN.delivered net);
  let rreqs' = Experiment.Metrics.event_count (TN.metrics net) "rreq_init" in
  checki "reverse needed no new discovery" rreqs rreqs'

let expanding_ring_eventually_reaches () =
  (* Destination 6 hops away: the first small-TTL attempts fail but the
     search escalates and succeeds. *)
  let _, net = make_net 8 in
  TN.connect_chain net [ 0; 1; 2; 3; 4; 5; 6; 7 ];
  TN.origin net ~src:0 ~dst:7;
  TN.run net ~for_:(Time.sec 10.);
  checki "delivered across 7 hops" 1 (TN.delivered net);
  checkb "took multiple attempts" true
    (Experiment.Metrics.event_count (TN.metrics net) "rreq_init" >= 2)

let intermediate_node_replies () =
  let _, net = make_net ~seed:4 5 in
  TN.connect_chain net [ 0; 1; 2; 3 ];
  TN.connect net 4 1;
  (* Prime 1 with a fresh route to 3. *)
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 2.);
  let inits_before = Experiment.Metrics.event_count (TN.metrics net) "rrep_init" in
  (* 4 asks for 3; its TTL-1 ring reaches only node 1, which has a valid
     fresh route and answers without involving 3. *)
  TN.origin net ~src:4 ~dst:3;
  TN.run net ~for_:(Time.sec 3.);
  checki "delivered both" 2 (TN.delivered net);
  checkb "someone replied again" true
    (Experiment.Metrics.event_count (TN.metrics net) "rrep_init" > inits_before)

(* The test network keeps no transmission counts: each agent's
   [ctx.send] is wrapped to log the kind of every AODV message sent. *)
let make_logging_net k =
  let sent = ref [] in
  let logging (ctx : Routing.Agent.ctx) =
    let send ~dst p =
      (match p with
      | Payload.Aodv m -> sent := Aodv_msg.kind m :: !sent
      | _ -> ());
      ctx.send ~dst p
    in
    Aodv.factory () { ctx with send }
  in
  (TN.create ~seed:3 ~factory:logging ~n:k (), sent)

(* Breaks are found from link-layer feedback: the first packet over a
   dead link invalidates the route at the relay, and its RERR clears the
   origin's route. *)
let link_feedback_detects_break () =
  let net, sent = make_logging_net 3 in
  TN.connect_chain net [ 0; 1; 2 ];
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 2.);
  checki "primed" 1 (TN.delivered net);
  TN.disconnect net 1 2;
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.ms 500.);
  checkb "relay route gone" true ((TN.agent net 1).Routing.Agent.successor (n 2) = None);
  checkb "origin route gone" true ((TN.agent net 0).Routing.Agent.successor (n 2) = None);
  checkb "RERR sent" true (List.mem "RERR" !sent)

(* No periodic control: once a discovery is over, an idle network
   transmits nothing. *)
let idle_sends_no_control () =
  let net, sent = make_logging_net 3 in
  TN.connect_chain net [ 0; 1; 2 ];
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 2.);
  checki "delivered" 1 (TN.delivered net);
  let before = List.length !sent in
  checkb "discovery sent control" true (before > 0);
  TN.run net ~for_:(Time.sec 20.);
  checki "none while idle" before (List.length !sent)

(* A break on an idle route goes unnoticed — nothing probes the link —
   until the route times out: the destination's reply grants 6 s. *)
let silent_break_expires () =
  let _, net = make_net 3 in
  TN.connect_chain net [ 0; 1; 2 ];
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 2.);
  TN.disconnect net 1 2;
  TN.run net ~for_:(Time.sec 3.);
  checkb "stale relay route at 5 s" true
    ((TN.agent net 1).Routing.Agent.successor (n 2) = Some (n 2));
  checkb "stale origin route at 5 s" true
    ((TN.agent net 0).Routing.Agent.successor (n 2) = Some (n 1));
  TN.run net ~for_:(Time.sec 2.);
  checkb "relay route expired at 7 s" true
    ((TN.agent net 1).Routing.Agent.successor (n 2) = None);
  checkb "origin route expired at 7 s" true
    ((TN.agent net 0).Routing.Agent.successor (n 2) = None)

let loop_freedom_prop =
  QCheck.Test.make ~name:"AODV loop-free under random churn" ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let k = 7 in
      let net = TN.create ~seed ~factory:(Aodv.factory ()) ~n:k () in
      let rng = Rng.create (seed + 13) in
      for a = 0 to k - 1 do
        for b = a + 1 to k - 1 do
          if Rng.coin rng 0.4 then TN.connect net a b
        done
      done;
      let ok = ref true in
      for _ = 1 to 50 do
        (match Rng.int rng 4 with
        | 0 | 1 ->
            let s = Rng.int rng k in
            let d = (s + 1 + Rng.int rng (k - 1)) mod k in
            TN.origin net ~src:s ~dst:d
        | 2 ->
            let a = Rng.int rng k and b = Rng.int rng k in
            if a <> b then TN.connect net a b
        | _ ->
            let a = Rng.int rng k and b = Rng.int rng k in
            TN.disconnect net a b);
        TN.run net ~for_:(Time.ms (float_of_int (10 + Rng.int rng 500)));
        if TN.find_cycle net <> None then ok := false
      done;
      !ok)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "aodv"
    [
      ( "protocol",
        [
          Alcotest.test_case "discovery on chain" `Quick discovery_on_chain;
          Alcotest.test_case "partitioned fails" `Quick partitioned_fails;
          Alcotest.test_case "repair after failure" `Quick repair_after_failure;
          Alcotest.test_case "own seqno grows" `Quick own_seqno_grows_with_discoveries;
          Alcotest.test_case "stored seqno bump on break" `Quick
            stored_seqno_bumped_on_break;
          Alcotest.test_case "reverse route from rreq" `Quick
            reverse_route_built_by_rreq;
          Alcotest.test_case "expanding ring" `Quick expanding_ring_eventually_reaches;
          Alcotest.test_case "intermediate reply" `Quick intermediate_node_replies;
          Alcotest.test_case "data ttl" `Quick
            (Discovery_cases.ttl_guard (Aodv.factory ()));
          Alcotest.test_case "reset mid-discovery" `Quick
            (Discovery_cases.reset_mid_discovery (Aodv.factory ()));
          Alcotest.test_case "origin rescue" `Quick
            (Discovery_cases.origin_rescue (Aodv.factory ()));
          Alcotest.test_case "link feedback detects break" `Quick
            link_feedback_detects_break;
          Alcotest.test_case "idle sends no control" `Quick idle_sends_no_control;
          Alcotest.test_case "silent break expires" `Quick silent_break_expires;
          qt loop_freedom_prop;
        ] );
    ]
