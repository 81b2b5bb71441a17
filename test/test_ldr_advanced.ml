(* Deeper LDR scenarios: the N-bit reverse-path probe, optimization
   toggles, control-packet loss injection, engagement expiry, and
   sequence-number restamping. *)

open Ldr
open Sim
open Packets

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let n = Node_id.of_int

module TN = Graph_net

let make_net_debug ?(config = Config.default) ?(seed = 3) k =
  let debugs = Array.make k None in
  let factory (ctx : Routing.Agent.ctx) =
    let agent, dbg = Protocol.factory_with_debug ~config () ctx in
    debugs.(Node_id.to_int ctx.id) <- Some dbg;
    agent
  in
  let net = TN.create ~seed ~factory ~n:k () in
  (TN.engine net, net, fun i -> Option.get debugs.(i))

(* ---- N bit: reverse-path failure triggers an origin probe ------------- *)

let n_bit_probe_increments_origin () =
  let _, net, dbg = make_net_debug 3 in
  TN.connect_chain net [ 0; 1; 2 ];
  (* Prime relay 1 with stale-but-stronger invariants for ORIGIN 0, so the
     RREQ's advertisement for 0 is rejected (no reverse route) and the
     N bit must be set. *)
  let t1 = (dbg 1).Protocol.table in
  ignore
    (Route_table.apply_advert t1 ~dst:(n 0)
       ~adv_sn:{ Seqnum.stamp = 0; counter = 5 }
       ~adv_dist:0 ~via:(n 0) ~lifetime:(Time.sec 100.));
  Route_table.invalidate t1 (n 0);
  let origin_sn_before = Seqnum.increments ((dbg 0).Protocol.own_sn ()) in
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 3.);
  checki "data still delivered (replies use the RREQ cache)" 1
    (TN.delivered net);
  let origin_sn_after = Seqnum.increments ((dbg 0).Protocol.own_sn ()) in
  checkb "origin incremented its own number for the probe" true
    (origin_sn_after > origin_sn_before)

(* ---- multiple-RREPs toggle --------------------------------------------- *)

let single_rrep_without_optimization () =
  (* With the optimization off, an engaged node forwards at most one
     reply per computation, even if a stronger one follows. *)
  let config = { Config.default with opt_multiple_rreps = false } in
  let _, net, _ = make_net_debug ~config 6 in
  (* Diamond with one long and one short branch behind relay 1:
     0-1; 1-2-3-5 and 1-4-5: two replies will come back through 1. *)
  TN.connect_chain net [ 0; 1; 2; 3; 5 ];
  TN.connect_chain net [ 1; 4; 5 ];
  TN.origin net ~src:0 ~dst:5;
  TN.run net ~for_:(Time.sec 4.);
  checki "delivered regardless" 1 (TN.delivered net)

(* ---- Control-packet loss injection -------------------------------------- *)

let rrep_loss_recovers_via_retry () =
  (* Kill the reverse link right after the RREQ passes so the RREP is
     lost; the origin's attempt timer must fire and the retry (over a
     restored link) succeeds. *)
  let _, net, _ = make_net_debug 3 in
  TN.connect_chain net [ 0; 1; 2 ];
  TN.origin net ~src:0 ~dst:2;
  (* The flood leaves 0 immediately; cut 0-1 before the reply can return
     (reply takes >= 2 hops x 1 ms). *)
  TN.run net ~for_:(Time.us 1500.);
  TN.disconnect net 0 1;
  TN.run net ~for_:(Time.ms 50.);
  checki "reply lost" 0 (TN.delivered net);
  TN.connect net 0 1;
  (* The expanding-ring retry re-floods. *)
  TN.run net ~for_:(Time.sec 10.);
  checki "retry delivered" 1 (TN.delivered net)

let unicast_probe_failure_times_out () =
  (* A reset probe that cannot reach the destination must not wedge the
     origin: discovery fails cleanly after retries. *)
  let _, net, _ = make_net_debug 4 in
  TN.connect_chain net [ 0; 1; 2; 3 ];
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 2.);
  checki "primed" 1 (TN.delivered net);
  (* Partition the destination completely.  The first packet dies at the
     break point (link-failure drop); the RERR invalidates the origin's
     route, so the next packet triggers a discovery that must fail
     cleanly. *)
  TN.disconnect net 2 3;
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 5.);
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 120.);
  checki "no delivery" 1 (TN.delivered net);
  checkb "failure reported" true
    (List.mem_assoc "discovery-failed"
       (Experiment.Metrics.drops_by_reason (TN.metrics net)))

(* ---- Engagement bookkeeping ---------------------------------------------- *)

let duplicate_rreq_ignored () =
  (* Two copies of the same computation must engage a relay once: with a
     cycle in the topology, node 1 sees the flood twice. *)
  let _, net, _ = make_net_debug 4 in
  TN.connect net 0 1;
  TN.connect net 0 2;
  TN.connect net 1 2;
  TN.connect net 1 3;
  TN.connect net 2 3;
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 3.);
  checki "exactly one unique delivery" 1 (TN.delivered net)

let relay_own_flood_ignored () =
  (* The origin must ignore echoes of its own solicitation. *)
  let _, net, dbg = make_net_debug 3 in
  TN.connect net 0 1;
  TN.connect net 1 0;
  TN.connect net 1 2;
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 3.);
  checki "delivered" 1 (TN.delivered net);
  checki "origin has no pending discovery left" 0
    (List.length ((dbg 0).Protocol.pending_discoveries ()))

let reengagement_forgets_relayed_reply () =
  (* Relay 5 engages in computation (0, 1) from hop 1 and relays a reply
     for it.  Once the engagement has expired, the same computation
     reaches it again from hop 2: the same reply must now be relayed to
     hop 2, as if nothing had been relayed before.  The request asks for
     the reply's own number at answer distance 0, so the relay cannot
     answer it itself. *)
  let engine = Engine.create () in
  let sent = ref [] in
  let ctx =
    {
      (Graph_net.null_ctx ~id:5 engine) with
      Routing.Agent.send = (fun ~dst p -> sent := (dst, p) :: !sent);
    }
  in
  let agent = Protocol.factory () ctx in
  let sn = Seqnum.initial ~stamp:0 in
  let rreq =
    Payload.Ldr
      (Ldr_msg.Rreq
         {
           Ldr_msg.dst = n 9;
           dst_sn = Some sn;
           rreq_id = 1;
           origin = n 0;
           origin_sn = Seqnum.initial ~stamp:0;
           fd = Conditions.infinity;
           answer_dist = 0;
           dist = 1;
           ttl = 5;
           reset = false;
           no_reverse = false;
           unicast_probe = false;
         })
  in
  let rrep =
    Payload.Ldr
      (Ldr_msg.Rrep
         {
           Ldr_msg.dst = n 9;
           dst_sn = sn;
           origin = n 0;
           rreq_id = 1;
           dist = 2;
           lifetime = Time.sec 10.;
           rrep_no_reverse = false;
         })
  in
  let replies_to hop =
    List.length
      (List.filter
         (function
           | dst, Payload.Ldr (Ldr_msg.Rrep _) -> dst = Net.Frame.unicast (n hop)
           | _ -> false)
         !sent)
  in
  let at s f = ignore (Engine.at engine (Time.sec s) f) in
  at 0. (fun () -> agent.recv rreq ~from:(n 1));
  at 5. (fun () -> agent.recv rrep ~from:(n 7));
  at 6.5 (fun () -> agent.recv rreq ~from:(n 2));
  at 6.6 (fun () -> agent.recv rrep ~from:(n 7));
  Engine.run ~until:(Time.sec 7.) engine;
  checki "first engagement: reply relayed to hop 1" 1 (replies_to 1);
  checki "re-engagement: the same reply relayed to hop 2" 1 (replies_to 2)

(* ---- Sequence number restamping ------------------------------------------ *)

let seqnum_restamp_through_agent () =
  (* With a tiny counter limit, repeated resets force the destination to
     restamp from the virtual clock; numbers keep increasing. *)
  let config = { Config.default with seqnum_counter_limit = 1 } in
  let _, net, dbg = make_net_debug ~config 3 in
  TN.connect_chain net [ 0; 1; 2 ];
  let last = ref ((dbg 2).Protocol.own_sn ()) in
  (* Alternate breaks that force resets: shrink fd via direct link then
     break it, repeatedly. *)
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 2.);
  for _ = 1 to 3 do
    TN.connect net 0 2;
    TN.disconnect net 0 1;
    TN.origin net ~src:0 ~dst:2;
    TN.run net ~for_:(Time.sec 3.);
    TN.connect net 0 1;
    TN.disconnect net 0 2;
    TN.origin net ~src:0 ~dst:2;
    TN.run net ~for_:(Time.sec 4.);
    let cur = (dbg 2).Protocol.own_sn () in
    checkb "monotone across restamps" true Seqnum.(cur >= !last);
    last := cur
  done;
  checkb "counter stayed within the tiny limit" true
    (((dbg 2).Protocol.own_sn ()).Seqnum.counter <= 1)

(* ---- Data-plane edge cases ------------------------------------------------ *)

let self_addressed_data_delivers_locally () =
  let _, net, _ = make_net_debug 2 in
  TN.connect net 0 1;
  TN.origin net ~src:0 ~dst:0;
  TN.run net ~for_:(Time.ms 10.);
  checki "looped back locally" 1 (TN.delivered net)

let burst_respects_buffer_capacity () =
  let _, net, _ = make_net_debug 3 in
  TN.connect_chain net [ 0; 1; 2 ];
  (* 64 + 4 packets before any route: the origin buffers 64, so the 4
     oldest are evicted and the evictions must be reported. *)
  for _ = 1 to 64 + 4 do
    TN.origin net ~src:0 ~dst:2
  done;
  TN.run net ~for_:(Time.sec 3.);
  let m = TN.metrics net in
  let evicted =
    match List.assoc_opt "buffer-evicted" (Experiment.Metrics.drops_by_reason m) with
    | Some k -> k
    | None -> 0
  in
  checki "evictions reported" 4 evicted;
  checki "survivors delivered" 64 (TN.delivered net)

let expired_route_triggers_rediscovery () =
  let _, net, _ = make_net_debug 3 in
  TN.connect_chain net [ 0; 1; 2 ];
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 5.);
  checki "first delivered" 1 (TN.delivered net);
  let rreqs_before = Experiment.Metrics.event_count (TN.metrics net) "rreq_init" in
  (* Idle past the route's lifetime (the destination advertises 6 s,
     forwarding refreshes it to 3 s ahead): the next packet needs a
     fresh discovery. *)
  TN.run net ~for_:(Time.sec 5.);
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 5.);
  checki "second delivered" 2 (TN.delivered net);
  checkb "rediscovered after expiry" true
    (Experiment.Metrics.event_count (TN.metrics net) "rreq_init" > rreqs_before)

let () =
  Alcotest.run "ldr-advanced"
    [
      ( "reset-machinery",
        [
          Alcotest.test_case "N-bit probe" `Quick n_bit_probe_increments_origin;
          Alcotest.test_case "single rrep without opt" `Quick
            single_rrep_without_optimization;
          Alcotest.test_case "seqnum restamping" `Quick seqnum_restamp_through_agent;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "rrep loss retried" `Quick rrep_loss_recovers_via_retry;
          Alcotest.test_case "probe failure times out" `Quick
            unicast_probe_failure_times_out;
        ] );
      ( "bookkeeping",
        [
          Alcotest.test_case "duplicate rreq ignored" `Quick duplicate_rreq_ignored;
          Alcotest.test_case "own flood ignored" `Quick relay_own_flood_ignored;
          Alcotest.test_case "re-engagement forgets relayed replies" `Quick
            reengagement_forgets_relayed_reply;
          Alcotest.test_case "self-addressed data" `Quick
            self_addressed_data_delivers_locally;
          Alcotest.test_case "buffer capacity" `Quick burst_respects_buffer_capacity;
          Alcotest.test_case "expiry rediscovery" `Quick
            expired_route_triggers_rediscovery;
        ] );
    ]
