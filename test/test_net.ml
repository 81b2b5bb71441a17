(* Tests for the radio channel and the CSMA/CA MAC. *)

open Sim
open Packets

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let n = Node_id.of_int

let data_payload ?(bytes = 512) ~src ~dst () =
  Payload.Data
    (Data_msg.fresh ~flow_id:0 ~seq:0 ~src:(n src) ~dst:(n dst)
       ~payload_bytes:bytes ~origin_time:Time.zero)

(* A channel over the given mobility processes, node [i] in store
   slot [i]. *)
let store_channel ?(params = Net.Params.default) engine mobs =
  let store = Mobility.Pos_store.of_array (Array.of_list mobs) ~at:Time.zero in
  ( store,
    Net.Channel.create ~engine ~store
      ~terrain:(Geom.Terrain.create ~width:3000. ~height:1000.)
      ~params () )

(* A small rig: static nodes at given positions, MACs with recording
   callbacks. *)
type node_rig = {
  mac : Net.Mac.t;
  received : (Payload.t * Node_id.t) list ref;
  overheard : int ref;
  failures : (Payload.t * Node_id.t) list ref;
}

let rig ?(params = Net.Params.default) positions =
  let engine = Engine.create () in
  let _, channel =
    store_channel ~params engine (List.map Mobility.static positions)
  in
  let nodes =
    List.mapi
      (fun i _ ->
        let received = ref [] and overheard = ref 0 and failures = ref [] in
        let mac =
          Net.Mac.create ~engine ~channel ~rng:(Rng.create (100 + i)) ~id:(n i)
            ~slot:i
            {
              Net.Mac.receive =
                (fun p ~from -> received := (p, from) :: !received);
              promiscuous = Some (fun _ ~from:_ ~dst:_ -> incr overheard);
              link_failure =
                (fun p ~next_hop -> failures := (p, next_hop) :: !failures);
            }
        in
        { mac; received; overheard; failures })
      positions
  in
  (engine, channel, Array.of_list nodes)

(* Frames put on the air from now on: by node [src], or by anyone. *)
let on_air ?src channel =
  let count = ref 0 in
  Net.Channel.add_transmit_hook channel (fun id _ ->
      match src with
      | Some s when Node_id.to_int id <> s -> ()
      | Some _ | None -> incr count);
  count

let v = Geom.Vec2.v

(* ---- Ifq ------------------------------------------------------------- *)

let ifq_fifo () =
  let q = Net.Ifq.create ~capacity:3 ~empty:0 in
  checkb "push1" true (Net.Ifq.push q 1);
  checkb "push2" true (Net.Ifq.push q 2);
  checki "len" 2 (Net.Ifq.length q);
  checki "pop order" 1 (Net.Ifq.pop q);
  checki "pop order 2" 2 (Net.Ifq.pop q);
  checkb "empty" true (Net.Ifq.is_empty q);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Ifq.pop: empty queue")
    (fun () -> ignore (Net.Ifq.pop q))

let ifq_drops_when_full () =
  let q = Net.Ifq.create ~capacity:2 ~empty:0 in
  ignore (Net.Ifq.push q 1);
  ignore (Net.Ifq.push q 2);
  checkb "rejected" false (Net.Ifq.push q 3);
  checki "drop counted" 1 (Net.Ifq.drops q);
  checki "len still 2" 2 (Net.Ifq.length q)

(* Neither a popped nor a cleared element stays reachable from the
   queue: its slot is overwritten with the [empty] sentinel. *)
let ifq_releases () =
  let q = Net.Ifq.create ~capacity:2 ~empty:(ref 0) in
  let w = Weak.create 2 in
  let fill () =
    let a = ref 1 and b = ref 2 in
    Weak.set w 0 (Some a);
    Weak.set w 1 (Some b);
    ignore (Net.Ifq.push q a);
    ignore (Net.Ifq.push q b);
    ignore (Sys.opaque_identity (Net.Ifq.pop q))
  in
  fill ();
  Gc.full_major ();
  checkb "popped element released" false (Weak.check w 0);
  checkb "queued element kept" true (Weak.check w 1);
  Net.Ifq.clear q;
  Gc.full_major ();
  checkb "cleared element released" false (Weak.check w 1)

(* ---- Params ----------------------------------------------------------- *)

let airtime_sanity () =
  (* 512+20 byte payload + 34B MAC overhead at 2 Mbps + 192us preamble. *)
  let t = Net.Params.frame_airtime ~bytes:(532 + Wire.Mac.data_overhead) in
  let expect_us = 192. +. (566. *. 8. /. 2.) in
  checkb "data airtime" true (abs_float (Time.to_us t -. expect_us) < 1.);
  checkb "ack shorter" true Time.(Net.Params.ack_airtime < t);
  checkb "ack timeout covers ack" true
    Time.(Net.Params.ack_timeout > Net.Params.ack_airtime)

(* ---- Channel / MAC ----------------------------------------------------- *)

let unicast_delivery_and_ack () =
  let engine, channel, nodes = rig [ v 0. 0.; v 100. 0. ] in
  let sent = on_air ~src:0 channel in
  let p = data_payload ~src:0 ~dst:1 () in
  Net.Mac.send nodes.(0).mac ~dst:(Net.Frame.unicast (n 1)) p;
  Engine.run ~until:(Time.ms 100.) engine;
  checki "delivered once" 1 (List.length !(nodes.(1).received));
  checki "no failures" 0 (List.length !(nodes.(0).failures));
  checki "sender sent one frame" 1 !sent

let unicast_out_of_range_fails () =
  let engine, channel, nodes = rig [ v 0. 0.; v 1000. 0. ] in
  let sent = on_air ~src:0 channel in
  let p = data_payload ~src:0 ~dst:1 () in
  Net.Mac.send nodes.(0).mac ~dst:(Net.Frame.unicast (n 1)) p;
  Engine.run ~until:(Time.sec 2.) engine;
  checki "nothing delivered" 0 (List.length !(nodes.(1).received));
  (match !(nodes.(0).failures) with
  | [ (_, nh) ] -> checkb "failure names next hop" true (Node_id.equal nh (n 1))
  | other -> Alcotest.failf "expected 1 failure, got %d" (List.length other));
  (* All retry attempts were spent. *)
  checki "retry limit attempts" Net.Mac.retry_limit !sent;
  checki "failure gauge" 1 (Net.Mac.unicast_failures nodes.(0).mac)

let broadcast_reaches_neighbors_only () =
  let engine, _, nodes = rig [ v 0. 0.; v 200. 0.; v 260. 0.; v 900. 0. ] in
  let p = data_payload ~src:0 ~dst:3 () in
  Net.Mac.send nodes.(0).mac ~dst:Net.Frame.broadcast p;
  Engine.run ~until:(Time.ms 100.) engine;
  checki "node1 in range" 1 (List.length !(nodes.(1).received));
  checki "node2 in range" 1 (List.length !(nodes.(2).received));
  checki "node3 out of range" 0 (List.length !(nodes.(3).received))

let promiscuous_overhears () =
  (* Node 2 is within range of node 0's unicast to node 1. *)
  let engine, _, nodes = rig [ v 0. 0.; v 100. 0.; v 150. 0. ] in
  Net.Mac.send nodes.(0).mac ~dst:(Net.Frame.unicast (n 1))
    (data_payload ~src:0 ~dst:1 ());
  Engine.run ~until:(Time.ms 100.) engine;
  checki "node1 received" 1 (List.length !(nodes.(1).received));
  checkb "node2 overheard" true (!(nodes.(2).overheard) >= 1);
  checki "node2 did not 'receive'" 0 (List.length !(nodes.(2).received))

let queue_serializes () =
  let engine, _, nodes = rig [ v 0. 0.; v 100. 0. ] in
  for _ = 1 to 5 do
    Net.Mac.send nodes.(0).mac ~dst:(Net.Frame.unicast (n 1))
      (data_payload ~src:0 ~dst:1 ())
  done;
  Engine.run ~until:(Time.sec 1.) engine;
  checki "all five delivered" 5 (List.length !(nodes.(1).received))

let ifq_overflow_drops () =
  let params = { Net.Params.default with ifq_capacity = 3 } in
  let engine, _, nodes = rig ~params [ v 0. 0.; v 100. 0. ] in
  for _ = 1 to 10 do
    Net.Mac.send nodes.(0).mac ~dst:(Net.Frame.unicast (n 1))
      (data_payload ~src:0 ~dst:1 ())
  done;
  Engine.run ~until:(Time.sec 1.) engine;
  checkb "some drops" true (Net.Mac.queue_drops nodes.(0).mac > 0);
  checkb "some delivered" true (List.length !(nodes.(1).received) >= 3)

let hidden_terminal_collision () =
  (* 0 and 2 are mutually out of carrier-sense range but both reach 1:
     simultaneous sends collide at 1 (capture cannot save two
     equidistant transmitters). *)
  let params = { Net.Params.default with cs_range_m = 275. } in
  let engine, _, nodes = rig ~params [ v 0. 0.; v 250. 0.; v 500. 0. ] in
  Net.Mac.send nodes.(0).mac ~dst:Net.Frame.broadcast (data_payload ~src:0 ~dst:1 ());
  Net.Mac.send nodes.(2).mac ~dst:Net.Frame.broadcast (data_payload ~src:2 ~dst:1 ());
  (* Run only briefly: broadcasts have no retry, overlapping frames are
     both lost at node 1. *)
  Engine.run ~until:(Time.ms 50.) engine;
  checki "collision at the middle node" 0 (List.length !(nodes.(1).received))

let capture_effect_saves_near_frame () =
  (* Same hidden-terminal setup but the wanted transmitter is much closer
     than the interferer: the near frame survives. *)
  let params = { Net.Params.default with cs_range_m = 275. } in
  let engine, _, nodes = rig ~params [ v 0. 0.; v 50. 0.; v 500. 0. ] in
  Net.Mac.send nodes.(0).mac ~dst:Net.Frame.broadcast (data_payload ~src:0 ~dst:1 ());
  Net.Mac.send nodes.(2).mac ~dst:Net.Frame.broadcast (data_payload ~src:2 ~dst:1 ());
  Engine.run ~until:(Time.ms 50.) engine;
  checki "near frame captured" 1 (List.length !(nodes.(1).received))

let carrier_sense_defers () =
  (* Nodes 0 and 2 both in CS range of each other; both flood: the second
     defers and both frames get through to node 1 (no collision). *)
  let engine, _, nodes = rig [ v 0. 0.; v 100. 0.; v 200. 0. ] in
  Net.Mac.send nodes.(0).mac ~dst:Net.Frame.broadcast (data_payload ~src:0 ~dst:1 ());
  Net.Mac.send nodes.(2).mac ~dst:Net.Frame.broadcast (data_payload ~src:2 ~dst:1 ());
  Engine.run ~until:(Time.ms 100.) engine;
  checki "both delivered" 2 (List.length !(nodes.(1).received))

let transmit_hook_counts () =
  let engine, channel, nodes = rig [ v 0. 0.; v 100. 0. ] in
  let count = ref 0 in
  Net.Channel.add_transmit_hook channel (fun _ _ -> incr count);
  Net.Mac.send nodes.(0).mac ~dst:(Net.Frame.unicast (n 1))
    (data_payload ~src:0 ~dst:1 ());
  Engine.run ~until:(Time.ms 100.) engine;
  (* Data frame + ACK. *)
  checki "hook saw data+ack" 2 !count

let neighbors_in_range_query () =
  let _, channel, nodes = rig [ v 0. 0.; v 100. 0.; v 1000. 0. ] in
  let neigh = Net.Channel.fanout channel (Net.Mac.radio nodes.(0).mac) in
  checki "one neighbor" 1 (List.length neigh);
  checkb "it is node 1" true (List.exists (Node_id.equal (n 1)) neigh)

let duplicate_on_lost_ack () =
  (* Force an ACK loss via an interferer placed so that it is hidden from
     the receiver's ACK... simpler: out-of-range unicast triggers
     repeated data transmissions from the sender. *)
  let engine, channel, nodes = rig [ v 0. 0.; v 1000. 0. ] in
  let sent = on_air ~src:0 channel in
  Net.Mac.send nodes.(0).mac ~dst:(Net.Frame.unicast (n 1))
    (data_payload ~src:0 ~dst:1 ());
  Engine.run ~until:(Time.sec 2.) engine;
  checkb "retransmissions happened" true (!sent > 1)

let broadcast_no_retry () =
  let engine, channel, nodes = rig [ v 0. 0.; v 1000. 0. ] in
  let sent = on_air ~src:0 channel in
  Net.Mac.send nodes.(0).mac ~dst:Net.Frame.broadcast (data_payload ~src:0 ~dst:1 ());
  Engine.run ~until:(Time.sec 2.) engine;
  checki "single attempt" 1 !sent;
  checki "no failure callback" 0 (List.length !(nodes.(0).failures))

let mobility_breaks_link () =
  (* A node walking out of range: early unicasts succeed, later ones
     fail — the store refreshes the walker's position live, and its
     scripted speed ages the neighbour lists as it crosses cells. *)
  let engine = Engine.create () in
  let walker =
    Mobility.scripted
      [ (Time.sec 0., v 100. 0.); (Time.sec 10., v 2000. 0.) ]
  in
  let _, channel = store_channel engine [ Mobility.static (v 0. 0.); walker ] in
  let delivered = ref 0 and failed = ref 0 in
  let mk id cb =
    Net.Mac.create ~engine ~channel ~rng:(Rng.create id) ~id:(n id) ~slot:id cb
  in
  let cb_recv =
    {
      Net.Mac.receive = (fun _ ~from:_ -> incr delivered);
      promiscuous = None;
      link_failure = (fun _ ~next_hop:_ -> ());
    }
  in
  let cb_send =
    {
      Net.Mac.receive = (fun _ ~from:_ -> ());
      promiscuous = None;
      link_failure = (fun _ ~next_hop:_ -> incr failed);
    }
  in
  let sender = mk 0 cb_send in
  let _receiver = mk 1 cb_recv in
  (* One packet per second for 10 s; the walker passes 275 m before 1 s
     (190 m/s) — only the immediate sends can arrive. *)
  for i = 0 to 9 do
    ignore
      (Engine.at engine (Time.sec (float_of_int i)) (fun () ->
           Net.Mac.send sender ~dst:(Net.Frame.unicast (n 1))
             (data_payload ~src:0 ~dst:1 ())))
  done;
  Engine.run ~until:(Time.sec 15.) engine;
  checkb "early delivery happened" true (!delivered >= 1);
  checkb "later sends failed" true (!failed >= 5);
  (* Boundary packets may both deliver and report failure (lost ACK), so
     the sum is at least the number of sends. *)
  checkb "every send accounted" true (!delivered + !failed >= 10)

(* Churn power toggle: one [set_down] call takes the radio off the
   channel and silences the MAC; powering up restores a working link. *)
let mac_power_toggle () =
  let engine, channel, nodes = rig [ v 0. 0.; v 100. 0.; v 2000. 0. ] in
  let mac0 = nodes.(0).mac in
  let sent = on_air ~src:0 channel and total = on_air channel in
  let pending () = (Engine.stats engine).Engine.pending in
  let neighbours_of_1 () =
    List.map Node_id.to_int
      (Net.Channel.fanout channel (Net.Mac.radio nodes.(1).mac))
  in
  (* Node 2 is out of range: a unicast to it is never acknowledged. *)
  let send dst =
    Net.Mac.send mac0 ~dst:(Net.Frame.unicast (n dst))
      (data_payload ~src:0 ~dst ())
  in
  Alcotest.(check (list int)) "up: a neighbour" [ 0 ] (neighbours_of_1 ());
  send 2;
  checki "access timer armed" 1 (pending ());
  Net.Mac.set_down mac0 true;
  checki "access timer cancelled" 0 (pending ());
  checkb "down" true (Net.Mac.is_down mac0);
  Alcotest.(check (list int)) "down: not a neighbour" [] (neighbours_of_1 ());
  for _ = 1 to Net.Params.default.ifq_capacity + 5 do
    send 1
  done;
  checki "sends not queued" 0 (Net.Mac.queue_length mac0);
  checki "sends not counted as ifq drops" 0 (Net.Mac.queue_drops mac0);
  Engine.run ~until:(Time.ms 100.) engine;
  checki "nothing on the air" 0 !total;
  Net.Mac.set_down mac0 false;
  Alcotest.(check (list int)) "up again: a neighbour" [ 0 ] (neighbours_of_1 ());
  (* Put the unacknowledged unicast on the air; once its transmission
     ends, the ACK timer is the only pending event. *)
  send 2;
  while !sent = 0 do
    ignore (Engine.step engine)
  done;
  ignore (Engine.step engine);
  ignore (Engine.step engine);
  checki "ack timer armed" 1 (pending ());
  Net.Mac.set_down mac0 true;
  checki "ack timer cancelled" 0 (pending ());
  Net.Mac.set_down mac0 false;
  send 1;
  Engine.run ~until:(Time.ms 200.) engine;
  checki "delivered after power-up" 1 (List.length !(nodes.(1).received));
  checki "acked first time" 2 !sent;
  checki "no link failure" 0 (List.length !(nodes.(0).failures));
  checki "data + ack + earlier data" 3 !total

(* ---- Neighbour lists vs. brute-force oracle ---------------------------- *)

(* The neighbour lists must be an invisible optimisation: at every
   transmission of a full run the channel touches exactly the radios a
   brute-force scan over every radio finds, in the same order
   ([Naive_medium]).  Arming the oracle must not perturb the run either:
   its outcome equals the plain run's, down to every counter. *)
let grid_matches_naive_channel () =
  let open Experiment in
  List.iter
    (fun seed ->
      let sc =
        Scenario.paper_100 Scenario.ldr
        |> Scenario.with_duration (Time.sec 12.)
        |> Scenario.with_seed seed
      in
      let checked = ref 0 in
      let oracle = Runner.run ~prepare:(Naive_medium.arm_sim ~checked) sc in
      let plain = Runner.run sc in
      let ctx = Printf.sprintf "seed %d" seed in
      checki (ctx ^ ": oracle checked every transmission")
        oracle.Runner.transmissions !checked;
      checkb (ctx ^ ": summary identical") true
        (Stdlib.compare oracle.Runner.summary plain.Runner.summary = 0);
      checki (ctx ^ ": events") oracle.Runner.events_processed
        plain.Runner.events_processed;
      checki (ctx ^ ": transmissions") oracle.Runner.transmissions
        plain.Runner.transmissions;
      checki (ctx ^ ": queue drops") oracle.Runner.mac_queue_drops
        plain.Runner.mac_queue_drops;
      checki (ctx ^ ": unicast failures") oracle.Runner.mac_unicast_failures
        plain.Runner.mac_unicast_failures;
      checkb (ctx ^ ": control kinds identical") true
        (Metrics.control_by_kind oracle.Runner.metrics
        = Metrics.control_by_kind plain.Runner.metrics);
      checkb (ctx ^ ": drop reasons identical") true
        (Metrics.drops_by_reason oracle.Runner.metrics
        = Metrics.drops_by_reason plain.Runner.metrics);
      checki (ctx ^ ": delivered") (Metrics.delivered oracle.Runner.metrics)
        (Metrics.delivered plain.Runner.metrics))
    [ 1; 42 ]

let no_callbacks =
  {
    Net.Mac.receive = (fun _ ~from:_ -> ());
    promiscuous = None;
    link_failure = (fun _ ~next_hop:_ -> ());
  }

let grid_neighbors_match_naive () =
  (* A static layout: every radio's fan-out equals the brute-force one,
     queried directly and again (by the armed oracle) when it
     broadcasts. *)
  let layout = [ v 0. 0.; v 100. 0.; v 260. 0.; v 400. 50.; v 900. 0. ] in
  let engine = Engine.create () in
  let store, channel = store_channel engine (List.map Mobility.static layout) in
  let macs =
    Array.of_list
      (List.mapi
         (fun i _ ->
           Net.Mac.create ~engine ~channel ~rng:(Rng.create (100 + i))
             ~id:(n i) ~slot:i no_callbacks)
         layout)
  in
  let oracle =
    Naive_medium.create ~engine ~store channel (Array.map Net.Mac.radio macs)
  in
  let checked = ref 0 in
  Naive_medium.arm ~checked oracle channel;
  Array.iteri
    (fun i mac ->
      checkb
        (Printf.sprintf "node %d fan-out identical" i)
        true
        (List.map Node_id.to_int
           (Net.Channel.fanout channel (Net.Mac.radio mac))
        = Naive_medium.fanout oracle i);
      Net.Mac.send mac ~dst:Net.Frame.broadcast (data_payload ~src:i ~dst:0 ()))
    macs;
  Engine.run ~until:(Time.ms 100.) engine;
  checki "every broadcast checked" (Array.length macs) !checked

(* Random static layouts, with coordinates often on index cell borders
   (multiples of the 275 m cell side) or on the arena's edges: every
   radio's fan-out, from the neighbour list the channel's cell walk
   builds, equals the brute-force scan's. *)
let fanout_matches_naive_prop =
  QCheck.Test.make ~name:"fan-out matches naive on random layouts" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 1) in
      let coord hi =
        match Rng.int rng 4 with
        | 0 -> 275. *. float_of_int (Rng.int rng (int_of_float (hi /. 275.) + 1))
        | 1 -> if Rng.int rng 2 = 0 then 0. else hi
        | _ -> Rng.float rng hi
      in
      let layout =
        List.init 30 (fun _ -> v (coord 3000.) (coord 1000.))
      in
      let engine = Engine.create () in
      let store, channel =
        store_channel engine (List.map Mobility.static layout)
      in
      let radios =
        Array.of_list
          (List.mapi
             (fun i _ -> Net.Channel.attach channel ~slot:i ~id:(n i))
             layout)
      in
      let oracle = Naive_medium.create ~engine ~store channel radios in
      Array.for_all Fun.id
        (Array.mapi
           (fun i r ->
             List.map Node_id.to_int (Net.Channel.fanout channel r)
             = Naive_medium.fanout oracle i)
           radios))

(* Receivers at slots 0..5 sit left to right across three grid cells
   (cell side = cs range / 2 = 275 m), all within decode range of the
   source in slot 6.  Attaching in slot order makes the rebuild's cells
   hold receivers in ascending attach order — the reverse of the
   delivery order, which the source's neighbour list must hold. *)
let fanout_layout =
  List.map
    (fun x -> v x 100.)
    [ 120.; 200.; 260.; 400.; 480.; 560.; 340. ]

let ack_frame src = Net.Frame.Ack { src = n src; dst = Net.Frame.broadcast }

(* Transmit once from the last radio and log every callback as
   (radio, event) in firing order. *)
let fanout_log channel engine =
  let log = ref [] in
  let radios =
    List.mapi
      (fun i _ ->
        let r = Net.Channel.attach channel ~slot:i ~id:(n i) in
        Net.Channel.set_medium_listener r (fun busy ->
            log := (i, if busy then "busy" else "idle") :: !log);
        Net.Channel.set_receiver r ~overhear:true (fun _ ->
            log := (i, "rx") :: !log);
        r)
      fanout_layout
  in
  let src = List.nth radios 6 in
  let fanout = List.map Node_id.to_int (Net.Channel.fanout channel src) in
  Net.Channel.transmit channel src (ack_frame 6) ~duration:(Time.ms 1.);
  Engine.run ~until:(Time.ms 5.) engine;
  (fanout, Array.of_list radios, List.rev !log)

let fanout_order_matches_naive () =
  let engine = Engine.create () in
  let store, channel =
    store_channel engine (List.map Mobility.static fanout_layout)
  in
  let fanout, radios, store_log = fanout_log channel engine in
  let oracle = Naive_medium.create ~engine ~store channel radios in
  let receivers ev log =
    List.filter_map
      (fun (i, e) -> if e = ev && i <> 6 then Some i else None)
      log
  in
  let descending = [ 5; 4; 3; 2; 1; 0 ] in
  checkb "busy in descending attach order" true
    (receivers "busy" store_log = descending);
  checkb "idle in descending attach order" true
    (receivers "idle" store_log = descending);
  checkb "rx in descending attach order" true
    (receivers "rx" store_log = descending);
  checkb "fan-out in descending attach order" true (fanout = descending);
  checkb "fan-out identical to brute force" true
    (fanout = Naive_medium.fanout oracle 6)

(* ---- Neighbour lists and carrier-sense gating ------------------------- *)

(* Re-attach: A's neighbour list is built while B is detached.  A
   static layout never expires a list by age, so the list must name B
   anyway: after B's re-attach, A's next transmission touches B again,
   exactly as the brute-force scan finds. *)
let reattach_refreshes_lists () =
  let layout = [ v 100. 100.; v 300. 100.; v 500. 100. ] in
  let engine = Engine.create () in
  let store, channel = store_channel engine (List.map Mobility.static layout) in
  let radios =
    Array.of_list
      (List.mapi (fun i _ -> Net.Channel.attach channel ~slot:i ~id:(n i)) layout)
  in
  let oracle = Naive_medium.create ~engine ~store channel radios in
  let checked = ref 0 in
  Naive_medium.arm ~checked oracle channel;
  let a = radios.(0) and b = radios.(1) in
  let fanout_a () = List.map Node_id.to_int (Net.Channel.fanout channel a) in
  let tx_a () =
    Net.Channel.transmit channel a (ack_frame 0) ~duration:(Time.ms 1.);
    Engine.run ~until:(Time.add (Engine.now engine) (Time.ms 5.)) engine
  in
  Net.Channel.set_attached channel b false;
  tx_a ();
  Alcotest.(check (list int)) "B detached: not touched" [ 2 ] (fanout_a ());
  Net.Channel.set_attached channel b true;
  Alcotest.(check (list int)) "B re-attached: touched" [ 2; 1 ] (fanout_a ());
  tx_a ();
  Alcotest.(check (list int))
    "brute force agrees" (Naive_medium.fanout oracle 0) (fanout_a ());
  checki "both transmissions checked" 2 !checked

(* Random mobile layouts: radios on random waypoints at up to 30 m/s,
   dense enough that many pairs sit near the neighbour-list radius.  At
   random instants over several seconds, every radio's fan-out equals
   the brute-force scan's, so a list is never used after it may have
   gone stale.  Instants come a few hundred ms apart, so lists are both
   reused and expired, and between instants a few radios detach or
   re-attach at random, so lists built with a radio down are read after
   it comes back up.  Only attached radios are asked, as only they
   transmit. *)
let list_expiry_prop =
  QCheck.Test.make ~name:"fan-out matches naive as lists age" ~count:40
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 1) in
      let vmax = 5. +. Rng.float rng 25. in
      let k = 24 in
      let terrain = Geom.Terrain.create ~width:1600. ~height:700. in
      let mobs =
        Array.init k (fun i ->
            Mobility.waypoint ~terrain ~rng:(Rng.stream rng i)
              ~speed_min:(vmax /. 2.) ~speed_max:vmax ~pause:Time.zero
              ~start:(Geom.Terrain.random_point terrain rng))
      in
      let engine = Engine.create () in
      let store = Mobility.Pos_store.of_array mobs ~at:Time.zero in
      let c =
        Net.Channel.create ~engine ~store ~terrain ~params:Net.Params.default
          ()
      in
      let radios =
        Array.init k (fun i -> Net.Channel.attach c ~slot:i ~id:(n i))
      in
      let oracle = Naive_medium.create ~engine ~store c radios in
      let ok = ref true and at = ref Time.zero in
      for _ = 1 to 30 do
        at := Time.add !at (Time.ms (Rng.float rng 400.));
        Engine.run ~until:!at engine;
        for _ = 1 to Rng.int rng 4 do
          let r = radios.(Rng.int rng k) in
          Net.Channel.set_attached c r (not (Net.Channel.attached c r))
        done;
        Array.iteri
          (fun i r ->
            if Net.Channel.attached c r then begin
              let got = List.map Node_id.to_int (Net.Channel.fanout c r) in
              if got <> Naive_medium.fanout oracle i then ok := false
            end)
          radios
      done;
      !ok)

(* The one-pass classification against an all-exact reference
   ([Naive_medium.transmit_checked]): 40 radios on the Fig-5 field
   (1500 x 300 m, so carrier sense spans most of it and decode range
   does not), moving by random waypoint at pause 0, on a Manhattan
   lattice, in RPGM groups, or by random waypoint with radios detaching
   and re-attaching between transmissions.  Transmissions start from
   random idle attached radios, often overlapping, sometimes after a
   long silence so cached positions are seconds old; after each one,
   every radio's receptions in the air (touched set and order, decode
   range, lock and corruption), transmitting and busy equal the
   reference's.  Starts fall on even and airtime ends on odd
   nanoseconds, so no start coincides with an end.  The run must also
   leave touched radios unrefreshed, or the bound was never used. *)
let classification_matches_exact () =
  let terrain = Geom.Terrain.create ~width:1500. ~height:300. in
  let families = [ "waypoint"; "manhattan"; "rpgm"; "churn" ] in
  List.iter
    (fun family ->
      List.iter
        (fun seed ->
          let rng = Rng.create (seed + 1) in
          let k = 40 in
          let point () = Geom.Terrain.random_point terrain rng in
          let groups =
            Array.init (k / 4) (fun j ->
                Mobility.rpgm_group ~terrain ~rng:(Rng.stream rng j)
                  ~speed_min:1. ~speed_max:20. ~pause:Time.zero
                  ~start:(point ()))
          in
          let mobs =
            Array.init k (fun i ->
                match family with
                | "manhattan" ->
                    Mobility.manhattan ~terrain ~rng:(Rng.stream rng (k + i))
                      ~spacing:150. ~speed_min:1. ~speed_max:20.
                      ~pause:Time.zero ~start:(point ())
                | "rpgm" ->
                    Mobility.rpgm_member groups.(i / 4)
                      ~ox:(Rng.float rng 200. -. 100.)
                      ~oy:(Rng.float rng 200. -. 100.)
                | _ ->
                    Mobility.waypoint ~terrain ~rng:(Rng.stream rng (k + i))
                      ~speed_min:1. ~speed_max:20. ~pause:Time.zero
                      ~start:(point ()))
          in
          let engine = Engine.create () in
          let store = Mobility.Pos_store.of_array mobs ~at:Time.zero in
          let channel =
            Net.Channel.create ~engine ~store ~terrain
              ~params:Net.Params.default ()
          in
          let radios =
            Array.init k (fun i -> Net.Channel.attach channel ~slot:i ~id:(n i))
          in
          let reference =
            Naive_medium.capture
              (Naive_medium.create ~engine ~store channel radios)
          in
          let last_ts = Mobility.Pos_store.last_ts store in
          let at = ref 0 and unrefreshed = ref 0 in
          for _ = 1 to 1500 do
            let gap_ms =
              if Rng.int rng 20 = 0 then Rng.float rng 400.
              else Rng.float rng 1.
            in
            at := !at + (2 * int_of_float (gap_ms *. 5e5)) + 2;
            let now = Time.unsafe_of_ns !at in
            Engine.run ~until:now engine;
            if family = "churn" && Rng.int rng 10 = 0 then begin
              let r = radios.(Rng.int rng k) in
              Net.Channel.set_attached channel r
                (not (Net.Channel.attached channel r))
            end;
            let src = Rng.int rng k in
            let r = radios.(src) in
            if
              Net.Channel.attached channel r
              && not (Net.Channel.transmitting channel r)
            then begin
              let duration =
                Time.unsafe_of_ns ((2 * (100_000 + Rng.int rng 1_400_000)) + 1)
              in
              Naive_medium.transmit_checked reference src (ack_frame src)
                ~duration;
              List.iter
                (fun rx ->
                  if last_ts.(Node_id.to_int rx.Net.Channel.rx) < !at then
                    incr unrefreshed)
                (Net.Channel.receptions channel r)
            end
          done;
          checkb
            (Printf.sprintf "%s seed %d: some touched radios settled unrefreshed"
               family seed)
            true (!unrefreshed > 0))
        [ 1; 2; 3 ])
    families

(* The bound's four edges, each where the cached position and the true
   one fall on opposite sides of a threshold.  At t = 0 the first
   transmission (A's, 5 s long) builds the lists and refreshes every
   radio; radios R, D, S and F then move along the x axis at 10 m/s, and
   B transmits at t = 2.4 s, before the lists expire (2 * 10 * 2.4 <=
   50 m), so each cached position is 24 m stale.  Cached and true
   distances to B:
   - R, locked to A at 200 m: 378 m cached, 354 m true — no longer weak
     against its lock (1.78 * 200 = 356 m), so B corrupts A's frame;
   - D, out of A's decode range: 290 m cached, 266 m true — decodable,
     so it locks onto B;
   - S, locked to A: 540 m cached, 564 m true — beyond carrier sense;
   - F, out of A's reach: 560 m cached, 536 m true — touched.
   The reference agrees after both transmissions, and the receptions
   show each edge taken the exact way. *)
let bound_edges_resolve_exactly () =
  let at x = v (100. +. x) 100. in
  let moving x dx =
    Mobility.scripted [ (Time.zero, at x); (Time.sec 100., at (x +. (100. *. dx))) ]
  in
  let mobs =
    [ Mobility.static (at 0.); moving 200. 10.; Mobility.static (at 578.);
      moving 288. 10.; moving 38. (-10.); moving 1138. (-10.) ]
  in
  let engine = Engine.create () in
  let store, channel = store_channel engine mobs in
  let radios =
    Array.of_list
      (List.mapi (fun i _ -> Net.Channel.attach channel ~slot:i ~id:(n i)) mobs)
  in
  let reference =
    Naive_medium.capture (Naive_medium.create ~engine ~store channel radios)
  in
  let a = 0 and r = 1 and b = 2 and d = 3 and s = 4 and f = 5 in
  Naive_medium.transmit_checked reference a (ack_frame a)
    ~duration:(Time.sec 5.);
  Engine.run ~until:(Time.sec 2.4) engine;
  Naive_medium.transmit_checked reference b (ack_frame b)
    ~duration:(Time.ms 1.);
  let flags src i =
    List.find_map
      (fun rx ->
        if Node_id.to_int rx.Net.Channel.rx = i then
          Some (rx.Net.Channel.decodable, rx.locked, rx.corrupted)
        else None)
      (Net.Channel.receptions channel radios.(src))
  in
  let check what want got =
    Alcotest.(check (option (triple bool bool bool))) what want got
  in
  check "R: A's frame corrupted" (Some (true, true, true)) (flags a r);
  check "S: A's frame intact" (Some (true, true, false)) (flags a s);
  check "R: B not decodable" (Some (false, false, false)) (flags b r);
  check "D: locked onto B" (Some (true, true, false)) (flags b d);
  check "S: beyond B's carrier sense" None (flags b s);
  check "F: touched by B" (Some (false, false, false)) (flags b f)

(* A radio attaching after the lists were built joins every list at
   once, though a static layout never expires them by age.  A slot
   outside the store is refused, as is a second radio in one slot: the
   channel reads positions and per-radio state by slot unchecked. *)
let late_attach_joins_lists () =
  let layout = [ v 100. 100.; v 300. 100.; v 200. 150. ] in
  let engine = Engine.create () in
  let store, channel = store_channel engine (List.map Mobility.static layout) in
  let attach i = Net.Channel.attach channel ~slot:i ~id:(n i) in
  let a = attach 0 and b = attach 1 in
  let ids r = List.map Node_id.to_int (Net.Channel.fanout channel r) in
  Alcotest.(check (list int)) "before: A touches B" [ 1 ] (ids a);
  Engine.run ~until:(Time.sec 1.) engine;
  let c = attach 2 in
  let oracle = Naive_medium.create ~engine ~store channel [| a; b; c |] in
  List.iteri
    (fun i r ->
      Alcotest.(check (list int))
        (Printf.sprintf "after: radio %d as brute force" i)
        (Naive_medium.fanout oracle i) (ids r))
    [ a; b; c ];
  Alcotest.(check (list int)) "after: A touches C and B" [ 2; 1 ] (ids a);
  Alcotest.check_raises "a slot outside the store"
    (Invalid_argument "Channel.attach: no such store slot") (fun () ->
      ignore (attach 3));
  Alcotest.check_raises "a slot that has a radio"
    (Invalid_argument "Channel.attach: store slot already has a radio")
    (fun () -> ignore (attach 0))

(* A raw radio reports every carrier-sense edge; with contending off it
   reports none, and switched back on mid-transmission it reports the
   next edge. *)
let contending_gates_edges () =
  let engine = Engine.create () in
  let _, channel =
    store_channel engine (List.map Mobility.static [ v 0. 0.; v 100. 0. ])
  in
  let a = Net.Channel.attach channel ~slot:0 ~id:(n 0) in
  let b = Net.Channel.attach channel ~slot:1 ~id:(n 1) in
  let edges = ref [] in
  Net.Channel.set_medium_listener b (fun busy -> edges := busy :: !edges);
  let tx () =
    Net.Channel.transmit channel a (ack_frame 0) ~duration:(Time.ms 1.)
  in
  let finish () =
    Engine.run ~until:(Time.add (Engine.now engine) (Time.ms 5.)) engine
  in
  let take () =
    let e = List.rev !edges in
    edges := [];
    e
  in
  let edges_t = Alcotest.(list bool) in
  tx ();
  finish ();
  Alcotest.check edges_t "default: busy then idle" [ true; false ] (take ());
  Net.Channel.set_contending channel b false;
  tx ();
  finish ();
  Alcotest.check edges_t "off: none" [] (take ());
  tx ();
  checkb "carrier still sensed while off" true (Net.Channel.busy channel b);
  Net.Channel.set_contending channel b true;
  finish ();
  Alcotest.check edges_t "back on: the next edge" [ false ] (take ())

(* Overhearing is the receiver's choice, capture is not.  Left to
   right 100 m apart: E broadcasts, and during it A sends a data
   unicast to B, which B acknowledges.  C (no overhearing) and D
   (overhearing) both decode frames addressed elsewhere: D is handed
   the unicast but not the ACK, C neither.  C, locked to E's broadcast,
   loses it to A's comparable-power unicast all the same, and the bus
   reports that collision; without A's unicast C receives the
   broadcast. *)
let overhearing_is_opt_in () =
  let data_frame ~src ~dst =
    Net.Frame.Data { src = n src; dst; payload = data_payload ~src ~dst:3 () }
  in
  let run ~unicast =
    let engine = Engine.create () in
    let layout =
      [ v 100. 100.; v 200. 100.; v 300. 100.; v 400. 100.; v 350. 100. ]
    in
    let store =
      Mobility.Pos_store.of_array
        (Array.of_list (List.map Mobility.static layout))
        ~at:Time.zero
    in
    let obs = Obs.Bus.create () in
    let collisions = Array.make 5 0 in
    Obs.Bus.add_sink obs (fun e ->
        if e.Obs.Event.kind = Obs.Event.Collision then
          collisions.(e.node) <- collisions.(e.node) + 1);
    let channel =
      Net.Channel.create ~engine ~obs ~store
        ~terrain:(Geom.Terrain.create ~width:3000. ~height:1000.)
        ~params:Net.Params.default ()
    in
    let heard = Array.make 5 [] in
    let radios =
      Array.init 5 (fun i ->
          let r = Net.Channel.attach channel ~slot:i ~id:(n i) in
          Net.Channel.set_receiver r ~overhear:(i = 4) (fun f ->
              heard.(i) <- Net.Frame.class_name f :: heard.(i));
          r)
    in
    let tx at src frame =
      ignore
        (Engine.at engine (Time.us at) (fun () ->
             Net.Channel.transmit channel radios.(src) frame
               ~duration:(Time.ms 1.)))
    in
    tx 0. 0 (data_frame ~src:0 ~dst:Net.Frame.broadcast);
    if unicast then begin
      tx 200. 2 (data_frame ~src:2 ~dst:(Net.Frame.unicast (n 3)));
      tx 2000. 3
        (Net.Frame.Ack { src = n 3; dst = Net.Frame.unicast (n 2) })
    end;
    Engine.run ~until:(Time.ms 10.) engine;
    (Array.map List.rev heard, collisions)
  in
  let frames = Alcotest.(list string) in
  let heard, collisions = run ~unicast:true in
  let data = Net.Frame.class_name (data_frame ~src:2 ~dst:Net.Frame.broadcast)
  and ack = Net.Frame.class_name (ack_frame 3) in
  Alcotest.check frames "B: the unicast to it" [ data ] heard.(3);
  Alcotest.check frames "A: the ACK to it" [ ack ] heard.(2);
  Alcotest.check frames "D overhears the unicast, not the ACK" [ data ]
    heard.(4);
  Alcotest.check frames "C: handed nothing" [] heard.(1);
  checki "C's broadcast lost to the unicast" 1 collisions.(1);
  let heard, collisions = run ~unicast:false in
  Alcotest.check frames "alone, C receives the broadcast" [ data ] heard.(1);
  checki "and no collision" 0 collisions.(1)

(* Listener and receiver calls of one transmission, in firing order.
   S broadcasts and touches, newest attach first, D (200 m away: decodes
   and contends), C (100 m: decodes, does not contend) and B (400 m:
   contends, beyond decode range).  At the start the busy edges of D
   and B fire in that order, each once every touched radio is counted
   busy.  At the end each radio's idle edge comes right before its own
   frame, in delivery order, so B's edge follows the other frames. *)
let listeners_in_delivery_order () =
  let engine = Engine.create () in
  let names = [| "B"; "C"; "D"; "S" |] in
  let _, channel =
    store_channel engine
      (List.map Mobility.static
         [ v 200. 100.; v 500. 100.; v 400. 100.; v 600. 100. ])
  in
  let log = ref [] and b_sensed = ref [] in
  let radios =
    Array.mapi
      (fun i name ->
        let r = Net.Channel.attach channel ~slot:i ~id:(n i) in
        Net.Channel.set_receiver r ~overhear:false (fun _ ->
            log := (name ^ " rx") :: !log);
        r)
      names
  in
  Array.iteri
    (fun i r ->
      Net.Channel.set_medium_listener r (fun busy ->
          if busy then
            b_sensed := Net.Channel.busy channel radios.(0) :: !b_sensed;
          log := (names.(i) ^ if busy then " busy" else " idle") :: !log))
    radios;
  Net.Channel.set_contending channel radios.(1) false;
  Net.Channel.set_contending channel radios.(3) false;
  let take () =
    let l = List.rev !log in
    log := [];
    l
  in
  let calls = Alcotest.(list string) in
  Net.Channel.transmit channel radios.(3) (ack_frame 3) ~duration:(Time.ms 1.);
  Alcotest.check calls "start: busy edges in delivery order"
    [ "D busy"; "B busy" ] (take ());
  Alcotest.(check (list bool))
    "B counted busy before the first edge" [ true; true ] !b_sensed;
  Engine.run ~until:(Time.ms 5.) engine;
  Alcotest.check calls "end: each idle edge right before its own frame"
    [ "D idle"; "D rx"; "C rx"; "B idle" ] (take ())

(* Minor words per steady-state transmission (transmit + end-of-tx) from
   radio 0 with [k] static radios within range of it: the words of a
   loop of transmissions, less those of the same loop (clock advance
   included) without the [transmit]. *)
let words_per_tx k =
  let engine = Engine.create () in
  let positions =
    List.init (k + 1) (fun i ->
        v (100. +. (3. *. float_of_int i)) (100. +. float_of_int (i mod 7)))
  in
  let _, channel =
    store_channel engine (List.map Mobility.static positions)
  in
  let radios =
    List.mapi
      (fun i _ -> Net.Channel.attach channel ~slot:i ~id:(n i))
      positions
  in
  let src = List.hd radios in
  let frame = ack_frame 0 and duration = Time.us 100. in
  let tx_count = 200 in
  let step = ref 0 in
  let once ~tx =
    if tx then Net.Channel.transmit channel src frame ~duration;
    incr step;
    Engine.run ~until:(Time.us (200. *. float_of_int !step)) engine
  in
  let loop ~tx =
    let w0 = Gc.minor_words () in
    for _ = 1 to tx_count do once ~tx done;
    Gc.minor_words () -. w0
  in
  (* Warm-up grows the job pool, the index cell arrays and the
     neighbour list to steady state. *)
  for _ = 1 to 10 do once ~tx:true done;
  let with_tx = loop ~tx:true in
  let without = loop ~tx:false in
  checki (Printf.sprintf "%d radios touched" k) k
    (List.length (Net.Channel.fanout channel src));
  (with_tx -. without) /. float_of_int tx_count

let allocation_free_fanout () =
  let w10 = words_per_tx 10 and w60 = words_per_tx 60 in
  checkb
    (Printf.sprintf "0 words/tx (%.2f at 10 radios, %.2f at 60)" w10 w60)
    true
    (w10 = 0. && w60 = 0.)

(* [Mac.send] of an existing payload allocates the frame's one block —
   header, source, destination, payload — and nothing else: the
   destination is an immediate, built inside the measured call.  The
   first send starts the service loop and creates the queue's array;
   the measured ones only queue. *)
let send_allocates_one_frame () =
  let words name dst =
    let _, _, nodes = rig [ v 0. 0.; v 100. 0. ] in
    let mac = nodes.(0).mac and p = data_payload ~src:0 ~dst:1 () in
    Net.Mac.send mac ~dst:(dst ()) p;
    let sends = 20 in
    let loop f =
      let w0 = Gc.minor_words () in
      for _ = 1 to sends do
        f ()
      done;
      Gc.minor_words () -. w0
    in
    let with_send = loop (fun () -> Net.Mac.send mac ~dst:(dst ()) p) in
    let without = loop ignore in
    checki (name ^ ": all queued") sends (Net.Mac.queue_length mac);
    let w = (with_send -. without) /. float_of_int sends in
    checkb (Printf.sprintf "%s: 4 words (%.2f)" name w) true (w = 4.)
  in
  words "broadcast" (fun () -> Net.Frame.broadcast);
  words "unicast" (fun () -> Net.Frame.unicast (n 1))

(* Randomized end-to-end MAC property: every unicast is either received
   at its destination or reported as a link failure to its sender —
   possibly both (a delivered frame whose ACK was lost), but never
   neither.  Nothing vanishes silently. *)
let mac_accounting_prop =
  QCheck.Test.make ~name:"unicast delivers or fails" ~count:30
    QCheck.(pair (int_bound 1000) (int_range 2 6))
    (fun (seed, k) ->
      let engine = Engine.create () in
      let rng = Rng.create seed in
      (* Random positions: some pairs are in range, some not. *)
      let positions =
        List.init k (fun _ -> v (Rng.float rng 800.) (Rng.float rng 300.))
      in
      let _, channel =
        store_channel engine (List.map Mobility.static positions)
      in
      let received = Array.make k false and failed = Array.make k false in
      let macs =
        Array.init k (fun i ->
            Net.Mac.create ~engine ~channel ~rng:(Rng.create (seed + i))
              ~id:(n i) ~slot:i
              {
                Net.Mac.receive =
                  (fun _ ~from -> received.(Node_id.to_int from) <- true);
                promiscuous = None;
                link_failure = (fun _ ~next_hop:_ -> failed.(i) <- true);
              })
      in
      for i = 0 to k - 2 do
        Net.Mac.send macs.(i) ~dst:(Net.Frame.unicast (n (i + 1)))
          (data_payload ~src:i ~dst:(i + 1) ())
      done;
      Engine.run ~until:(Time.sec 5.) engine;
      let ok = ref true in
      for i = 0 to k - 2 do
        if not (received.(i) || failed.(i)) then ok := false
      done;
      !ok)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "net"
    [
      ( "ifq",
        [
          Alcotest.test_case "fifo" `Quick ifq_fifo;
          Alcotest.test_case "drops when full" `Quick ifq_drops_when_full;
          Alcotest.test_case "releases dequeued elements" `Quick ifq_releases;
        ] );
      ("params", [ Alcotest.test_case "airtime" `Quick airtime_sanity ]);
      ( "mac",
        [
          Alcotest.test_case "unicast delivery+ack" `Quick unicast_delivery_and_ack;
          Alcotest.test_case "out of range fails" `Quick unicast_out_of_range_fails;
          Alcotest.test_case "broadcast range" `Quick broadcast_reaches_neighbors_only;
          Alcotest.test_case "promiscuous" `Quick promiscuous_overhears;
          Alcotest.test_case "queue serializes" `Quick queue_serializes;
          Alcotest.test_case "ifq overflow" `Quick ifq_overflow_drops;
          Alcotest.test_case "hidden terminal collides" `Quick hidden_terminal_collision;
          Alcotest.test_case "capture effect" `Quick capture_effect_saves_near_frame;
          Alcotest.test_case "carrier sense defers" `Quick carrier_sense_defers;
          Alcotest.test_case "transmit hook" `Quick transmit_hook_counts;
          Alcotest.test_case "neighbors query" `Quick neighbors_in_range_query;
          Alcotest.test_case "retransmits without ack" `Quick duplicate_on_lost_ack;
          Alcotest.test_case "broadcast no retry" `Quick broadcast_no_retry;
          Alcotest.test_case "mobility breaks link" `Quick mobility_breaks_link;
          Alcotest.test_case "power toggle" `Quick mac_power_toggle;
          qt mac_accounting_prop;
        ] );
      ( "channel-grid",
        [
          Alcotest.test_case "neighbour queries match naive" `Quick
            grid_neighbors_match_naive;
          Alcotest.test_case "grid vs naive byte-identical outcome" `Quick
            grid_matches_naive_channel;
          Alcotest.test_case "fan-out order matches naive" `Quick
            fanout_order_matches_naive;
          qt fanout_matches_naive_prop;
          Alcotest.test_case "allocation flat in fan-out" `Quick
            allocation_free_fanout;
          Alcotest.test_case "send allocates one frame block" `Quick
            send_allocates_one_frame;
          Alcotest.test_case "re-attach refreshes neighbour lists" `Quick
            reattach_refreshes_lists;
          qt list_expiry_prop;
          Alcotest.test_case "classification matches exact reference" `Quick
            classification_matches_exact;
          Alcotest.test_case "bound edges resolve exactly" `Quick
            bound_edges_resolve_exactly;
          Alcotest.test_case "late attach joins neighbour lists" `Quick
            late_attach_joins_lists;
          Alcotest.test_case "contending gates carrier-sense edges" `Quick
            contending_gates_edges;
          Alcotest.test_case "overhearing is opt-in, capture is not" `Quick
            overhearing_is_opt_in;
          Alcotest.test_case "listeners run in delivery order" `Quick
            listeners_in_delivery_order;
        ] );
    ]
