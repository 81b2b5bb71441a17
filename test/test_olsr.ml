(* Tests for OLSR: MPR selection, neighbor sensing, TC flooding, routing. *)

open Sim
open Packets

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let n = Node_id.of_int

(* ---- MPR selection -------------------------------------------------------- *)

let mpr_covers_two_hop () =
  (* self 0; neighbors 1,2; 1 reaches {3,4}, 2 reaches {4}: 1 is the sole
     provider of 3 so it must be picked, and it also covers 4, so {1} is
     the minimal set. *)
  let mprs =
    Olsr.select_mprs ~self:(n 0)
      ~neighbors:[ (n 1, [ n 0; n 3; n 4 ]); (n 2, [ n 0; n 4 ]) ]
  in
  checki "one mpr" 1 (Node_id.Set.cardinal mprs);
  checkb "node1 chosen" true (Node_id.Set.mem (n 1) mprs)

let mpr_greedy_coverage () =
  (* Neighbors 1,2,3; two-hop {4,5,6}: 1 covers {4,5}, 2 covers {5,6},
     3 covers {5}.  Greedy: picks sole providers of 4 (=1) and 6 (=2);
     done. *)
  let mprs =
    Olsr.select_mprs ~self:(n 0)
      ~neighbors:
        [ (n 1, [ n 4; n 5 ]); (n 2, [ n 5; n 6 ]); (n 3, [ n 5 ]) ]
  in
  checkb "1 in" true (Node_id.Set.mem (n 1) mprs);
  checkb "2 in" true (Node_id.Set.mem (n 2) mprs);
  checkb "3 redundant" false (Node_id.Set.mem (n 3) mprs)

let mpr_empty_cases () =
  checki "no neighbors" 0 (Node_id.Set.cardinal (Olsr.select_mprs ~self:(n 0) ~neighbors:[]));
  (* Neighbors but no two-hop nodes -> no MPRs needed. *)
  checki "no two-hop" 0
    (Node_id.Set.cardinal
       (Olsr.select_mprs ~self:(n 0) ~neighbors:[ (n 1, [ n 0 ]) ]))

let mpr_ignores_self_and_neighbors () =
  (* Entries pointing back at self or at other direct neighbors are not
     two-hop targets. *)
  let mprs =
    Olsr.select_mprs ~self:(n 0)
      ~neighbors:[ (n 1, [ n 0; n 2 ]); (n 2, [ n 0; n 1 ]) ]
  in
  checki "nothing to cover" 0 (Node_id.Set.cardinal mprs)

let mpr_coverage_prop =
  (* Every strict two-hop neighbor is covered by some selected MPR. *)
  QCheck.Test.make ~name:"mpr set covers two-hop set" ~count:200
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_neigh = 1 + Rng.int rng 6 in
      let neighbors =
        List.init num_neigh (fun i ->
            let deg = Rng.int rng 5 in
            ( n (i + 1),
              List.init deg (fun _ -> n (7 + Rng.int rng 8)) ))
      in
      let neighbor_ids = List.map fst neighbors in
      let two_hop =
        List.concat_map
          (fun (_, l) ->
            List.filter
              (fun x ->
                (not (Node_id.equal x (n 0)))
                && not (List.exists (Node_id.equal x) neighbor_ids))
              l)
          neighbors
      in
      let mprs = Olsr.select_mprs ~self:(n 0) ~neighbors in
      List.for_all
        (fun x ->
          List.exists
            (fun (nb, l) ->
              Node_id.Set.mem nb mprs && List.exists (Node_id.equal x) l)
            neighbors)
        two_hop)

(* ---- Protocol over the test network ---------------------------------------- *)

module TN = Experiment.Testnet

let make_net k =
  let engine = Engine.create ~seed:3 () in
  (engine, TN.create ~engine ~factory:Olsr.factory ~n:k ())

let proactive_routes_form () =
  let _, net = make_net 5 in
  TN.connect_chain net [ 0; 1; 2; 3; 4 ];
  (* Let hellos and TCs circulate. *)
  TN.run net ~for_:(Time.sec 20.);
  (* Routes exist without any data-driven discovery. *)
  checkb "0 routes to 4" true
    ((TN.agent net 0).Routing.Agent.successor (n 4) = Some (n 1));
  checkb "4 routes to 0" true
    ((TN.agent net 4).Routing.Agent.successor (n 0) = Some (n 3))

let data_follows_routes () =
  let _, net = make_net 5 in
  TN.connect_chain net [ 0; 1; 2; 3; 4 ];
  TN.run net ~for_:(Time.sec 20.);
  TN.origin net ~src:0 ~dst:4;
  TN.run net ~for_:(Time.sec 1.);
  checki "delivered" 1 (TN.delivered net)

let no_route_before_convergence () =
  let _, net = make_net 3 in
  TN.connect_chain net [ 0; 1; 2 ];
  (* Immediately: no hellos yet, data must drop. *)
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.ms 10.);
  checki "dropped" 0 (TN.delivered net);
  checkb "no-route recorded" true
    (List.mem_assoc "no-route"
       (Experiment.Metrics.drops_by_reason (TN.metrics net)))

let topology_change_heals () =
  let _, net = make_net 4 in
  TN.connect_chain net [ 0; 1; 2; 3 ];
  TN.run net ~for_:(Time.sec 20.);
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 1.);
  checki "first" 1 (TN.delivered net);
  (* Replace 1-2 with 1-... direct 0-3 path via new link 0-2? Break 1-2,
     add 0-2: after hold times and fresh hellos, routes re-form. *)
  TN.disconnect net 1 2;
  TN.connect net 0 2;
  TN.run net ~for_:(Time.sec 25.);
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 1.);
  checki "healed" 2 (TN.delivered net)

let shortest_path_selected () =
  let _, net = make_net 6 in
  TN.connect_chain net [ 0; 1; 2; 3 ];
  TN.connect_chain net [ 0; 4; 3 ];
  (* 2-hop branch beats 3-hop branch *)
  TN.run net ~for_:(Time.sec 25.);
  checkb "routes via short branch" true
    ((TN.agent net 0).Routing.Agent.successor (n 3) = Some (n 4))

let hello_and_tc_overhead_counted () =
  let _, net = make_net 4 in
  TN.connect_chain net [ 0; 1; 2; 3 ];
  TN.run net ~for_:(Time.sec 30.);
  let m = TN.metrics net in
  (* No MAC here (testnet), but control events pass through ctx.send, so
     none are counted in control_tx; instead verify deliveries happen and
     no data was originated. *)
  checki "no data originated" 0 (Experiment.Metrics.originated m)

let link_failure_reroutes () =
  let _, net = make_net 4 in
  TN.connect_chain net [ 0; 1; 3 ];
  TN.connect_chain net [ 0; 2; 3 ];
  TN.run net ~for_:(Time.sec 25.);
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 1.);
  checki "first" 1 (TN.delivered net);
  (* Kill whichever first hop is in use; immediate re-route uses the
     other branch without waiting for hello timeouts. *)
  (match (TN.agent net 0).Routing.Agent.successor (n 3) with
  | Some hop -> TN.disconnect net 0 (Node_id.to_int hop)
  | None -> Alcotest.fail "expected a route");
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 30.);
  checkb "rerouted eventually" true (TN.delivered net >= 2)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "olsr"
    [
      ( "mpr",
        [
          Alcotest.test_case "covers two-hop" `Quick mpr_covers_two_hop;
          Alcotest.test_case "greedy coverage" `Quick mpr_greedy_coverage;
          Alcotest.test_case "empty cases" `Quick mpr_empty_cases;
          Alcotest.test_case "ignores self/neighbors" `Quick mpr_ignores_self_and_neighbors;
          qt mpr_coverage_prop;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "proactive routes form" `Quick proactive_routes_form;
          Alcotest.test_case "data follows routes" `Quick data_follows_routes;
          Alcotest.test_case "no route before convergence" `Quick no_route_before_convergence;
          Alcotest.test_case "topology change heals" `Quick topology_change_heals;
          Alcotest.test_case "shortest path" `Quick shortest_path_selected;
          Alcotest.test_case "overhead accounting" `Quick hello_and_tc_overhead_counted;
          Alcotest.test_case "link failure reroutes" `Quick link_failure_reroutes;
        ] );
    ]
