(* Tests for DSR: the path cache and protocol behaviour. *)

open Sim
open Packets

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let n = Node_id.of_int

(* ---- Route cache -------------------------------------------------------- *)

let cache () =
  let engine = Engine.create () in
  (engine, Dsr.Route_cache.create ~engine ~owner:(n 0) ~capacity:8 ~ttl:(Time.sec 100.))

let path ids = List.map n ids

let cache_find_direct () =
  let _, c = cache () in
  Dsr.Route_cache.add_path c (path [ 0; 1; 2; 3 ]);
  (match Dsr.Route_cache.find c ~dst:(n 3) with
  | Some hops -> checkb "full hops" true (hops = path [ 1; 2; 3 ])
  | None -> Alcotest.fail "expected a route");
  (* Prefixes are usable too. *)
  match Dsr.Route_cache.find c ~dst:(n 2) with
  | Some hops -> checkb "prefix" true (hops = path [ 1; 2 ])
  | None -> Alcotest.fail "prefix usable"

let cache_prefers_shortest () =
  let _, c = cache () in
  Dsr.Route_cache.add_path c (path [ 0; 1; 2; 3; 9 ]);
  Dsr.Route_cache.add_path c (path [ 0; 4; 9 ]);
  match Dsr.Route_cache.find c ~dst:(n 9) with
  | Some hops -> checki "2 hops" 2 (List.length hops)
  | None -> Alcotest.fail "expected a route"

let cache_subpath_extraction () =
  (* Owner mid-path: the suffix from the owner is a valid route. *)
  let _, c = cache () in
  Dsr.Route_cache.add_path c (path [ 7; 8; 0; 5; 6 ]);
  match Dsr.Route_cache.find c ~dst:(n 6) with
  | Some hops -> checkb "suffix" true (hops = path [ 5; 6 ])
  | None -> Alcotest.fail "suffix usable"

let cache_remove_link () =
  let _, c = cache () in
  Dsr.Route_cache.add_path c (path [ 0; 1; 2; 3 ]);
  Dsr.Route_cache.remove_link c (n 1) (n 2);
  checkb "3 unreachable" true (Dsr.Route_cache.find c ~dst:(n 3) = None);
  (* The surviving prefix 0-1 still works. *)
  (match Dsr.Route_cache.find c ~dst:(n 1) with
  | Some hops -> checkb "prefix survives" true (hops = path [ 1 ])
  | None -> Alcotest.fail "prefix should survive");
  (* Symmetric removal also truncates reversed occurrences. *)
  let _, c2 = cache () in
  Dsr.Route_cache.add_path c2 (path [ 0; 2; 1; 5 ]);
  Dsr.Route_cache.remove_link c2 (n 1) (n 2);
  checkb "reverse direction removed" true (Dsr.Route_cache.find c2 ~dst:(n 5) = None)

let cache_expiry () =
  let engine = Engine.create () in
  let c = Dsr.Route_cache.create ~engine ~owner:(n 0) ~capacity:8 ~ttl:(Time.sec 5.) in
  Dsr.Route_cache.add_path c (path [ 0; 1 ]);
  ignore
    (Engine.at engine (Time.sec 10.) (fun () ->
         checkb "expired" true (Dsr.Route_cache.find c ~dst:(n 1) = None)));
  Engine.run engine

let cache_capacity () =
  let _, c = cache () in
  for i = 1 to 20 do
    Dsr.Route_cache.add_path c (path [ 0; i ])
  done;
  checkb "bounded" true (List.length (Dsr.Route_cache.paths c) <= 8);
  (* Most recent survive. *)
  checkb "newest kept" true (Dsr.Route_cache.find c ~dst:(n 20) <> None)

let cache_rejects_loopy_paths () =
  let _, c = cache () in
  Dsr.Route_cache.add_path c (path [ 0; 1; 0; 2 ]);
  checkb "loopy path rejected" true (Dsr.Route_cache.find c ~dst:(n 2) = None)

(* ---- Protocol ------------------------------------------------------------ *)

module TN = Graph_net

let make_net ?(config = Dsr.default_config) k =
  let net = TN.create ~seed:3 ~factory:(Dsr.factory ~config ()) ~n:k () in
  (TN.engine net, net)

let discovery_on_chain () =
  let _, net = make_net 5 in
  TN.connect_chain net [ 0; 1; 2; 3; 4 ];
  TN.origin net ~src:0 ~dst:4;
  TN.run net ~for_:(Time.sec 3.);
  checki "delivered" 1 (TN.delivered net)

let source_routes_follow_header () =
  (* Two parallel paths; all packets of the flow follow the cached one
     even after a shorter link appears (DSR pins routes at the source). *)
  let _, net = make_net 5 in
  TN.connect_chain net [ 0; 1; 2; 3 ];
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 2.);
  checki "first delivered" 1 (TN.delivered net);
  TN.connect net 0 3;
  (* New direct link: without a new discovery the old 3-hop route still
     works and is still used. *)
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 2.);
  checki "still delivered" 2 (TN.delivered net)

let salvage_on_break () =
  let _, net = make_net 5 in
  (* Paths: 0-1-2 and 1-3-2: node 1 can salvage via 3 when 1-2 dies. *)
  TN.connect_chain net [ 0; 1; 2 ];
  TN.connect_chain net [ 1; 3; 2 ];
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 2.);
  checki "primed" 1 (TN.delivered net);
  (* Break 1-2 FIRST, then teach node 1 the alternate path by its own
     discovery (which now must go via 3). *)
  TN.disconnect net 1 2;
  TN.origin net ~src:1 ~dst:2;
  TN.run net ~for_:(Time.sec 3.);
  checki "node 1 rerouted via 3" 2 (TN.delivered net);
  (* Now 0 still holds the stale route 0-1-2: its packet fails at node 1,
     which salvages it over the freshly cached 1-3-2. *)
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 5.);
  checki "salvaged delivery" 3 (TN.delivered net)

let rerr_removes_stale_route () =
  let _, net = make_net 4 in
  TN.connect_chain net [ 0; 1; 2; 3 ];
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 2.);
  checki "primed" 1 (TN.delivered net);
  TN.disconnect net 2 3;
  (* The send fails at node 2, a RERR travels back, and rediscovery
     fails (3 unreachable) -> drop reported. *)
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 30.);
  checki "no new delivery" 1 (TN.delivered net);
  let m = TN.metrics net in
  checkb "some drop recorded" true (Experiment.Metrics.drops_by_reason m <> [])

let reply_from_cache () =
  let _, net = make_net 5 in
  TN.connect_chain net [ 0; 1; 2; 3 ];
  TN.connect net 4 1;
  (* Prime node 1's cache with a route to 3. *)
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 2.);
  (* 4 asks: node 1 answers from cache (3 never sees a RREQ with ttl 1
     nonpropagating first attempt). *)
  TN.origin net ~src:4 ~dst:3;
  TN.run net ~for_:(Time.sec 3.);
  checki "delivered" 2 (TN.delivered net);
  checkb "cache reply counted" true
    (Experiment.Metrics.event_count (TN.metrics net) "rrep_init" >= 2)

let draft7_variant_disables_cache_replies () =
  let config = { Dsr.reply_from_cache = false } in
  let _, net = make_net ~config 5 in
  TN.connect_chain net [ 0; 1; 2; 3 ];
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 3.);
  checki "still works end to end" 1 (TN.delivered net)

let route_shortening_gratuitous_rrep () =
  let _, net = make_net 3 in
  TN.connect_chain net [ 0; 1; 2 ];
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 2.);
  checki "two-hop delivery first" 1 (TN.delivered net);
  (* Node 2 drifts into node 0's range and overhears 0's transmission of
     a packet still source-routed via 1. *)
  TN.connect net 0 2;
  let data =
    Packets.Data_msg.fresh ~flow_id:999 ~seq:0 ~src:(n 0) ~dst:(n 2)
      ~payload_bytes:512 ~origin_time:Time.zero
  in
  let payload =
    Packets.Payload.Dsr
      (Packets.Dsr_msg.Data
         { sr_remaining = [ n 2 ]; full_route = [ n 0; n 1; n 2 ]; data;
           salvage = 0 })
  in
  (TN.agent net 2).Routing.Agent.overheard payload ~from:(n 0)
    ~dst:(Net.Frame.unicast (n 1));
  TN.run net ~for_:(Time.ms 100.);
  (* The gratuitous RREP reached 0: the next packet goes direct. *)
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 1.);
  checki "delivered" 2 (TN.delivered net);
  checkb "second packet took the 1-hop shortcut" true
    (abs_float (Experiment.Metrics.mean_hops (TN.metrics net) -. 1.5) < 1e-9)

let no_loops_in_source_routes_prop =
  (* Composed cache replies must never produce a route visiting a node
     twice: sample many random topologies and inspect delivered paths via
     delivery success (a loopy source route would exhaust and drop). *)
  QCheck.Test.make ~name:"DSR delivers on random connected chains" ~count:20
    QCheck.(int_bound 1000)
    (fun seed ->
      let k = 6 in
      let net = TN.create ~seed ~factory:(Dsr.factory ()) ~n:k () in
      TN.connect_chain net (List.init k Fun.id);
      let rng = Rng.create seed in
      (* A few random chords. *)
      for _ = 1 to 3 do
        let a = Rng.int rng k and b = Rng.int rng k in
        if a <> b then TN.connect net a b
      done;
      TN.origin net ~src:0 ~dst:(k - 1);
      TN.run net ~for_:(Time.sec 5.);
      TN.delivered net = 1)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "dsr"
    [
      ( "route_cache",
        [
          Alcotest.test_case "find direct" `Quick cache_find_direct;
          Alcotest.test_case "prefers shortest" `Quick cache_prefers_shortest;
          Alcotest.test_case "subpath extraction" `Quick cache_subpath_extraction;
          Alcotest.test_case "remove link" `Quick cache_remove_link;
          Alcotest.test_case "expiry" `Quick cache_expiry;
          Alcotest.test_case "capacity" `Quick cache_capacity;
          Alcotest.test_case "rejects loopy paths" `Quick cache_rejects_loopy_paths;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "discovery on chain" `Quick discovery_on_chain;
          Alcotest.test_case "source routes pinned" `Quick source_routes_follow_header;
          Alcotest.test_case "salvage on break" `Quick salvage_on_break;
          Alcotest.test_case "rerr removes stale" `Quick rerr_removes_stale_route;
          Alcotest.test_case "reply from cache" `Quick reply_from_cache;
          Alcotest.test_case "draft7 variant" `Quick draft7_variant_disables_cache_replies;
          Alcotest.test_case "route shortening" `Quick route_shortening_gratuitous_rrep;
          Alcotest.test_case "partitioned fails" `Quick
            (Discovery_cases.gives_up (Dsr.factory ()));
          Alcotest.test_case "reset mid-discovery" `Quick
            (Discovery_cases.reset_mid_discovery (Dsr.factory ()));
          Alcotest.test_case "origin rescue" `Quick
            (Discovery_cases.origin_rescue (Dsr.factory ()));
          qt no_loops_in_source_routes_prop;
        ] );
    ]
