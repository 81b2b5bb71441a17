(* Spatially-sharded PDES (Sim.Pdes + Runner's sharded path).

   The determinism contract (docs/PARALLELISM.md) is tested
   differentially, never with tolerances:

   - conformance: a run whose radios never interact across region
     borders produces outcomes exactly equal ([Stdlib.compare]) at
     shards = 1, 2, 3 and 4 — summary, latency quantiles, per-kind
     control counts, event counts, MAC counters, audit results;
   - border traffic: runs that do cross borders are exactly
     reproducible at a fixed shard count (and independent of the
     worker-domain count), with the crossing latency as the one
     documented relaxation against shards = 1;
   - the invariant monitor works under sharding: silent on clean runs,
     and a fault injected at the same virtual time trips it with an
     outcome exactly equal to the classic run's.

   [MANET_TEST_SHARDS] sets the sharded worker-domain count exercised
   by the worker-independence test (default 4; CI pins it to 4). *)

open Sim
open Experiment

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_shards =
  match Sys.getenv_opt "MANET_TEST_SHARDS" with
  | Some s -> ( match int_of_string_opt s with Some k when k >= 2 -> k | _ -> 4)
  | None -> 4

(* Two 9-node clusters, 1400 m apart on a 2400 m terrain: every node is
   more than a carrier-sense range (550 m) from the other cluster and
   from any region border a split into 2, 3 or 4 vertical stripes
   produces, so no transmission ever crosses shards. *)
let cluster x0 =
  List.concat_map
    (fun dx -> List.map (fun y -> Geom.Vec2.v (x0 +. dx) y) [ 60.; 150.; 240. ])
    [ 0.; 150.; 300. ]

let border_free ?(protocol = Scenario.ldr) ?(audit = false) ?(seed = 11)
    ?(shards = 1) () =
  let positions = cluster 150. @ cluster 1950. in
  {
    Scenario.label = "pdes-border-free";
    num_nodes = List.length positions;
    terrain = Geom.Terrain.create ~width:2400. ~height:300.;
    placement = Scenario.Fixed positions;
    speed_min = 0.;
    speed_max = 0.;
    pause = Time.sec 0.;
    duration = Time.sec 10.;
    traffic =
      {
        Traffic.num_flows = 3;
        packets_per_sec = 4.;
        payload_bytes = 512;
        mean_flow_duration = Time.sec 8.;
        startup_window = Time.sec 2.;
      };
    protocol;
    net = Net.Params.default;
    seed;
    audit_loops = audit;
    naive_channel = false;
    heap_scheduler = false;
    shards;
    mobility = Scenario.Waypoint;
    shadowing = None;
    churn = None;
    partition = None;
  }

(* A connected grid spanning the whole terrain: routes and carrier
   sense cross every region border. *)
let bordered ?(speed_max = 0.) ?(seed = 3) ?(shards = 1) () =
  {
    (border_free ~seed ~shards ()) with
    Scenario.label = "pdes-bordered";
    num_nodes = 24;
    terrain = Geom.Terrain.create ~width:1200. ~height:300.;
    placement = (if speed_max > 0. then Scenario.Uniform else Scenario.Grid);
    speed_min = (if speed_max > 0. then 1. else 0.);
    speed_max;
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

(* --- border-free conformance: shards is unobservable ---------------- *)

let test_conformance protocol () =
  let base = Runner.run (border_free ~protocol ()) in
  List.iter
    (fun k ->
      let o = Runner.run (border_free ~protocol ~shards:k ()) in
      checki (Printf.sprintf "no cross-shard frames at K=%d" k) 0
        o.Runner.pdes_messages;
      checkb (Printf.sprintf "windows ran at K=%d" k) true
        (o.Runner.pdes_windows > 0);
      same_digest (Printf.sprintf "digest K=1 vs K=%d" k) base o)
    [ 2; 3; 4 ]

let test_conformance_audit () =
  let base = Runner.run (border_free ~audit:true ()) in
  let o = Runner.run (border_free ~audit:true ~shards:4 ()) in
  checki "clean audit under sharding" 0 (Metrics.loop_violations o.Runner.metrics);
  same_digest "audited digest K=1 vs K=4" base o

let test_conformance_monitor () =
  let base = Runner.run ~monitor:true (border_free ()) in
  let o = Runner.run ~monitor:true (border_free ~shards:4 ()) in
  checki "monitor silent on clean sharded run" 0 o.Runner.invariant_violations;
  same_digest "monitored digest K=1 vs K=4" base o

(* --- bordered runs: reproducible, worker-count independent --------- *)

let test_border_crossing () =
  let o1 = Runner.run (bordered ~shards:4 ()) in
  let o2 = Runner.run (bordered ~shards:4 ()) in
  checkb "traffic crossed borders" true (o1.Runner.pdes_messages > 0);
  checkb "packets delivered" true (Metrics.delivered o1.Runner.metrics > 0);
  same_digest "same-K re-run identical" o1 o2

let test_worker_independence () =
  let o1 = Runner.run ~pdes_workers:1 (bordered ~shards:4 ()) in
  let on = Runner.run ~pdes_workers:test_shards (bordered ~shards:4 ()) in
  same_digest
    (Printf.sprintf "workers=1 vs workers=%d" test_shards)
    o1 on

let test_mobile_reproducible () =
  (* Mobility exercises the occupancy-band refresh boundaries. *)
  let sc = bordered ~speed_max:10. ~shards:3 () in
  let o1 = Runner.run sc in
  let o2 = Runner.run sc in
  checkb "mobile run delivered" true (Metrics.delivered o1.Runner.metrics > 0);
  same_digest "mobile same-K re-run identical" o1 o2

(* --- fault injection under sharding -------------------------------- *)

let test_fault_under_sharding () =
  let at = Time.sec 5. in
  let classic_injected = ref (ref false) in
  let sharded_injected = ref (ref false) in
  let base =
    Runner.run ~monitor:true
      ~prepare:(fun sim ->
        classic_injected := (Fault.stale_seqno sim ~at).Fault.injected)
      (border_free ())
  in
  let o =
    Runner.run ~monitor:true
      ~prepare_pdes:(fun p ->
        sharded_injected := (Fault.stale_seqno_sharded p ~at).Fault.injected)
      (border_free ~shards:4 ())
  in
  checkb "classic fault injected" true !(!classic_injected);
  checkb "sharded fault injected" true !(!sharded_injected);
  checkb "classic monitor tripped" true (base.Runner.invariant_violations >= 1);
  checki "same violation count" base.Runner.invariant_violations
    o.Runner.invariant_violations;
  (* Full-outcome equality pins the fault to the same site and time:
     any divergence in the victim scan or the delivery instant would
     cascade into the metrics. *)
  same_digest "faulted digest K=1 vs K=4" base o

(* --- Pdes unit behaviour ------------------------------------------- *)

let test_lookahead_bound () =
  let mk () = Array.init 2 (fun _ -> Engine.create ~seed:1 ()) in
  (* A post one full lookahead ahead lands exactly on the next window
     boundary and is delivered there. *)
  let engines = mk () in
  let p = Pdes.create ~lookahead:(Time.sec 0.001) engines in
  let hit = ref Time.zero in
  ignore
    (Engine.at engines.(0) (Time.sec 0.0015) (fun () ->
         Pdes.post p ~src:0 ~dst:1
           (Time.add (Engine.now engines.(0)) (Time.sec 0.001))
           (fun () -> hit := Engine.now engines.(1))));
  Pdes.run p ~until:(Time.sec 0.01);
  checki "delivered at source time + lookahead" 2_500_000 ((!hit :> int));
  checki "one cross-shard message" 1 (Pdes.stats p).Pdes.messages;
  checkb "windows advanced" true ((Pdes.stats p).Pdes.windows > 0);
  (* A post inside the current window violates the conservative bound
     and must be rejected, not silently reordered. *)
  let engines = mk () in
  let p = Pdes.create ~lookahead:(Time.sec 0.001) engines in
  ignore
    (Engine.at engines.(0) (Time.sec 0.0015) (fun () ->
         Pdes.post p ~src:0 ~dst:1 (Engine.now engines.(0)) (fun () -> ())));
  checkb "past-window post rejected" true
    (try
       Pdes.run p ~until:(Time.sec 0.01);
       false
     with Invalid_argument _ -> true)

let test_partition () =
  let t =
    Geom.Partition.stripes
      ~terrain:(Geom.Terrain.create ~width:100. ~height:50.)
      ~k:4
  in
  let r x = Geom.Partition.region_of t (Geom.Vec2.v x 25.) in
  checki "left edge" 0 (r 0.);
  checki "last point below split" 0 (r 24.9);
  checki "split belongs right" 1 (r 25.);
  checki "right interior" 3 (r 99.9);
  checki "right edge clamps" 3 (r 100.);
  checki "beyond clamps" 3 (r 250.);
  let one =
    Geom.Partition.stripes
      ~terrain:(Geom.Terrain.create ~width:100. ~height:50.)
      ~k:1
  in
  checki "k=1 is one region" 0 (Geom.Partition.region_of one (Geom.Vec2.v 99. 0.))

let () =
  Alcotest.run "pdes"
    [
      ( "conformance",
        [
          Alcotest.test_case "ldr K in {1,2,3,4}" `Quick
            (test_conformance Scenario.ldr);
          Alcotest.test_case "aodv K in {1,2,3,4}" `Quick
            (test_conformance Scenario.aodv);
          Alcotest.test_case "olsr K in {1,2,3,4}" `Quick
            (test_conformance Scenario.olsr);
          Alcotest.test_case "loop audit" `Quick test_conformance_audit;
          Alcotest.test_case "monitor silent" `Quick test_conformance_monitor;
        ] );
      ( "borders",
        [
          Alcotest.test_case "crossing traffic reproducible" `Quick
            test_border_crossing;
          Alcotest.test_case "worker-count independent" `Quick
            test_worker_independence;
          Alcotest.test_case "mobile band refresh reproducible" `Quick
            test_mobile_reproducible;
        ] );
      ( "fault",
        [ Alcotest.test_case "monitor trips under sharding" `Quick
            test_fault_under_sharding ] );
      ( "pdes-core",
        [
          Alcotest.test_case "lookahead bound" `Quick test_lookahead_bound;
          Alcotest.test_case "partition stripes" `Quick test_partition;
        ] );
    ]
