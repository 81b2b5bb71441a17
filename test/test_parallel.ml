(* Domain-parallel sweep execution.

   Three layers of evidence that fanning a sweep across domains changes
   nothing but the wall clock:

   - executor unit tests (index order, exactly-once, job-count
     resolution, exception propagation);
   - differential conformance: the same (point x seed) matrix at jobs=1
     and jobs=N yields exactly equal per-seed outcomes, aggregate
     Welford statistics, loop-audit results and fault-injection
     violation sites — equality is [=] / [Stdlib.compare], never a
     tolerance;
   - regression pins for the domain-safety audit: per-trial re-run
     determinism under QCheck-random scenarios (hidden global mutable
     state would break same-process re-runs before it ever raced across
     domains) and per-bus intern-table isolation.

   [MANET_TEST_JOBS] sets the multi-domain job count (default 4; CI
   pins it to 4 explicitly). *)

open Sim
open Experiment

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_jobs =
  match Sys.getenv_opt "MANET_TEST_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some j when j >= 2 -> j | _ -> 4)
  | None -> 4

let small_scenario ?(seed = 7) ?(audit = false) ?(speed_max = 10.)
    ?(duration = 15.) ?(flows = 2) ?(nodes = 10) ?(pps = 4.) ?(pause = 0.) () =
  {
    Scenario.label = "par-test";
    num_nodes = nodes;
    terrain = Geom.Terrain.create ~width:500. ~height:400.;
    placement = Scenario.Uniform;
    speed_min = (if speed_max > 0. then 1. else 0.);
    speed_max;
    pause = Time.sec pause;
    duration = Time.sec duration;
    traffic =
      {
        Traffic.num_flows = flows;
        packets_per_sec = pps;
        payload_bytes = 512;
        mean_flow_duration = Time.sec duration;
        startup_window = Time.sec 2.;
      };
    protocol = Scenario.ldr;
    net = Net.Params.default;
    seed;
    audit_loops = audit;
    mobility = Scenario.Waypoint;
    shadowing = None;
    churn = None;
    partition = None;
  }

(* ---- executor ---------------------------------------------------------- *)

let map_order () =
  let expect = Array.init 23 (fun i -> i * i) in
  checkb "jobs=1" true (Parallel.map ~jobs:1 23 (fun i -> i * i) = expect);
  checkb "jobs=4" true (Parallel.map ~jobs:4 23 (fun i -> i * i) = expect);
  checkb "jobs > n" true (Parallel.map ~jobs:64 23 (fun i -> i * i) = expect);
  checkb "n=0" true (Parallel.map ~jobs:4 0 (fun i -> i) = [||]);
  checkb "n=1" true (Parallel.map ~jobs:4 1 (fun i -> i + 41) = [| 41 |])

let map_exactly_once () =
  let n = 57 in
  let counters = Array.init n (fun _ -> Atomic.make 0) in
  ignore (Parallel.map ~jobs:test_jobs n (fun i -> Atomic.incr counters.(i)));
  Array.iteri
    (fun i c -> checki (Printf.sprintf "index %d ran once" i) 1 (Atomic.get c))
    counters

let map_exception () =
  match
    Parallel.map ~jobs:test_jobs 16 (fun i ->
        if i = 7 then failwith "trial 7 exploded" else i)
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure m -> Alcotest.check Alcotest.string "message" "trial 7 exploded" m

let resolve_jobs () =
  checkb "auto >= 1" true (Parallel.effective_jobs ~items:64 0 >= 1);
  checki "auto capped at items" 1 (Parallel.effective_jobs ~items:1 0);
  checki "explicit" 3 (Parallel.effective_jobs ~items:64 3);
  checki "explicit capped at items" 2 (Parallel.effective_jobs ~items:2 3);
  checki "no items" 1 (Parallel.effective_jobs ~items:0 3);
  let negative = Invalid_argument "Parallel.effective_jobs: jobs must be >= 0" in
  Alcotest.check_raises "negative" negative (fun () ->
      ignore (Parallel.effective_jobs ~items:4 (-1)));
  Alcotest.check_raises "map negative" negative (fun () ->
      ignore (Parallel.map ~jobs:(-1) 4 (fun i -> i)))

(* ---- differential conformance ------------------------------------------ *)

(* Everything a trial reports, in one polymorphically comparable
   value.  [Metrics.summary] is a float record; [drops]/[control] fold
   to sorted assoc lists. *)
let outcome_digest (o : Runner.outcome) =
  ( o.Runner.summary,
    ( Metrics.originated o.Runner.metrics,
      Metrics.delivered o.Runner.metrics,
      Metrics.loop_violations o.Runner.metrics,
      Metrics.control_by_kind o.Runner.metrics,
      Metrics.drops_by_reason o.Runner.metrics ),
    ( o.Runner.events_processed,
      o.Runner.transmissions,
      o.Runner.mac_queue_drops,
      o.Runner.mac_unicast_failures ) )

let welford_digest w =
  (Stats.Welford.count w, Stats.Welford.mean w, Stats.Welford.variance w)

let point_digest (p : Sweep.point) =
  List.map welford_digest
    [
      p.Sweep.delivery_ratio; p.Sweep.latency_ms; p.Sweep.network_load;
      p.Sweep.rreq_load; p.Sweep.rrep_init; p.Sweep.rrep_recv;
      p.Sweep.mean_dest_seqno;
    ]

(* The satellite spec: a 3-point, 5-seed sweep, audit-loops on, at
   jobs=1 and jobs=N.  Per-seed outcomes and per-point aggregates must
   be exactly equal — [=] on every digest. *)
let differential_sweep () =
  let sc = small_scenario ~audit:true () in
  let n = 5 in
  (* Per-seed outcomes, single point. *)
  let seq = Sweep.trial_outcomes ~jobs:1 sc ~n in
  let par = Sweep.trial_outcomes ~jobs:test_jobs sc ~n in
  checki "trial count" n (Array.length par);
  for i = 0 to n - 1 do
    checkb
      (Printf.sprintf "seed %d outcome identical" (sc.Scenario.seed + i))
      true
      (Stdlib.compare (outcome_digest seq.(i)) (outcome_digest par.(i)) = 0)
  done;
  (* Full 3-point matrix through Sweep.run. *)
  let points =
    List.map
      (fun pause (s : Scenario.t) -> { s with pause = Time.sec pause })
      [ 0.; 3.; 10. ]
  in
  let seq_pts = Sweep.run ~jobs:1 sc ~points ~trials:n in
  let par_pts = Sweep.run ~jobs:test_jobs sc ~points ~trials:n in
  checki "three points" 3 (List.length par_pts);
  List.iteri
    (fun i (a, b) ->
      checkb
        (Printf.sprintf "point %d aggregates identical" i)
        true
        (point_digest a = point_digest b))
    (List.combine seq_pts par_pts);
  (* And the sequential matrix path agrees with the historical
     per-point trials loop. *)
  let legacy =
    List.map
      (fun refine -> Sweep.trials ~jobs:1 (refine sc) ~n)
      points
  in
  checkb "matrix path matches per-point path" true
    (List.map point_digest seq_pts = List.map point_digest legacy)

(* ---- fault-injection determinism --------------------------------------- *)

(* Each trial seeds a stale-seqno fault and records every monitor
   violation verbatim (sim time, writer node, destination, installed
   successor, the sn/fd quadruple).  jobs=1 and jobs=N must trip on the
   same trial, at the same sim-time, on the same write. *)
let fault_trial seed =
  let sc = small_scenario ~seed ~speed_max:0. ~duration:20. () in
  let violations = ref [] in
  let prepare (sim : Runner.sim) =
    ignore (Runner.attach_monitor ~quiet:true sim);
    Obs.Bus.add_sink sim.Runner.bus (fun ev ->
        if ev.Obs.Event.kind = Obs.Event.Violation then
          violations :=
            ( (ev.Obs.Event.time :> int),
              ev.Obs.Event.node,
              ev.Obs.Event.a,
              ev.Obs.Event.b,
              (ev.Obs.Event.c, ev.Obs.Event.d, ev.Obs.Event.e, ev.Obs.Event.f)
            )
            :: !violations);
    ignore (Fault.stale_seqno sim ~at:(Time.sec 10.))
  in
  let o = Runner.run ~prepare sc in
  (o.Runner.invariant_violations, List.rev !violations)

let fault_determinism () =
  let seeds = [| 3; 4; 5; 6 |] in
  let run jobs =
    Parallel.map ~jobs (Array.length seeds) (fun i -> fault_trial seeds.(i))
  in
  let seq = run 1 and par = run test_jobs in
  let tripped = ref 0 in
  Array.iteri
    (fun i (count, sites) ->
      let pcount, psites = par.(i) in
      checki (Printf.sprintf "seed %d violation count" seeds.(i)) count pcount;
      checkb
        (Printf.sprintf "seed %d violation sites identical" seeds.(i))
        true
        (Stdlib.compare sites psites = 0);
      if count > 0 then incr tripped)
    seq;
  checkb "fault tripped the monitor somewhere" true (!tripped > 0)

(* ---- QCheck: hidden global state would break same-process re-runs ------ *)

let route_table (sim : Runner.sim) =
  let n = Array.length sim.Runner.agents in
  List.init n (fun i ->
      List.init n (fun d ->
          if d = i then None
          else
            Option.map Packets.Node_id.to_int
              (sim.Runner.agents.(i).Routing.Agent.successor
                 (Packets.Node_id.of_int d))))

let run_once sc =
  let sim = Runner.build sc in
  Engine.run ~until:(Time.add sc.Scenario.duration (Time.sec 2.)) sim.Runner.engine;
  Runner.finish sim;
  ( Metrics.originated sim.Runner.sim_metrics,
    Metrics.delivered sim.Runner.sim_metrics,
    Engine.events_processed sim.Runner.engine,
    Net.Channel.transmissions sim.Runner.channel,
    route_table sim )

let rerun_deterministic =
  let gen =
    QCheck.(
      quad (int_range 5 12) (int_range 0 12) (int_range 1 6) (int_bound 10_000))
  in
  QCheck.Test.make
    ~name:"trial re-run in-process: identical packets and route tables"
    ~count:8 gen
    (fun (nodes, speed, pps, seed) ->
      let sc =
        small_scenario ~nodes ~speed_max:(float_of_int speed)
          ~pps:(float_of_int pps) ~duration:8. ~seed ()
      in
      let a = run_once sc and b = run_once sc in
      Stdlib.compare a b = 0)

(* ---- regression pins from the domain-safety audit ----------------------- *)

(* Interned strings live in the per-bus table (not a process global):
   concurrent trials interning disjoint vocabularies must each
   round-trip their own. *)
let intern_isolation () =
  let ok =
    Parallel.map ~jobs:2 4 (fun w ->
        let bus = Obs.Bus.create () in
        let ids =
          Array.init 64 (fun k ->
              Obs.Bus.intern bus (Printf.sprintf "w%d-name-%d" w k))
        in
        Array.for_all Fun.id
          (Array.mapi
             (fun k id ->
               Obs.Bus.name bus id = Printf.sprintf "w%d-name-%d" w k)
             ids))
  in
  checkb "every domain's intern table round-trips" true (Array.for_all Fun.id ok)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "parallel"
    [
      ( "executor",
        [
          Alcotest.test_case "map order & edges" `Quick map_order;
          Alcotest.test_case "exactly once" `Quick map_exactly_once;
          Alcotest.test_case "exception propagation" `Quick map_exception;
          Alcotest.test_case "resolve jobs" `Quick resolve_jobs;
        ] );
      ( "conformance",
        [
          Alcotest.test_case
            (Printf.sprintf "differential sweep jobs=1 vs jobs=%d" test_jobs)
            `Slow differential_sweep;
          Alcotest.test_case "fault-injection determinism" `Slow
            fault_determinism;
        ] );
      ("rerun", [ qt rerun_deterministic ]);
      ( "audit-regressions",
        [
          Alcotest.test_case "intern-table isolation" `Quick intern_isolation;
        ] );
    ]
