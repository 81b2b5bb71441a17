(* Full-stack scheduler differential: each seeded mobile scenario runs
   once on the calendar queue, recording its schedule/cancel/pop op
   sequence, and the recording then replays through the calendar and
   through the model checker's controlled queue.  Every replayed pop
   must fire the schedule op the live run fired ([Engine.replay_trace]
   raises on the first that does not), so this pins the calendar's
   ordering — same-instant FIFO ties, which MAC contention resolves
   through, and calendar retunes and far-tier migrations included —
   against the controlled queue's plain (time, seq) minimum on the
   whole protocol stack's op mix. *)

open Experiment

let checki = Alcotest.check Alcotest.int

let base protocol seed =
  Scenario.paper_50 protocol
  |> Scenario.with_duration (Sim.Time.sec 40.)
  |> Scenario.with_flows 8
  |> Scenario.with_seed seed

let replay_matches label (sc : Scenario.t) =
  let trace = ref None in
  let o =
    Runner.run ~on_engine:(fun e -> trace := Some (Sim.Engine.record_trace e)) sc
  in
  let trace = Option.get !trace in
  let pops = Sim.Engine.Trace.pops trace in
  checki (label ^ " recorded every event") o.events_processed pops;
  List.iter
    (fun (name, scheduler) ->
      checki
        (Printf.sprintf "%s %s replay" label name)
        pops
        (Sim.Engine.replay_trace ~scheduler trace))
    [ ("calendar", `Calendar); ("controlled", `Controlled) ]

let protocols =
  [
    ("ldr", Scenario.ldr);
    ("aodv", Scenario.aodv);
    ("dsr", Scenario.dsr);
    ("olsr", Scenario.olsr);
  ]

let diff_case (name, protocol) =
  Alcotest.test_case name `Slow (fun () ->
      List.iter
        (fun seed -> replay_matches name (base protocol seed))
        [ 1; 5 ])

(* The congested shape of the paper's Fig 5: pause 0, heavy flows. *)
let congested () =
  let sc =
    Scenario.paper_100 Scenario.ldr
    |> Scenario.with_pause (Sim.Time.sec 0.)
    |> Scenario.with_flows 30
    |> Scenario.with_duration (Sim.Time.sec 15.)
    |> Scenario.with_seed 3
  in
  replay_matches "congested" sc

(* The benchmark's churn-agg world at 200 nodes: LDR-AGG on a Manhattan
   grid with node churn.  Its churn plans are scheduled at set-up, tens
   of seconds out, so this is the case that runs the calendar's far
   tier and its retunes against the dense MAC timers. *)
let churn_agg () =
  let nodes = 200 in
  let height = sqrt (float_of_int nodes *. 15_000. /. 5.) in
  let sc =
    {
      (Scenario.paper_50 Scenario.ldr_agg) with
      Scenario.num_nodes = nodes;
      terrain = Geom.Terrain.create ~width:(5. *. height) ~height;
      net = { Net.Params.default with Net.Params.cs_range_m = 350. };
    }
    |> Scenario.with_mobility (Scenario.Manhattan { spacing = 200. })
    |> Scenario.with_churn (Some Scenario.default_churn)
    |> Scenario.with_duration (Sim.Time.sec 20.)
    |> Scenario.with_seed 7
  in
  replay_matches "churn-agg" sc

let () =
  Alcotest.run "engine-diff"
    [
      ( "trace replay",
        List.map diff_case protocols
        @ [
            Alcotest.test_case "congested 100-node" `Slow congested;
            Alcotest.test_case "churn-agg 200-node" `Slow churn_agg;
          ] );
    ]
