(* Observability subsystem: event bus determinism, the continuous
   invariant monitor (clean runs and seeded corruption), and the JSONL
   round-trip through the trace analyzer. *)

open Sim

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

open Experiment

let scenario ?(seed = 7) ?(speed_max = 0.) ?(duration = 20.) ?(flows = 2)
    ?(nodes = 10) () =
  {
    Scenario.label = "obs-test";
    num_nodes = nodes;
    terrain = Geom.Terrain.create ~width:500. ~height:400.;
    placement = Scenario.Uniform;
    speed_min = (if speed_max > 0. then 1. else 0.);
    speed_max;
    pause = Time.sec 0.;
    duration = Time.sec duration;
    traffic =
      {
        Traffic.num_flows = flows;
        packets_per_sec = 4.;
        payload_bytes = 512;
        mean_flow_duration = Time.sec duration;
        startup_window = Time.sec 2.;
      };
    protocol = Scenario.ldr;
    net = Net.Params.default;
    seed;
    audit_loops = false;
    mobility = Scenario.Waypoint;
    shadowing = None;
    churn = None;
    partition = None;
  }

(* Sequence-number packing must preserve the lexicographic (stamp,
   counter) order — the monitor and the analyzer compare packed values
   only. *)
let seqnum_pack_order () =
  let open Packets in
  let cases =
    [
      (Seqnum.{ stamp = 0; counter = 0 }, Seqnum.{ stamp = 0; counter = 1 });
      (Seqnum.{ stamp = 0; counter = 999 }, Seqnum.{ stamp = 1; counter = 0 });
      (Seqnum.{ stamp = 3; counter = 7 }, Seqnum.{ stamp = 3; counter = 8 });
      ( Seqnum.{ stamp = 5; counter = 1 lsl 29 },
        Seqnum.{ stamp = 6; counter = 0 } );
    ]
  in
  List.iter
    (fun (lo, hi) ->
      checkb "pack preserves order" true (Seqnum.pack lo < Seqnum.pack hi);
      checkb "compare agrees" true Seqnum.(hi > lo))
    cases

(* The null-sink differential: attaching a sink that does nothing — or
   the JSONL trace writer, or the telemetry sampler — must not change
   the simulation at all: emission and sampling touch no RNG and no
   scheduling.  The sampler's own cadence is the only extra work the
   engine does, one event per sample line written.  Every figure the run
   reports is compared against the plain run ([compare], so NaN summary
   fields compare equal). *)
let null_sink_differential () =
  let plain = Runner.run (scenario ()) in
  let same ?(own_events = 0) name (o : Runner.outcome) =
    checki (name ^ ": events processed") plain.Runner.events_processed
      (o.Runner.events_processed - own_events);
    checki (name ^ ": transmissions") plain.Runner.transmissions
      o.Runner.transmissions;
    checkb (name ^ ": summary") true
      (compare
         (Metrics.summary plain.Runner.metrics)
         (Metrics.summary o.Runner.metrics)
      = 0)
  in
  let counted = ref 0 in
  let bus = Obs.Bus.create () in
  Obs.Bus.add_sink bus (fun _ -> incr counted);
  same "null sink" (Runner.run ~obs:bus (scenario ()));
  checkb "bus saw events" true (!counted > 100);
  let file = Filename.temp_file "obs_test" ".out" in
  let lines () =
    In_channel.with_open_bin file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.length
  in
  same "jsonl trace" (Runner.run ~trace_out:file (scenario ()));
  checkb "trace written" true (lines () > 100);
  let telemetry = Runner.run ~telemetry_out:file (scenario ()) in
  let samples = lines () in
  (* 20 s + 2 s drain at the default 1 s interval, plus the horizon. *)
  checki "telemetry samples" 23 samples;
  same ~own_events:samples "telemetry" telemetry;
  Sys.remove file

(* A healthy LDR run must never trip the monitor (Theorem 1). *)
let monitor_clean_run () =
  let outcome =
    Runner.run ~monitor:true (scenario ~speed_max:10. ~duration:30. ())
  in
  checki "no violations in clean run" 0 outcome.Runner.invariant_violations;
  checkb "delivered some" true (Metrics.delivered outcome.Runner.metrics > 0)

(* Seeded corruption: a forged newer-number RREP must trip the monitor
   at the offending write, and the analyzer must reconstruct the
   monitor's exact ring dump from the JSONL trace. *)
let monitor_catches_stale_seqno () =
  let trace_file = Filename.temp_file "obs_test" ".jsonl" in
  let injection = ref None in
  let first_viol = ref None in
  let window = ref [] in
  let viols = ref 0 in
  let outcome =
    Runner.run ~trace_out:trace_file
      ~prepare:(fun sim ->
        let m = Runner.attach_monitor ~quiet:true sim in
        Obs.Bus.add_sink sim.Runner.bus (fun ev ->
            if ev.Obs.Event.kind = Obs.Event.Violation && !first_viol = None
            then first_viol := Some (ev.Obs.Event.node, ev.Obs.Event.a));
        injection := Some (Fault.stale_seqno sim ~at:(Time.sec 10.));
        sim.Runner.cleanup <-
          (fun () ->
            viols := Obs.Monitor.violations m;
            window := Obs.Monitor.last_window m)
          :: sim.Runner.cleanup)
      (scenario ())
  in
  let inj = Option.get !injection in
  checkb "fault injected" true !(inj.Fault.injected);
  checkb "monitor fired" true (!viols >= 1);
  (* The injection record names the corrupted write: the first violation
     must be at the victim node, for the forged destination. *)
  (match !first_viol with
  | None -> Alcotest.fail "no violation event on the bus"
  | Some (node, dst) ->
      checki "violation at the injection victim" inj.Fault.victim node;
      checki "violation for the forged destination" inj.Fault.dst dst);
  checki "outcome reports violations" !viols
    outcome.Runner.invariant_violations;
  checkb "window non-empty" true (!window <> []);
  (match Obs.Reader.load trace_file with
  | Error e -> Alcotest.fail e
  | Ok t ->
      checki "trace records the violations" !viols (Obs.Reader.violations t);
      (match Obs.Reader.violation_window t (!viols - 1) with
      | None -> Alcotest.fail "violation window missing from trace"
      | Some (_line, lines) ->
          Alcotest.(check (list string))
            "analyzer window matches live ring dump" !window lines));
  Sys.remove trace_file

(* JSONL round-trip: every event written must come back, with labels
   re-interned so rendering matches the live pretty-printer. *)
let jsonl_roundtrip () =
  let trace_file = Filename.temp_file "obs_rt" ".jsonl" in
  let counted = ref 0 in
  let bus = Obs.Bus.create () in
  let oc = open_out trace_file in
  Obs.Bus.add_sink bus (Obs.Jsonl.sink bus oc);
  Obs.Bus.add_sink bus (fun _ -> incr counted);
  ignore (Runner.run ~obs:bus (scenario ~duration:10. ()));
  close_out oc;
  (match Obs.Reader.load trace_file with
  | Error e -> Alcotest.fail e
  | Ok t -> checki "all events round-trip" !counted (Obs.Reader.length t));
  Sys.remove trace_file

(* Telemetry emits one line per interval with valid flat JSON carrying
   the simulation gauges. *)
let telemetry_emits () =
  let sample_file = Filename.temp_file "obs_sample" ".jsonl" in
  ignore
    (Runner.run ~telemetry_out:sample_file ~telemetry_every:(Time.sec 2.)
       (scenario ~duration:10. ()));
  let ic = open_in sample_file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove sample_file;
  (* 10 s run + 2 s drain sampled every 2 s from t=0. *)
  checkb "several samples" true (List.length !lines >= 5);
  List.iter
    (fun l ->
      match Obs.Jsonl.parse_line l with
      | None -> Alcotest.fail ("unparseable sample line: " ^ l)
      | Some fields ->
          checkb "has t" true (List.mem_assoc "t" fields);
          checkb "has pending" true (List.mem_assoc "pending" fields);
          checkb "has fd_mean" true (List.mem_assoc "fd_mean" fields))
    !lines

let () =
  Alcotest.run "obs"
    [
      ( "bus",
        [
          Alcotest.test_case "seqnum pack order" `Quick seqnum_pack_order;
          Alcotest.test_case "null-sink differential" `Slow
            null_sink_differential;
          Alcotest.test_case "jsonl roundtrip" `Slow jsonl_roundtrip;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "clean run" `Slow monitor_clean_run;
          Alcotest.test_case "catches stale seqno" `Slow
            monitor_catches_stale_seqno;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "emits gauges" `Slow telemetry_emits ] );
    ]
