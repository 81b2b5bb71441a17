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

(* JSON string escapes: any byte string, escaped as a key and as a
   value (the value ASCII, a quarter of it control bytes), parses back to
   itself. *)
let escape_roundtrip_prop =
  QCheck.Test.make ~name:"jsonl escape round-trips" ~count:500
    QCheck.(
      pair string
        (string_gen_of_size Gen.(0 -- 20) Gen.(char_range '\000' '\127')))
    (fun (a, b) ->
      let e = Obs.Jsonl.escape in
      Obs.Jsonl.parse_line
        (Printf.sprintf "{\"%s\":\"%s\",\"n\":1}" (e a) (e b))
      = Some [ (a, Obs.Jsonl.Str b); ("n", Obs.Jsonl.Int 1) ])

(* Every escape the JSON grammar allows decodes, [\uXXXX] (surrogate
   pairs included) to UTF-8; a malformed one fails the line. *)
let jsonl_escapes () =
  let str l =
    match Obs.Jsonl.parse_line l with
    | Some [ ("s", Obs.Jsonl.Str s) ] -> Some s
    | _ -> None
  in
  let check_str name want line =
    Alcotest.(check (option string)) name want (str line)
  in
  check_str "short escapes" (Some "\"\\/\b\012\n\r\t")
    {|{"s":"\"\\\/\b\f\n\r\t"}|};
  check_str "control byte" (Some "a\tb") {|{"s":"a\u0009b"}|};
  check_str "BMP code point" (Some "\xc3\xa9\xe2\x82\xac")
    {|{"s":"\u00e9\u20AC"}|};
  check_str "surrogate pair" (Some "\xf0\x9f\x98\x80")
    {|{"s":"\ud83d\ude00"}|};
  check_str "lone surrogate" None {|{"s":"\ud83d"}|};
  check_str "unknown escape" None {|{"s":"\q"}|};
  check_str "short \\u" None {|{"s":"\u12"}|};
  check_str "bad hex" None {|{"s":"\u12g4"}|}

(* The [manet_sim trace --node/--dst/--drops] queries against the raw
   events of a short mobile LDR trace: a timeline is exactly one node's
   events in trace order, flap counts are the table writes that changed
   a successor, and drop bins add up to the drop-class events. *)
let trace_queries () =
  let trace_file = Filename.temp_file "obs_queries" ".jsonl" in
  (* A strip wider than carrier sense, so hidden terminals collide. *)
  ignore
    (Runner.run ~trace_out:trace_file
       {
         (scenario ~speed_max:20. ~duration:10. ~flows:8 ~nodes:30 ()) with
         terrain = Geom.Terrain.create ~width:1500. ~height:300.;
       });
  let t =
    match Obs.Reader.load trace_file with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  Sys.remove trace_file;
  let events = Array.to_list (Obs.Reader.events t) in
  let render ev =
    Format.asprintf "%a" (Obs.Event.pp ~name:(Obs.Reader.name t)) ev
  in
  let node = 3 in
  let own = List.filter (fun (ev : Obs.Event.t) -> ev.node = node) events in
  checkb "the node has events, and others too" true
    (own <> [] && List.length own < List.length events);
  Alcotest.(check (list string))
    "timeline = the node's events in trace order" (List.map render own)
    (Obs.Reader.timeline t ~node);
  (* Successor changes per (destination, node) from the raw events. *)
  let changes = Hashtbl.create 16 in
  List.iter
    (fun (ev : Obs.Event.t) ->
      if ev.kind = Obs.Event.Table_write && ev.b <> ev.c then
        let key = (ev.a, ev.node) in
        Hashtbl.replace changes key
          (1 + Option.value ~default:0 (Hashtbl.find_opt changes key)))
    events;
  let per_dst dst =
    Hashtbl.fold
      (fun (d, node) c acc -> if d = dst then (node, c) :: acc else acc)
      changes []
    |> List.sort compare
  in
  let total dst = List.fold_left (fun acc (_, c) -> acc + c) 0 (per_dst dst) in
  let dst =
    Hashtbl.fold (fun (d, _) _ best -> if total d > total best then d else best)
      changes 0
  in
  checkb "some route flapped" true (total dst > 1);
  let counted, rendered =
    List.partition_map
      (fun l ->
        match
          Scanf.sscanf_opt l "n%d: %d successor change(s)%!" (fun n c ->
              (n, c))
        with
        | Some nc -> Left nc
        | None -> Right l)
      (Obs.Reader.flaps t ~dst)
  in
  Alcotest.(check (list (pair int int)))
    "per-node flap counts" (per_dst dst) counted;
  checki "one line per change" (total dst) (List.length rendered);
  (* Drop-class events, and the bins of the drop report. *)
  let drops =
    List.length
      (List.filter
         (fun (ev : Obs.Event.t) ->
           match ev.kind with
           | Obs.Event.Data_drop | Ifq_drop | Collision -> true
           | _ -> false)
         events)
  in
  checkb "the run dropped something" true (drops > 0);
  let binned bins =
    List.fold_left
      (fun acc l ->
        match String.rindex_opt l ' ' with
        | Some i ->
            acc + int_of_string (String.sub l (i + 1) (String.length l - i - 1))
        | None -> Alcotest.failf "unparsable drop row %S" l)
      0
      (Obs.Reader.drop_report ~bins t)
  in
  checki "10 bins sum to the drops" drops (binned 10);
  checki "3 bins sum to the drops" drops (binned 3)

(* A path that opens but cannot be read as a trace, such as a
   directory, is an [Error], not an exception. *)
let load_directory () =
  match Obs.Reader.load (Filename.get_temp_dir_name ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a directory loaded as a trace"

let () =
  Alcotest.run "obs"
    [
      ( "bus",
        [
          Alcotest.test_case "seqnum pack order" `Quick seqnum_pack_order;
          Alcotest.test_case "null-sink differential" `Slow
            null_sink_differential;
          Alcotest.test_case "jsonl roundtrip" `Slow jsonl_roundtrip;
          Alcotest.test_case "jsonl escapes" `Quick jsonl_escapes;
          Alcotest.test_case "trace queries" `Quick trace_queries;
          Alcotest.test_case "load rejects a directory" `Quick load_directory;
          QCheck_alcotest.to_alcotest escape_roundtrip_prop;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "clean run" `Slow monitor_clean_run;
          Alcotest.test_case "catches stale seqno" `Slow
            monitor_catches_stale_seqno;
        ] );
    ]
