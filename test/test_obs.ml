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
    traffic = { Traffic.num_flows = flows; packets_per_sec = 4. };
    protocol = Scenario.ldr;
    net = Net.Params.default;
    seed;
    audit_loops = false;
    mobility = Scenario.Waypoint;
    shadowing = None;
    churn = None;
    partition = None;
    medium = Scenario.Radio;
  }

(* [query] over its own replay of the trace at [path]. *)
let replay_query path query =
  let bus = Obs.Bus.create () in
  let answer = query bus in
  Result.map answer (Obs.Reader.replay path bus)

(* A query answering the number of events replayed. *)
let count_events bus =
  let n = ref 0 in
  Obs.Bus.add_sink bus (fun _ -> incr n);
  fun () -> !n

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
  same "null sink"
    (Runner.run
       ~prepare:(fun sim ->
         Obs.Bus.add_sink sim.Runner.bus (fun _ -> incr counted))
       (scenario ()));
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

(* Sinks take kinds.  A [Tx]-only sink on a run sees nothing else, and
   with only it and the run's metrics attached [Rx] stays off, so no
   emit site builds one.  A sink added with no kind list sees every
   kind the run emits, the ones no metrics sink takes included. *)
let per_kind_gating () =
  let tx = ref 0 and other = ref 0 and rx_on = ref true in
  ignore
    (Runner.run
       ~prepare:(fun sim ->
         let bus = sim.Runner.bus in
         Obs.Bus.subscribe bus [ Obs.Event.Tx ] (fun ev ->
             if ev.Obs.Event.kind = Obs.Event.Tx then incr tx else incr other);
         rx_on := Obs.Bus.on bus Obs.Event.Rx)
       (scenario ~duration:5. ()));
  checkb "Rx off under a Tx-only sink" false !rx_on;
  checkb "the Tx sink saw transmissions" true (!tx > 0);
  checki "the Tx sink saw no other kind" 0 !other;
  let seen = Array.make (Obs.Event.index Span + 1) 0 in
  ignore
    (Runner.run
       ~prepare:(fun sim ->
         Obs.Bus.add_sink sim.Runner.bus (fun ev ->
             let k = Obs.Event.index ev.Obs.Event.kind in
             seen.(k) <- seen.(k) + 1);
         rx_on := Obs.Bus.on sim.Runner.bus Obs.Event.Rx)
       (scenario ~duration:5. ()));
  checkb "Rx on under an all-kinds sink" true !rx_on;
  List.iter
    (fun k ->
      checkb (Obs.Event.kind_name k ^ " seen") true
        (seen.(Obs.Event.index k) > 0))
    Obs.Event.[ Tx; Rx; Deliver; Proto; Table_write; Span ]

(* Emitting a [Tx] whose class is already interned allocates nothing:
   every run's metrics take [Tx], so this is paid per transmission.
   The label is the interned string itself, or an equal copy (as a
   replayed trace's labels are). *)
let interned_tx_allocates_nothing () =
  let bus = Obs.Bus.create () in
  let m = Metrics.attach bus in
  let emit cls n =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      Obs.Bus.tx bus ~time:Time.zero ~node:0 ~cls:(Obs.Bus.intern bus cls)
        ~dst:(-1) ~bytes:58
    done;
    Gc.minor_words () -. w0
  in
  ignore (emit "RREQ" 1);
  let copy = String.concat "" [ "RR"; "EQ" ] in
  List.iter
    (fun (what, cls) ->
      Alcotest.(check (float 0.))
        ("0 words per Tx, " ^ what) 0.
        (emit cls 1000 -. emit cls 0))
    [ ("same string", "RREQ"); ("equal copy", copy) ];
  checki "all counted" 2001 (Metrics.control_transmissions m)

(* Replay equals run: the run's JSONL trace, replayed onto a fresh bus
   with its own metrics sink, counts what the run counted, and its pcap
   capture counts the same per-class transmissions.  A mobile strip
   wider than carrier sense, with churn, so the runs drop packets and
   deliver MAC duplicates. *)
let replay_equals_run () =
  List.iter
    (fun (name, protocol) ->
      let trace = Filename.temp_file "obs_replay" ".jsonl" in
      let pcap = Filename.temp_file "obs_replay" ".pcap" in
      let run =
        (Runner.run ~trace_out:trace ~pcap_out:pcap
           {
             (scenario ~speed_max:20. ~duration:30. ~flows:8 ~nodes:30 ()) with
             terrain = Geom.Terrain.create ~width:1500. ~height:300.;
             protocol;
             churn = Some Scenario.default_churn;
           })
          .Runner.metrics
      in
      let replayed replay path =
        let bus = Obs.Bus.create () in
        let m = Metrics.attach bus in
        (match replay path bus with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: %s" name e);
        m
      in
      let jsonl = replayed Obs.Reader.replay trace in
      let on_air = replayed Net.Pcap.replay pcap in
      List.iter Sys.remove [ trace; pcap ];
      let same what ty f =
        Alcotest.check ty (name ^ ": " ^ what) (f run) (f jsonl)
      in
      let int = Alcotest.int and float = Alcotest.float 0. in
      let kinds = Alcotest.(list (pair string int)) in
      checkb (name ^ ": delivered some") true (Metrics.delivered run > 0);
      same "originated" int Metrics.originated;
      same "delivered" int Metrics.delivered;
      same "duplicates" int Metrics.duplicates;
      same "mean latency" float Metrics.mean_latency_ms;
      same "p50 latency" float Metrics.median_latency_ms;
      same "p99 latency" float Metrics.p99_latency_ms;
      same "mean hops" float Metrics.mean_hops;
      same "control_by_kind" kinds Metrics.control_by_kind;
      same "control_bytes_by_kind" kinds Metrics.control_bytes_by_kind;
      same "data tx" int Metrics.data_transmissions;
      same "data bytes" int Metrics.data_bytes;
      same "ack tx" int Metrics.ack_transmissions;
      same "ack bytes" int Metrics.ack_bytes;
      same "drops_by_reason" kinds Metrics.drops_by_reason;
      List.iter
        (fun ev -> same ev int (fun m -> Metrics.event_count m ev))
        [ "rreq_init"; "rrep_init"; "rrep_usable_recv" ];
      Alcotest.(check (list (pair string (pair int int))))
        (name ^ ": pcap classes") (Metrics.tx_classes run)
        (Metrics.tx_classes on_air))
    [ ("ldr", Scenario.ldr); ("dsr", Scenario.dsr); ("olsr", Scenario.olsr) ]

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
  (match replay_query trace_file Obs.Reader.violations with
  | Error e -> Alcotest.fail e
  | Ok found ->
      checki "trace records the violations" !viols (List.length found);
      let _line, lines = List.nth found (!viols - 1) in
      Alcotest.(check (list string))
        "analyzer window matches live ring dump" !window lines);
  Sys.remove trace_file

(* JSONL round-trip: every event written must come back, with labels
   re-interned so rendering matches the live pretty-printer. *)
let jsonl_roundtrip () =
  let trace_file = Filename.temp_file "obs_rt" ".jsonl" in
  let counted = ref 0 in
  let oc = open_out trace_file in
  ignore
    (Runner.run
       ~prepare:(fun sim ->
         let bus = sim.Runner.bus in
         Obs.Bus.add_sink bus (Obs.Jsonl.sink bus oc);
         Obs.Bus.add_sink bus (fun _ -> incr counted))
       (scenario ~duration:10. ()));
  close_out oc;
  (match replay_query trace_file count_events with
  | Error e -> Alcotest.fail e
  | Ok n -> checki "all events round-trip" !counted n);
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
  let query q =
    match replay_query trace_file q with
    | Ok answer -> answer
    | Error e -> Alcotest.fail e
  in
  (* The raw events, copied out of the replay's reused record. *)
  let bus = Obs.Bus.create () in
  let events = ref [] in
  Obs.Bus.add_sink bus (fun ev ->
      let copy = Obs.Event.make () in
      Obs.Event.copy_into ~src:ev ~dst:copy;
      events := copy :: !events);
  checkb "replayed" true (Result.is_ok (Obs.Reader.replay trace_file bus));
  let events = List.rev !events in
  let render ev =
    Format.asprintf "%a" (Obs.Event.pp ~name:(Obs.Bus.name bus)) ev
  in
  let node = 3 in
  let own = List.filter (fun (ev : Obs.Event.t) -> ev.node = node) events in
  checkb "the node has events, and others too" true
    (own <> [] && List.length own < List.length events);
  Alcotest.(check (list string))
    "timeline = the node's events in trace order" (List.map render own)
    (query (Obs.Reader.timeline ~node));
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
      (query (Obs.Reader.flaps ~dst))
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
      (query (Obs.Reader.drop_report ~bins))
  in
  checki "10 bins sum to the drops" drops (binned 10);
  checki "3 bins sum to the drops" drops (binned 3);
  Sys.remove trace_file

(* A path that opens but cannot be read as a trace, such as a
   directory, is an [Error], not an exception. *)
let load_directory () =
  match replay_query (Filename.get_temp_dir_name ()) count_events with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a directory replayed as a trace"

(* A malformed line anywhere fails the whole file: every query answers
   the one error, and [manet_sim trace] prints that line alone on
   stderr, nothing on stdout, and exits 1.  A good line sits on each
   side of the bad one, and a truncated last line is malformed too, as
   is a line lacking a field [Jsonl] always writes or one with a
   negative time. *)
let malformed_lines () =
  let good =
    {|{"t":1000,"n":3,"k":"tx","s":"DATA","a":0,"b":4,"c":512,"d":-1,"e":-1,"f":-1}|}
  in
  let viol =
    {|{"t":2000,"n":3,"k":"viol","a":1,"b":4,"c":0,"d":0,"e":2,"f":3}|}
  in
  List.iter
    (fun (name, lines) ->
      let path = Filename.temp_file "obs_malformed" ".jsonl" in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (String.concat "\n" lines));
      let want = Printf.sprintf "1 malformed line(s) in %s" path in
      let check_query what q =
        Alcotest.(check (option string))
          (name ^ ": " ^ what ^ " answers the error") (Some want)
          (Result.fold ~ok:(fun _ -> None) ~error:Option.some
             (replay_query path q))
      in
      check_query "summary" Obs.Reader.summary;
      check_query "classes" (fun bus ->
          let m = Metrics.attach bus in
          fun () -> Metrics.tx_classes m);
      check_query "timeline" (Obs.Reader.timeline ~node:3);
      check_query "flaps" (Obs.Reader.flaps ~dst:1);
      check_query "drops" Obs.Reader.drop_report;
      check_query "violations" Obs.Reader.violations;
      check_query "spans" Obs.Span.reconstruct;
      let out = Filename.temp_file "obs_malformed" ".out" in
      let err = Filename.temp_file "obs_malformed" ".err" in
      List.iter
        (fun args ->
          let code =
            Sys.command
              (Printf.sprintf "../bin/manet_sim.exe trace %s %s > %s 2> %s"
                 (Filename.quote path) args (Filename.quote out)
                 (Filename.quote err))
          in
          let read f = In_channel.with_open_bin f In_channel.input_all in
          let what = Printf.sprintf "%s: trace %s" name args in
          checki (what ^ " exits 1") 1 code;
          Alcotest.(check string) (what ^ " prints nothing") "" (read out);
          Alcotest.(check string)
            (what ^ " prints the error line") (want ^ "\n")
            (read err))
        [ ""; "--classes"; "--node 3"; "--dst 1"; "--drops"; "--violations";
          "--spans --flow 0"; "--node 3 --spans --violations" ];
      List.iter Sys.remove [ path; out; err ])
    [
      ("malformed middle line", [ good; {|{"t":1500,"n":3,"k":|}; viol; "" ]);
      ("truncated last line", [ good; viol; {|{"t":2500,"n":3,"k":"tx","a"|} ]);
      ("line lacking fields", [ good; {|{"k":"tx"}|}; viol ]);
      ( "line lacking one payload field",
        [ good; {|{"t":1500,"n":3,"k":"tx","s":"DATA","a":0,"b":4,"c":512,"d":-1,"e":-1}|}; viol ] );
      ( "negative time",
        [ good; {|{"t":-1,"n":3,"k":"tx","s":"DATA","a":0,"b":4,"c":512,"d":-1,"e":-1,"f":-1}|}; viol ] );
      ( "labelled line without its label",
        [ good; {|{"t":2000,"n":4,"k":"tx","a":0,"b":-1,"c":58,"d":-1,"e":-1,"f":-1}|}; viol ] );
    ]

(* [Jsonl] writes no "s" for a labelled kind whose [a] is negative (no
   label), so such a line is an event, not a malformed one. *)
let unlabelled_line_kept () =
  let path = Filename.temp_file "obs_unlabelled" ".jsonl" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (String.concat "\n"
           [
             {|{"t":1000,"n":3,"k":"tx","s":"DATA","a":0,"b":4,"c":512,"d":-1,"e":-1,"f":-1}|};
             {|{"t":2000,"n":4,"k":"tx","a":-1,"b":-1,"c":58,"d":-1,"e":-1,"f":-1}|};
           ]));
  let result = replay_query path count_events in
  Sys.remove path;
  Alcotest.(check (result int string)) "both lines replay" (Ok 2) result

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
          Alcotest.test_case "malformed lines fail every query" `Quick
            malformed_lines;
          QCheck_alcotest.to_alcotest escape_roundtrip_prop;
          Alcotest.test_case "label-less line with a < 0 replays" `Quick
            unlabelled_line_kept;
          Alcotest.test_case "per-kind gating" `Quick per_kind_gating;
          Alcotest.test_case "interned tx allocates nothing" `Quick
            interned_tx_allocates_nothing;
          Alcotest.test_case "replay equals run" `Slow replay_equals_run;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "clean run" `Slow monitor_clean_run;
          Alcotest.test_case "catches stale seqno" `Slow
            monitor_catches_stale_seqno;
        ] );
    ]
