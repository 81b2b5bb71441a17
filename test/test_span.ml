(* Causal packet spans + runtime telemetry.

   Completeness is absolute: every delivered data packet must
   reconstruct to a complete origination-to-delivery path.  Span ids
   are (flow, seq) pairs carried in the messages themselves, not
   per-engine state. *)

open Sim
open Experiment

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Two static three-by-three clusters, more than a carrier-sense range
   apart. *)
let cluster x0 =
  List.concat_map
    (fun dx -> List.map (fun y -> Geom.Vec2.v (x0 +. dx) y) [ 60.; 150.; 240. ])
    [ 0.; 150.; 300. ]

let two_clusters ?(seed = 11) () =
  let positions = cluster 150. @ cluster 1950. in
  {
    Scenario.label = "span-two-clusters";
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
    protocol = Scenario.ldr;
    net = Net.Params.default;
    seed;
    audit_loops = false;
    mobility = Scenario.Waypoint;
    shadowing = None;
    churn = None;
    partition = None;
  }

let with_tmp suffix f =
  let path = Filename.temp_file "manet_span" suffix in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let load_trace path =
  match Obs.Reader.load path with
  | Ok t -> t
  | Error e -> Alcotest.failf "trace load: %s" e

(* ---- Reconstruction ---------------------------------------------------- *)

let spans_complete_classic () =
  with_tmp ".jsonl" (fun path ->
      let o = Runner.run ~trace_out:path (two_clusters ()) in
      let t = load_trace path in
      let s = Obs.Span.reconstruct (Obs.Reader.events t) in
      let delivered =
        List.filter (fun p -> p.Obs.Span.p_delivered >= 0) s.Obs.Span.paths
      in
      checki "every delivery has a path" (Metrics.delivered o.metrics)
        (List.length delivered);
      List.iter
        (fun p ->
          checkb "delivered path complete" true (Obs.Span.is_complete p))
        delivered;
      checkb "saw ring attempts" true (s.Obs.Span.ring_attempts > 0))

let summary_reports_bytes () =
  with_tmp ".jsonl" (fun path ->
      ignore (Runner.run ~trace_out:path (two_clusters ()));
      let t = load_trace path in
      let lines = Obs.Reader.summary t in
      checkb "byte totals present" true
        (List.exists (fun l -> l = "tx bytes by class:") lines);
      checkb "data class listed" true
        (List.exists
           (fun l ->
             String.length l > 6 && String.trim l <> l
             && String.sub (String.trim l) 0 4 = "DATA")
           lines))

(* ---- Telemetry --------------------------------------------------------- *)

let expect_names =
  List.sort String.compare
    [
      "manet_calendar_buckets";
      "manet_calendar_occupancy";
      "manet_events_per_second";
      "manet_events_processed_total";
      "manet_gc_minor_words_total";
      "manet_gc_promoted_words_total";
      "manet_queue_pending";
      "manet_sim_time_seconds";
      "manet_grid_cells";
      "manet_grid_occupied_cells";
      "manet_grid_max_occupancy";
    ]

(* Read a telemetry JSONL file, one field list per line. *)
let telemetry_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       match Obs.Jsonl.parse_line (input_line ic) with
       | Some fields -> lines := fields :: !lines
       | None -> Alcotest.fail "telemetry line does not parse"
     done
   with End_of_file -> close_in ic);
  List.rev !lines

let telemetry_classic () =
  with_tmp ".prom" (fun prom ->
      with_tmp ".jsonl" (fun jsonl ->
          ignore
            (Runner.run ~telemetry_out:jsonl ~telemetry_prom:prom
               ~telemetry_every:(Time.sec 2.) (two_clusters ()));
          (match Obs.Telemetry.validate_prom prom with
          | Ok names ->
              checkb "classic metric names stable" true
                (names = expect_names)
          | Error e -> Alcotest.failf "prom validation: %s" e);
          (* Ticks at 0,2,..,10 s (strictly before the 12 s horizon),
             plus the horizon one-shot.  Every line is a flat object the
             trace parser reads, with scalar engine gauges. *)
          let samples = telemetry_lines jsonl in
          checki "one sample per tick plus horizon" 7 (List.length samples);
          List.iter
            (fun fields ->
              match List.assoc_opt "pending" fields with
              | Some (Obs.Jsonl.Int _) -> ()
              | _ -> Alcotest.fail "sample lacks an int pending gauge")
            samples;
          checkb "last sample at the horizon" true
            (List.assoc_opt "t" (List.nth samples 6)
            = Some (Obs.Jsonl.Int (Time.sec 12. :> int)))))

let telemetry_rejects_garbage () =
  with_tmp ".prom" (fun path ->
      let oc = open_out path in
      output_string oc "9bad_name 1\n";
      close_out oc;
      checkb "bad metric name rejected" true
        (Result.is_error (Obs.Telemetry.validate_prom path));
      let oc = open_out path in
      output_string oc "ok_name{unterminated=\"x 1\n";
      close_out oc;
      checkb "bad label block rejected" true
        (Result.is_error (Obs.Telemetry.validate_prom path));
      let oc = open_out path in
      output_string oc "ok_name not_a_number\n";
      close_out oc;
      checkb "bad value rejected" true
        (Result.is_error (Obs.Telemetry.validate_prom path)))

let sampler_keys =
  [
    ("t", `Int); ("pending", `Int); ("fired", `Int); ("inflight", `Int);
    ("ifq", `Int); ("originated", `Int); ("delivered", `Int);
    ("ratio", `Number); ("ctl_rate", `Number); ("rt_mean", `Number);
    ("fd_mean", `Number); ("cal_scan", `Number);
  ]

let telemetry_horizon_sample () =
  (* 10 s duration + 2 s drain = a 12 s horizon that is NOT a multiple
     of the 5 s interval: samples at 0, 5, 10 — and one at 12.  Every
     line carries the simulation gauges with their JSON types. *)
  with_tmp ".jsonl" (fun path ->
      ignore
        (Runner.run ~telemetry_out:path ~telemetry_every:(Time.sec 5.)
           (two_clusters ()));
      let lines = telemetry_lines path in
      checkb "final sample lands on the horizon" true
        (List.map (fun f -> List.assoc_opt "t" f) lines
        = List.map
            (fun s -> Some (Obs.Jsonl.Int (Time.sec s :> int)))
            [ 0.; 5.; 10.; 12. ]);
      List.iter
        (fun fields ->
          List.iter
            (fun (key, kind) ->
              match (kind, List.assoc_opt key fields) with
              | `Int, Some (Obs.Jsonl.Int _)
              | `Number, Some (Obs.Jsonl.Int _ | Obs.Jsonl.Float _) ->
                  ()
              | _ -> Alcotest.failf "sample lacks a well-typed %S" key)
            sampler_keys)
        lines;
      let last = List.nth lines 3 in
      checkb "traffic delivered by the horizon" true
        (match List.assoc_opt "delivered" last with
        | Some (Obs.Jsonl.Int d) -> d > 0
        | _ -> false))

let () =
  Alcotest.run "span"
    [
      ( "reconstruction",
        [
          Alcotest.test_case "complete on classic run" `Quick
            spans_complete_classic;
          Alcotest.test_case "summary byte totals" `Quick
            summary_reports_bytes;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "classic run validates" `Quick telemetry_classic;
          Alcotest.test_case "validator rejects garbage" `Quick
            telemetry_rejects_garbage;
          Alcotest.test_case "horizon sample" `Quick telemetry_horizon_sample;
        ] );
    ]
