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
    naive_channel = false;
    heap_scheduler = false;
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
             plus the horizon one-shot. *)
          let ic = open_in jsonl in
          let n = ref 0 and last = ref "" in
          (try
             while true do
               last := input_line ic;
               incr n
             done
           with End_of_file -> close_in ic);
          checki "one sample per tick plus horizon" 7 !n;
          (* Telemetry lines carry per-domain arrays, which the flat
             trace parser rejects by design — check the time prefix. *)
          let horizon = Printf.sprintf "{\"t\":%d," (Time.sec 12. :> int) in
          checkb "last sample at the horizon" true
            (String.length !last >= String.length horizon
            && String.sub !last 0 (String.length horizon) = horizon)))

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

(* ---- Sampler horizon (satellite fix) ----------------------------------- *)

let sampler_final_sample () =
  (* 10 s duration + 2 s drain = a 12 s horizon that is NOT a multiple
     of the 5 s interval: samples at 0, 5, 10 — and now one at 12. *)
  with_tmp ".jsonl" (fun path ->
      ignore
        (Runner.run ~sample:(Time.sec 5.) ~sample_out:path (two_clusters ()));
      let ic = open_in path in
      let times = ref [] in
      (try
         while true do
           match Obs.Jsonl.parse_line (input_line ic) with
           | Some fields -> (
               match List.assoc_opt "t" fields with
               | Some (Obs.Jsonl.Int t) -> times := t :: !times
               | _ -> ())
           | None -> ()
         done
       with End_of_file -> close_in ic);
      let times = List.rev !times in
      checkb "final sample lands on the horizon" true
        (times
        = List.map
            (fun s -> (Time.sec s :> int))
            [ 0.; 5.; 10.; 12. ]))

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
        ] );
      ( "sampler",
        [
          Alcotest.test_case "horizon sample" `Quick sampler_final_sample;
        ] );
    ]
