(* Causal packet spans + runtime telemetry (PR 8).

   The span contract is differential, like the PDES one it rides on:
   a border-free sharded run must reconstruct to exactly the classic
   run's paths — same packets, same hops, same stage times — because
   span ids are (flow, seq) pairs carried in the messages themselves,
   not per-engine state.  Completeness is absolute: every delivered
   data packet must reconstruct to a complete origination-to-delivery
   path at any shard count. *)

open Sim
open Experiment

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Same two-cluster fixture as test_pdes: every node is more than a
   carrier-sense range from the other cluster and from any 2/3/4-way
   stripe border, so no transmission ever crosses shards. *)
let cluster x0 =
  List.concat_map
    (fun dx -> List.map (fun y -> Geom.Vec2.v (x0 +. dx) y) [ 60.; 150.; 240. ])
    [ 0.; 150.; 300. ]

let border_free ?(seed = 11) ?(shards = 1) () =
  let positions = cluster 150. @ cluster 1950. in
  {
    Scenario.label = "span-border-free";
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
    shards;
    mobility = Scenario.Waypoint;
    shadowing = None;
    churn = None;
    partition = None;
  }

let with_tmp suffix f =
  let path = Filename.temp_file "manet_span" suffix in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_trace path =
  match Obs.Reader.load path with
  | Ok t -> t
  | Error e -> Alcotest.failf "trace load: %s" e

(* ---- Reconstruction ---------------------------------------------------- *)

let spans_complete_classic () =
  with_tmp ".jsonl" (fun path ->
      let o = Runner.run ~trace_out:path (border_free ()) in
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

let spans_identical_across_shards () =
  let report sc =
    with_tmp ".jsonl" (fun path ->
        let o = Runner.run ~trace_out:path sc in
        let t = load_trace path in
        ( o.summary,
          Obs.Span.report ~name:(Obs.Reader.name t) (Obs.Reader.events t),
          read_file path ))
  in
  let s1, r1, bytes1 = report (border_free ()) in
  let s4, r4, bytes4 = report (border_free ~shards:4 ()) in
  checkb "summaries equal" true (Stdlib.compare s1 s4 = 0);
  (* The analyzer output — reconstruction counts, stage percentiles,
     waterfall — must match line for line... *)
  checkb "span reports identical" true (r1 = r4);
  (* ...and on a border-free run the merged shard trace is the classic
     trace, byte for byte. *)
  checkb "merged trace byte-identical" true (String.equal bytes1 bytes4)

let spans_complete_sharded () =
  with_tmp ".jsonl" (fun path ->
      let o = Runner.run ~trace_out:path (border_free ~shards:4 ()) in
      let t = load_trace path in
      let s = Obs.Span.reconstruct (Obs.Reader.events t) in
      let delivered =
        List.filter (fun p -> p.Obs.Span.p_delivered >= 0) s.Obs.Span.paths
      in
      checki "every delivery has a path" (Metrics.delivered o.metrics)
        (List.length delivered);
      List.iter
        (fun p -> checkb "complete at shards 4" true (Obs.Span.is_complete p))
        delivered)

let summary_reports_bytes () =
  with_tmp ".jsonl" (fun path ->
      ignore (Runner.run ~trace_out:path (border_free ()));
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

let expect_names ~pdes =
  [
    "manet_calendar_buckets";
    "manet_calendar_occupancy";
    "manet_events_per_second";
    "manet_events_processed_total";
    "manet_gc_minor_words_total";
    "manet_gc_promoted_words_total";
    "manet_queue_pending";
    "manet_sim_time_seconds";
  ]
  @ (if pdes then
       [
         "manet_pdes_border_mirrors_total";
         "manet_pdes_window_utilization";
         "manet_pdes_windows_total";
       ]
     else
       (* The spatial-index gauges ride the classic sampler only: a
          sharded run has one index per region. *)
       [
         "manet_grid_cells";
         "manet_grid_occupied_cells";
         "manet_grid_max_occupancy";
       ])
  |> List.sort String.compare

let telemetry_classic () =
  with_tmp ".prom" (fun prom ->
      with_tmp ".jsonl" (fun jsonl ->
          ignore
            (Runner.run ~telemetry_out:jsonl ~telemetry_prom:prom
               ~telemetry_every:(Time.sec 2.) (border_free ()));
          (match Obs.Telemetry.validate_prom prom with
          | Ok names ->
              checkb "classic metric names stable" true
                (names = expect_names ~pdes:false)
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

let telemetry_sharded () =
  with_tmp ".prom" (fun prom ->
      ignore
        (Runner.run ~telemetry_prom:prom ~telemetry_every:(Time.sec 2.)
           (border_free ~shards:4 ()));
      match Obs.Telemetry.validate_prom prom with
      | Ok names ->
          checkb "sharded metric names stable" true
            (names = expect_names ~pdes:true)
      | Error e -> Alcotest.failf "prom validation: %s" e)

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
        (Runner.run ~sample:(Time.sec 5.) ~sample_out:path (border_free ()));
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
          Alcotest.test_case "identical at shards 1 and 4" `Slow
            spans_identical_across_shards;
          Alcotest.test_case "complete at shards 4" `Quick
            spans_complete_sharded;
          Alcotest.test_case "summary byte totals" `Quick
            summary_reports_bytes;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "classic run validates" `Quick telemetry_classic;
          Alcotest.test_case "sharded run validates" `Quick telemetry_sharded;
          Alcotest.test_case "validator rejects garbage" `Quick
            telemetry_rejects_garbage;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "horizon sample" `Quick sampler_final_sample;
        ] );
    ]
