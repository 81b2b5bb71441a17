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
    traffic = { Traffic.num_flows = 3; packets_per_sec = 4. };
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

let with_tmp suffix f =
  let path = Filename.temp_file "manet_span" suffix in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* [q] over its own replay of the trace at [path]. *)
let query path q =
  let bus = Obs.Bus.create () in
  let answer = q bus in
  match Obs.Reader.replay path bus with
  | Ok () -> answer ()
  | Error e -> Alcotest.failf "trace replay: %s" e

(* ---- Reconstruction ---------------------------------------------------- *)

let spans_complete_classic () =
  with_tmp ".jsonl" (fun path ->
      let o = Runner.run ~trace_out:path (two_clusters ()) in
      let s = query path Obs.Span.reconstruct in
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

(* [manet_sim trace FILE] with no query flags ends its totals with the
   per-class byte table that the metrics sink counts from the Tx
   events. *)
let summary_reports_bytes () =
  with_tmp ".jsonl" (fun path ->
      ignore (Runner.run ~trace_out:path (two_clusters ()));
      with_tmp ".txt" @@ fun out ->
      checki "trace exits 0" 0
        (Sys.command
           (Printf.sprintf "../bin/manet_sim.exe trace %s > %s"
              (Filename.quote path) (Filename.quote out)));
      let lines =
        In_channel.with_open_bin out In_channel.input_all
        |> String.split_on_char '\n'
      in
      checkb "byte totals present" true
        (List.exists (fun l -> l = "tx bytes by class:") lines);
      checkb "data class listed" true
        (List.exists
           (fun l ->
             String.length l > 6 && String.trim l <> l
             && String.sub (String.trim l) 0 4 = "DATA")
           lines))

(* ---- Telemetry --------------------------------------------------------- *)

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
  with_tmp ".jsonl" (fun jsonl ->
      ignore
        (Runner.run ~telemetry_out:jsonl ~telemetry_every:(Time.sec 2.)
           (two_clusters ()));
      (* Ticks at 0,2,..,10 s (strictly before the 12 s horizon), plus
         the horizon one-shot.  Every line is a flat object the trace
         parser reads, with scalar engine gauges. *)
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
        = Some (Obs.Jsonl.Int (Time.sec 12. :> int))))

(* The whole JSONL schema, in line order: every sample carries exactly
   these keys with these JSON types. *)
let sampler_keys =
  [
    ("t", `Int); ("wall_s", `Number); ("events_per_s", `Number);
    ("pending", `Int); ("fired", `Int); ("inflight", `Int); ("ifq", `Int);
    ("originated", `Int); ("delivered", `Int); ("ratio", `Number);
    ("ctl_rate", `Number); ("rt_mean", `Number); ("fd_mean", `Number);
    ("cal_buckets", `Int); ("cal_occupancy", `Number); ("cal_scan", `Number);
    ("grid_cells", `Int); ("grid_occupied", `Int);
    ("grid_max_occupancy", `Int); ("gc_minor_words", `Number);
    ("gc_promoted_words", `Number);
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
          checkb "exactly the schema's keys, in order" true
            (List.map fst fields = List.map fst sampler_keys);
          List.iter
            (fun (key, kind) ->
              match (kind, List.assoc_opt key fields) with
              | `Int, Some (Obs.Jsonl.Int _)
              | `Number, Some (Obs.Jsonl.Int _ | Obs.Jsonl.Float _) ->
                  ()
              | _ -> Alcotest.failf "sample lacks a well-typed %S" key)
            sampler_keys)
        lines;
      checkb "first sample has no rate" true
        (match List.assoc_opt "events_per_s" (List.hd lines) with
        | Some (Obs.Jsonl.Int 0) -> true
        | Some (Obs.Jsonl.Float f) -> f = 0.
        | _ -> false);
      let last = List.nth lines 3 in
      checkb "traffic delivered by the horizon" true
        (match List.assoc_opt "delivered" last with
        | Some (Obs.Jsonl.Int d) -> d > 0
        | _ -> false))

(* [gc_minor_words] must count what was allocated since the last minor
   collection, not only what earlier collections swept. *)
let telemetry_counts_live_minor_words () =
  with_tmp ".jsonl" (fun path ->
      let e = Engine.create () in
      let g =
        {
          Obs.Telemetry.inflight = 0; ifq = 0; originated = 0; delivered = 0;
          control_tx = 0; rt_mean = 0.; fd_mean = 0.;
        }
      in
      let c = Obs.Telemetry.create path in
      Gc.minor ();
      Obs.Telemetry.record c e ~grid:(0, 0, 0) g;
      (* 400 cons cells of 3 words each. *)
      let rec cells n acc = if n = 0 then acc else cells (n - 1) (n :: acc) in
      ignore (Sys.opaque_identity (cells 400 []));
      Obs.Telemetry.record c e ~grid:(0, 0, 0) g;
      Obs.Telemetry.close c;
      let minor fields =
        match List.assoc_opt "gc_minor_words" fields with
        | Some (Obs.Jsonl.Int w) -> w
        | Some (Obs.Jsonl.Float w) -> int_of_float w
        | _ -> Alcotest.fail "sample lacks gc_minor_words"
      in
      match telemetry_lines path with
      | [ a; b ] ->
          checkb "minor words cover the allocation" true
            (minor b - minor a >= 1200)
      | _ -> Alcotest.fail "expected two samples")

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
          Alcotest.test_case "horizon sample" `Quick telemetry_horizon_sample;
          Alcotest.test_case "minor words between collections" `Quick
            telemetry_counts_live_minor_words;
        ] );
    ]
