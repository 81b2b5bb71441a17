(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4), plus an ablation study over LDR's
   optimizations, the request-aggregation comparison, and four reports
   that also write a BENCH_*.json file: request floods per delivered
   packet (discovery), delivery under each scenario family with the
   invariant monitor armed (families), wire-codec throughput (codec)
   and model-checker exhaustiveness (mcheck).

     dune exec bench/main.exe                 -- reduced scale, everything
     dune exec bench/main.exe -- table1 fig7  -- selected experiments
     dune exec bench/main.exe -- --full all   -- paper-scale parameters
     dune exec bench/main.exe -- --quick all  -- smoke-test scale

   The paper's full scale is 900 s runs x 10 trials x 7 pause times; the
   default here is a calibrated reduction (shorter runs, fewer trials,
   trend-defining pause times) whose shapes match; see EXPERIMENTS.md.

   Simulator cost (wall time and words per event, trace overhead,
   parallel efficiency) is measured by the repository benchmark,
   perfbench/, layer by layer; this harness reports outcomes. *)

open Experiment
module Time = Sim.Time

type scale = {
  duration : float;  (** seconds of simulated time per run *)
  trials : int;
  pauses : float list;  (** pause times, seconds *)
}

let full_scale =
  { duration = 900.; trials = 10; pauses = [ 0.; 30.; 60.; 120.; 300.; 600.; 900. ] }

let default_scale = { duration = 120.; trials = 2; pauses = [ 0.; 120.; 900. ] }
let quick_scale = { duration = 30.; trials = 1; pauses = [ 0.; 900. ] }

let protocols =
  [
    Scenario.ldr;
    Scenario.ldr_agg;
    Scenario.aodv;
    Scenario.aodv_agg;
    Scenario.dsr;
    Scenario.olsr;
  ]

let scenario_for ~scale ~nodes ~flows ~pause protocol =
  let base =
    if nodes = 100 then Scenario.paper_100 protocol
    else Scenario.paper_50 protocol
  in
  base
  |> Scenario.with_flows flows
  |> Scenario.with_duration (Time.sec scale.duration)
  |> Scenario.with_pause (Time.sec pause)

(* Every pair of [xs] and [ys], [xs]-major. *)
let grid xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

(* A table's trials as one [Sweep.run] batch: the whole key × seed
   matrix runs on one domain per recommended core, and the result maps
   each key to its per-seed summaries, bit-identical at any job count. *)
let batch ~scale scenario keys =
  let cells =
    List.combine keys
      (Sweep.run ~jobs:0 (List.map scenario keys) ~trials:scale.trials)
  in
  fun key -> List.assoc key cells

(* One column of per-seed summaries, folded in seed order. *)
let column f sums = Stats.Welford.of_array (Array.map f sums)

let fmt_ci f sums =
  let w = column f sums in
  Stats.Table.mean_ci ~mean:(Stats.Welford.mean w) ~ci:(Stats.Welford.ci95 w)

let delivery s = s.Metrics.s_delivery_ratio
let latency s = s.Metrics.s_latency_ms
let net_load s = s.Metrics.s_network_load
let rreq_load s = s.Metrics.s_rreq_load
let dest_seqno s = s.Metrics.s_mean_dest_seqno

let heading title = Printf.printf "\n==== %s ====\n%!" title

(* Optional plot-ready CSV output (--csv DIR). *)
let csv_dir : string option ref = ref None

let write_csv ~name ~header rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Filename.concat dir (name ^ ".csv") in
      let oc = open_out path in
      output_string oc (String.concat "," header ^ "\n");
      List.iter (fun row -> output_string oc (String.concat "," row ^ "\n")) rows;
      close_out oc;
      Printf.printf "  (wrote %s)\n%!" path

let csv_point sums =
  let mean f = Stats.Welford.mean (column f sums) in
  [
    Printf.sprintf "%.6f" (mean delivery);
    Printf.sprintf "%.6f" (Stats.Welford.ci95 (column delivery sums));
    Printf.sprintf "%.3f" (mean latency);
    Printf.sprintf "%.4f" (mean net_load);
    Printf.sprintf "%.4f" (mean rreq_load);
    Printf.sprintf "%.4f" (mean dest_seqno);
  ]

let csv_point_header =
  [ "delivery"; "delivery_ci95"; "latency_ms"; "network_load"; "rreq_load";
    "mean_dest_seqno" ]

(* ---- Table 1: summary over all pause times, per traffic load ---------- *)

let table1 ~scale () =
  heading
    "Table 1: per-protocol summary (mean ± 95% CI over pause times, 50-node scenario)";
  let sums =
    batch ~scale
      (fun (flows, (protocol, pause)) ->
        scenario_for ~scale ~nodes:50 ~flows ~pause protocol)
      (grid [ 10; 30 ] (grid protocols scale.pauses))
  in
  List.iter
    (fun flows ->
      Printf.printf "\n-- %d flows (%g pps aggregate) --\n" flows
        (float_of_int flows *. 4.);
      let rows =
        List.map
          (fun protocol ->
            (* Pooled over pause times, each pause's seeds in order. *)
            let at pause = sums (flows, (protocol, pause)) in
            let pooled = Array.concat (List.map at scale.pauses) in
            [
              Scenario.protocol_name protocol;
              fmt_ci delivery pooled;
              fmt_ci latency pooled;
              fmt_ci net_load pooled;
              fmt_ci rreq_load pooled;
              fmt_ci (fun s -> s.Metrics.s_rrep_init) pooled;
              fmt_ci (fun s -> s.Metrics.s_rrep_recv) pooled;
            ])
          protocols
      in
      print_endline
        (Stats.Table.render
           ~header:
             [ "protocol"; "delivery"; "latency ms"; "net load"; "rreq load";
               "rrep init/rreq"; "rrep recv/rreq" ]
           rows))
    [ 10; 30 ]

(* ---- Figures 2-5: delivery ratio vs pause time ------------------------- *)

let delivery_figure ~scale ~nodes ~flows title =
  heading
    (Printf.sprintf "%s: delivery ratio vs pause time (%d nodes, %d flows)"
       title nodes flows);
  let sums =
    batch ~scale
      (fun (protocol, pause) ->
        scenario_for ~scale ~nodes ~flows ~pause protocol)
      (grid protocols scale.pauses)
  in
  let rows =
    List.map
      (fun pause ->
        string_of_int (int_of_float pause)
        :: List.map (fun p -> fmt_ci delivery (sums (p, pause))) protocols)
      scale.pauses
  in
  print_endline
    (Stats.Table.render
       ~header:("pause s" :: List.map Scenario.protocol_name protocols)
       rows);
  List.iter
    (fun protocol ->
      write_csv
        ~name:
          (Printf.sprintf "%s-%s"
             (String.map (fun c -> if c = ' ' then '_' else c)
                (String.lowercase_ascii title))
             (Scenario.protocol_name protocol))
        ~header:("pause_s" :: csv_point_header)
        (List.map
           (fun pause ->
             Printf.sprintf "%g" pause :: csv_point (sums (protocol, pause)))
           scale.pauses))
    protocols

let fig2 ~scale () = delivery_figure ~scale ~nodes:50 ~flows:10 "Fig 2"
let fig3 ~scale () = delivery_figure ~scale ~nodes:50 ~flows:30 "Fig 3"
let fig4 ~scale () = delivery_figure ~scale ~nodes:100 ~flows:10 "Fig 4"
let fig5 ~scale () = delivery_figure ~scale ~nodes:100 ~flows:30 "Fig 5"

(* ---- Figure 6: the QualNet cross-check (DSR draft 3 vs draft 7) -------- *)

let fig6 ~scale () =
  heading
    "Fig 6: Fig-3 cross-check, DSR with (draft 3) and without (draft 7) cache replies";
  let variants =
    [
      ("DSR/cache-replies", Scenario.dsr);
      ("DSR/no-cache-replies", Scenario.dsr_draft7);
      ("LDR (reference)", Scenario.ldr);
    ]
  in
  let sums =
    batch ~scale
      (fun (p, pause) -> scenario_for ~scale ~nodes:50 ~flows:30 ~pause p)
      (grid (List.map snd variants) scale.pauses)
  in
  let rows =
    List.map
      (fun pause ->
        string_of_int (int_of_float pause)
        :: List.map (fun (_, p) -> fmt_ci delivery (sums (p, pause))) variants)
      scale.pauses
  in
  print_endline
    (Stats.Table.render ~header:("pause s" :: List.map fst variants) rows)

(* ---- Figure 7: mean destination sequence number ------------------------- *)

let fig7 ~scale () =
  heading "Fig 7: mean destination sequence number, LDR vs AODV (50 nodes)";
  let protocols = [ Scenario.ldr; Scenario.aodv ] in
  let sums =
    batch ~scale
      (fun (flows, (p, pause)) -> scenario_for ~scale ~nodes:50 ~flows ~pause p)
      (grid [ 10; 30 ] (grid protocols scale.pauses))
  in
  List.iter
    (fun flows ->
      Printf.printf "\n-- %d flows --\n" flows;
      let rows =
        List.map
          (fun pause ->
            string_of_int (int_of_float pause)
            :: List.map
                 (fun p -> fmt_ci dest_seqno (sums (flows, (p, pause))))
                 protocols)
          scale.pauses
      in
      print_endline (Stats.Table.render ~header:[ "pause s"; "LDR"; "AODV" ] rows))
    [ 10; 30 ]

(* ---- Ablation: LDR's Section-4 optimizations --------------------------- *)

let ablation ~scale () =
  heading "Ablation: LDR optimizations (50 nodes, 10 flows, pause 0)";
  let variants =
    [
      ("all on (paper)", Ldr.Config.default);
      ("no multiple-RREPs", { Ldr.Config.default with opt_multiple_rreps = false });
      ("no request-as-error", { Ldr.Config.default with opt_request_as_error = false });
      ("no reduced-distance", { Ldr.Config.default with opt_reduced_distance = false });
      ("no min-lifetime", { Ldr.Config.default with opt_min_lifetime = false });
      ("no optimal-TTL", { Ldr.Config.default with opt_optimal_ttl = false });
      ("all off (plain)", Ldr.Config.plain);
    ]
  in
  let sums =
    batch ~scale
      (fun (_, config) ->
        scenario_for ~scale ~nodes:50 ~flows:10 ~pause:0. (Scenario.Ldr config))
      variants
  in
  let rows =
    List.map
      (fun ((name, _) as v) ->
        let p = sums v in
        [
          name;
          fmt_ci delivery p;
          fmt_ci latency p;
          fmt_ci net_load p;
          fmt_ci rreq_load p;
        ])
      variants
  in
  print_endline
    (Stats.Table.render
       ~header:[ "variant"; "delivery"; "latency ms"; "net load"; "rreq load" ]
       rows)

(* ---- Aggregation: RREQ batching / suppression / RREP fan-out ------------ *)

(* Per-seed [Runner.run ~monitor:true] — {!Sweep} never arms the
   invariant monitor, and the whole point of this table is showing the
   loop-freedom monitor stays silent while the aggregation layer
   rewrites and fans out RREPs.  Alongside the paper's metrics each row
   totals the layer's own event counters. *)
let monitored_point ~scale ~flows protocol =
  let sc = scenario_for ~scale ~nodes:50 ~flows ~pause:0. protocol in
  let suppressed = ref 0 and aggregated = ref 0 in
  let fanout = ref 0 and violations = ref 0 in
  let sums =
    Array.init scale.trials (fun i ->
        let o =
          Runner.run ~monitor:true (Scenario.with_seed (sc.Scenario.seed + i) sc)
        in
        let count = Metrics.event_count o.Runner.metrics in
        suppressed := !suppressed + count "rreq_suppressed";
        aggregated := !aggregated + count "rreq_aggregated";
        fanout := !fanout + count "rrep_fanout";
        violations := !violations + o.Runner.invariant_violations;
        o.Runner.summary)
  in
  let per_run c = Printf.sprintf "%.1f" (float_of_int !c /. float_of_int scale.trials) in
  [
    Scenario.protocol_name protocol;
    fmt_ci delivery sums;
    fmt_ci latency sums;
    fmt_ci net_load sums;
    fmt_ci rreq_load sums;
    per_run suppressed;
    per_run aggregated;
    per_run fanout;
    string_of_int !violations;
  ]

let aggregation ~scale () =
  heading
    "Aggregation: stock vs aggregated request floods (50 nodes, pause 0, monitor armed)";
  List.iter
    (fun flows ->
      Printf.printf "\n-- %d flows --\n" flows;
      print_endline
        (Stats.Table.render
           ~header:
             [ "protocol"; "delivery"; "latency ms"; "net load"; "rreq load";
               "suppr/run"; "piggyb/run"; "fanout/run"; "monitor viol" ]
           (List.map (monitored_point ~scale ~flows)
              [ Scenario.ldr; Scenario.ldr_agg; Scenario.aodv; Scenario.aodv_agg ])))
    [ 10; 30; 100 ]

(* ---- Discovery: floods per delivered packet, before/after the fixes ----- *)

(* The pre-fix ring-search behaviour is emulated where configuration
   can reach it: TIMEOUT_BUFFER = 0 reproduces the premature-retry bug
   (the per-attempt timer expiring with zero slack, so in-flight RREPs
   lose the race against the next flood).  The old [next_ttl] threshold
   overshoot (TTL 7 -> 9 -> ... instead of the RFC's jump to
   NET_DIAMETER) is not config-reachable post-fix; its effect is folded
   into the post-fix schedule these rows measure. *)

type discovery_row = {
  dr_label : string;
  dr_floods : float;  (* rreq_init per delivered data packet *)
  dr_rreq_tx : float;  (* hop-wise RREQ transmissions per delivered *)
  dr_delivery : float;
  dr_latency_ms : float;
}

let discovery_bench_json rows =
  let row r =
    Printf.sprintf
      "    { \"variant\": %S, \"floods_per_delivered\": %.4f, \
       \"rreq_tx_per_delivered\": %.4f, \"delivery\": %.4f, \
       \"latency_ms\": %.2f }"
      r.dr_label r.dr_floods r.dr_rreq_tx r.dr_delivery r.dr_latency_ms
  in
  String.concat "\n"
    [
      "{";
      "  \"benchmark\": \"discovery\",";
      "  \"scenario\": \"50 nodes, 30 flows, pause 0\",";
      "  \"note\": \"pre-fix variants emulate the shipped timeout bug via \
       TIMEOUT_BUFFER = 0; the next_ttl threshold-overshoot bug is not \
       config-reachable after the fix\",";
      "  \"rows\": [";
      String.concat ",\n" (List.map row rows);
      "  ]";
      "}";
    ]

let discovery ~scale () =
  heading
    "Discovery: route-request floods per delivered packet (50 nodes, 30 flows, pause 0)";
  let pre_ring = { Routing.Discovery.timeout_buffer = 0 } in
  let variants =
    [
      ("LDR pre-fix timeouts",
       Scenario.Ldr { Ldr.Config.default with ring = pre_ring });
      ("LDR", Scenario.ldr);
      ("LDR-AGG", Scenario.ldr_agg);
      ("AODV pre-fix timeouts",
       Scenario.Aodv { Aodv.default_config with ring = pre_ring });
      ("AODV", Scenario.aodv);
      ("AODV-AGG", Scenario.aodv_agg);
    ]
  in
  let results =
    List.map
      (fun (label, protocol) ->
        let sc = scenario_for ~scale ~nodes:50 ~flows:30 ~pause:0. protocol in
        let outcomes = Sweep.trial_outcomes sc ~n:scale.trials in
        let mean f =
          Stats.Welford.mean (column (fun o -> f o.Runner.summary) outcomes)
        in
        let floods, rreq_tx, delivered =
          Array.fold_left
            (fun (floods, rreq_tx, delivered) (o : Runner.outcome) ->
              let m = o.Runner.metrics in
              ( floods + Metrics.event_count m "rreq_init",
                rreq_tx
                + Option.value ~default:0
                    (List.assoc_opt "RREQ" (Metrics.control_by_kind m)),
                delivered + Metrics.delivered m ))
            (0, 0, 0) outcomes
        in
        let per_delivered c =
          if delivered = 0 then 0. else float_of_int c /. float_of_int delivered
        in
        {
          dr_label = label;
          dr_floods = per_delivered floods;
          dr_rreq_tx = per_delivered rreq_tx;
          dr_delivery = mean delivery;
          dr_latency_ms = mean latency;
        })
      variants
  in
  print_endline
    (Stats.Table.render
       ~header:
         [ "variant"; "floods/delivered"; "rreq tx/delivered"; "delivery";
           "latency ms" ]
       (List.map
          (fun r ->
            [
              r.dr_label;
              Printf.sprintf "%.4f" r.dr_floods;
              Printf.sprintf "%.4f" r.dr_rreq_tx;
              Printf.sprintf "%.4f" r.dr_delivery;
              Printf.sprintf "%.2f" r.dr_latency_ms;
            ])
          results));
  let oc = open_out "BENCH_discovery.json" in
  output_string oc (discovery_bench_json results);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  (wrote BENCH_discovery.json)\n%!"

(* ---- Scenario families: delivery per mobility model, monitor armed ------ *)

(* One delivery/overhead row per scenario family — waypoint, Manhattan
   grid, RPGM groups, shadowing, churn, partition-then-heal — with the
   LDR invariant monitor armed throughout (churn's crash-rebooted
   sequence numbers are the van Glabbeek loop stressor).

   ~15,000 m^2/node on the paper's 5:1 terrain aspect, with a 350 m
   carrier-sense range, puts the mean decode-range degree around 13,
   comfortably above the continuum-percolation threshold: the network
   is connected, delivery figures are meaningful, and the partition
   wall actually severs live paths. *)

type family_row = {
  fr_name : string;
  fr_delivery : float;
  fr_latency_ms : float;
  fr_network_load : float;
  fr_byte_load : float;
  fr_violations : int;
  fr_events : int;
}

let family_area_per_node = 15_000.

let family_scenarios ~nodes ~duration =
  let height = sqrt (float_of_int nodes *. family_area_per_node /. 5.) in
  let base =
    {
      (Scenario.paper_50 Scenario.ldr) with
      Scenario.label = Printf.sprintf "families-%dn" nodes;
      num_nodes = nodes;
      terrain = Geom.Terrain.create ~width:(5. *. height) ~height;
      duration = Time.sec duration;
      net = { Net.Params.default with Net.Params.cs_range_m = 350. };
      traffic = { Traffic.default_config with Traffic.num_flows = 10 };
    }
  in
  let manhattan = Scenario.Manhattan { spacing = 200. } in
  let rpgm =
    Scenario.Rpgm { groups = Stdlib.max 2 (nodes / 50); radius = 100. }
  in
  let partition =
    {
      Scenario.part_at = Time.sec (duration /. 4.);
      part_heal = Time.sec (duration *. 3. /. 4.);
      part_x_frac = 0.5;
    }
  in
  [
    ("waypoint", base);
    ("manhattan", Scenario.with_mobility manhattan base);
    ("rpgm", Scenario.with_mobility rpgm base);
    ("waypoint+shadow",
     Scenario.with_shadowing (Some Scenario.default_shadowing) base);
    ("waypoint+churn",
     Scenario.with_churn (Some Scenario.default_churn) base);
    ("manhattan+churn",
     base
     |> Scenario.with_mobility manhattan
     |> Scenario.with_churn (Some Scenario.default_churn));
    ("partition-heal", Scenario.with_partition (Some partition) base);
  ]

let families_json ~nodes ~duration rows =
  let row r =
    Printf.sprintf
      "    { \"family\": %S, \"delivery\": %.4f, \"latency_ms\": %.2f, \
       \"network_load\": %.4f, \"byte_load\": %.1f, \
       \"monitor_violations\": %d, \"events\": %d }"
      r.fr_name r.fr_delivery r.fr_latency_ms r.fr_network_load
      r.fr_byte_load r.fr_violations r.fr_events
  in
  String.concat "\n"
    [
      "{";
      "  \"benchmark\": \"families\",";
      Printf.sprintf
        "  \"scenario\": \"LDR, %d nodes, %g m2/node (5:1 aspect), 10 \
         flows, %g s simulated, seed 1, monitor armed\","
        nodes family_area_per_node duration;
      "  \"families\": [";
      String.concat ",\n" (List.map row rows);
      "  ]";
      "}";
    ]

let families ~scale () =
  let quick = scale.duration <= 30. in
  let nodes = if quick then 300 else 1000 in
  let duration = if quick then 20. else 60. in
  heading
    (Printf.sprintf
       "Scenario families: %d nodes, %g s, LDR invariant monitor armed" nodes
       duration);
  let rows =
    List.map
      (fun (name, sc) ->
        let o = Runner.run ~monitor:true sc in
        let m = o.Runner.metrics in
        if o.Runner.invariant_violations > 0 then
          Printf.printf "  !! %s: %d monitor violations\n%!" name
            o.Runner.invariant_violations;
        {
          fr_name = name;
          fr_delivery = Metrics.delivery_ratio m;
          fr_latency_ms = Metrics.mean_latency_ms m;
          fr_network_load = Metrics.network_load m;
          fr_byte_load = Metrics.byte_load m;
          fr_violations = o.Runner.invariant_violations;
          fr_events = o.Runner.events_processed;
        })
      (family_scenarios ~nodes ~duration)
  in
  print_endline
    (Stats.Table.render
       ~header:
         [ "family"; "delivery"; "latency ms"; "net load"; "ctl B/pkt";
           "monitor viol" ]
       (List.map
          (fun r ->
            [
              r.fr_name;
              Printf.sprintf "%.4f" r.fr_delivery;
              Printf.sprintf "%.2f" r.fr_latency_ms;
              Printf.sprintf "%.4f" r.fr_network_load;
              Printf.sprintf "%.1f" r.fr_byte_load;
              string_of_int r.fr_violations;
            ])
          rows));
  let oc = open_out "BENCH_families.json" in
  output_string oc (families_json ~nodes ~duration rows);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  (wrote BENCH_families.json)\n%!"

(* ---- Wire codec: encode/decode throughput over the Fig-5 mix ------------ *)

(* The packet population is not synthetic: a short Fig-5 run collects
   its own transmissions through a channel transmit hook, and the bench
   times [Frame.encode]/[Frame.decode] over exactly those frames — the
   same class mix (DATA/ACK/RREQ/...) the simulator meters airtime for.
   Decode includes the FCS verification, as on the hot trace path. *)

let codec_duration_s = 20.

let codec_bench ~scale:_ () =
  heading "Wire codec: encode/decode throughput over a captured Fig-5 packet mix";
  let sc =
    Scenario.paper_100 Scenario.ldr
    |> Scenario.with_flows 30
    |> Scenario.with_pause (Time.sec 0.)
    |> Scenario.with_duration (Time.sec codec_duration_s)
  in
  let captured = ref [] in
  ignore
    (Runner.run
       ~prepare:(fun sim ->
         Net.Channel.add_transmit_hook sim.Runner.channel (fun _src f ->
             captured := f :: !captured))
       sc);
  let frames = Array.of_list (List.rev !captured) in
  let n = Array.length frames in
  if n = 0 then failwith "codec bench: empty capture";
  let total_bytes =
    Array.fold_left (fun acc f -> acc + Net.Frame.encoded_length f) 0 frames
  in
  let encoded =
    Array.map
      (fun f -> (Net.Frame.family f, Net.Frame.src f, Net.Frame.encode f))
      frames
  in
  (* Enough passes over the population for O(100 ms) timings. *)
  let reps = Stdlib.max 1 (2_000_000 / n) in
  let packets = reps * n in
  let decode_errors = ref 0 in
  (* The least-disturbed wall time of three timed rounds; the
     allocation count is per round, as deterministic as the codec. *)
  let rounds = 3 in
  let measure pass =
    let m0 = Gc.minor_words () in
    let wall = ref infinity in
    for _ = 1 to rounds do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do pass () done;
      wall := Float.min !wall (Unix.gettimeofday () -. t0)
    done;
    let minor = (Gc.minor_words () -. m0) /. float_of_int rounds in
    (!wall, minor /. float_of_int packets)
  in
  let enc_s, enc_minor =
    measure (fun () ->
        Array.iter (fun f -> ignore (Sys.opaque_identity (Net.Frame.encode f))) frames)
  in
  let dec_s, dec_minor =
    measure (fun () ->
        Array.iter
          (fun (family, src, b) ->
            match Net.Frame.decode ~family ~ack_src:src b with
            | Ok _ -> ()
            | Error _ -> incr decode_errors)
          encoded)
  in
  if !decode_errors > 0 then
    Printf.printf "  !! %d decode errors on a clean capture\n%!" !decode_errors;
  let per_pkt_ns s = s /. float_of_int packets *. 1e9 in
  let mb_per_s s = float_of_int (total_bytes * reps) /. s /. 1e6 in
  let mix =
    let tbl = Hashtbl.create 8 in
    Array.iter
      (fun f ->
        let cls = Net.Frame.class_name f in
        let c, b = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl cls) in
        Hashtbl.replace tbl cls (c + 1, b + Net.Frame.encoded_length f))
      frames;
    List.sort compare (List.of_seq (Hashtbl.to_seq tbl))
  in
  print_endline
    (Stats.Table.render
       ~header:[ "direction"; "ns/packet"; "MB/s"; "minor words/packet" ]
       [
         [
           "encode";
           Printf.sprintf "%.1f" (per_pkt_ns enc_s);
           Printf.sprintf "%.1f" (mb_per_s enc_s);
           Printf.sprintf "%.1f" enc_minor;
         ];
         [
           "decode";
           Printf.sprintf "%.1f" (per_pkt_ns dec_s);
           Printf.sprintf "%.1f" (mb_per_s dec_s);
           Printf.sprintf "%.1f" dec_minor;
         ];
       ]);
  Printf.printf "  mix: %s\n%!"
    (String.concat ", "
       (List.map (fun (cls, (c, _)) -> Printf.sprintf "%s %d" cls c) mix));
  let json =
    String.concat "\n"
      [
        "{";
        "  \"benchmark\": \"wire-codec\",";
        Printf.sprintf
          "  \"scenario\": \"fig5-100n-30f-p0 capture, %g s simulated, seed 1\","
          codec_duration_s;
        Printf.sprintf "  \"packets\": %d," n;
        Printf.sprintf "  \"on_air_bytes\": %d," total_bytes;
        Printf.sprintf "  \"bench_passes\": %d," reps;
        "  \"mix\": [";
        String.concat ",\n"
          (List.map
             (fun (cls, (c, b)) ->
               Printf.sprintf "    { \"class\": %S, \"count\": %d, \"bytes\": %d }"
                 cls c b)
             mix);
        "  ],";
        Printf.sprintf
          "  \"encode\": { \"ns_per_packet\": %.1f, \"mb_per_s\": %.1f, \
           \"minor_words_per_packet\": %.1f },"
          (per_pkt_ns enc_s) (mb_per_s enc_s) enc_minor;
        Printf.sprintf
          "  \"decode\": { \"ns_per_packet\": %.1f, \"mb_per_s\": %.1f, \
           \"minor_words_per_packet\": %.1f },"
          (per_pkt_ns dec_s) (mb_per_s dec_s) dec_minor;
        Printf.sprintf "  \"decode_errors\": %d" !decode_errors;
        "}";
      ]
  in
  let oc = open_out "BENCH_wire.json" in
  output_string oc json;
  output_string oc "\n";
  close_out oc;
  Printf.printf "  (wrote BENCH_wire.json)\n%!"

(* ---- Model-checker exhaustiveness report --------------------------------- *)

(* One row per (fixture, protocol): the bounded schedule space explored
   exhaustively, with the pruning breakdown and the violation (if any).
   The AODV/LDR pair on the same fixture and bound is the paper's core
   claim in mechanical form: same space, AODV loops, LDR is silent. *)
let mcheck_bound = 18

let mcheck_json rows =
  let row (fixture, proto, secs, (r : Mcheck.Explorer.result)) =
    let s = r.Mcheck.Explorer.stats in
    Printf.sprintf
      "    {\"fixture\": \"%s\", \"protocol\": \"%s\", \"max_steps\": %d, \
       \"states\": %d, \"transitions\": %d, \"sleep_pruned\": %d, \
       \"state_merged\": %d, \"depth_cut\": %d, \"terminals\": %d, \
       \"replays\": %d, \"replayed_events\": %d, \"max_depth\": %d, \
       \"complete\": %b, \"violation\": %s, \"violation_depth\": %d, \
       \"wall_s\": %.3f}"
      fixture
      (Mcheck.Explorer.protocol_name proto)
      mcheck_bound s.Mcheck.Explorer.states s.transitions s.sleep_skipped
      s.state_merged s.depth_cut s.terminals s.replays s.replayed_events
      s.max_depth s.complete
      (match r.Mcheck.Explorer.violation with
      | Some v ->
          Printf.sprintf "\"%s\"" (Mcheck.Explorer.render_vkind v.v_kind)
      | None -> "null")
      (match r.Mcheck.Explorer.violation with
      | Some v -> List.length v.v_trace
      | None -> -1)
      secs
  in
  String.concat "\n"
    [
      "{";
      "  \"benchmark\": \"mcheck-exhaustiveness\",";
      "  \"method\": \"DFS over message-delivery/timer interleavings from \
       the fixture's post-prelude state; sleep-set DPOR plus digest-based \
       state matching; every state checked for successor-graph cycles and \
       monitor violations\",";
      "  \"runs\": [";
      String.concat ",\n" (List.map row rows);
      "  ]";
      "}";
    ]

let mcheck_bench ~scale:_ () =
  heading "Model checker: AODV loop vs LDR silence, same bounded space";
  let cases =
    [
      (Mcheck.Fixture.aodv_loop_3, Mcheck.Explorer.Aodv);
      (Mcheck.Fixture.aodv_loop_3, Mcheck.Explorer.Ldr);
    ]
  in
  let rows =
    List.map
      (fun (fx, proto) ->
        let t0 = Unix.gettimeofday () in
        let r =
          Mcheck.Explorer.explore ~max_steps:mcheck_bound
            ~stop_at_first:false fx proto
        in
        let secs = Unix.gettimeofday () -. t0 in
        let s = r.Mcheck.Explorer.stats in
        Printf.printf
          "  %-12s %-5s states=%-8d merged=%-8d sleep=%-6d complete=%b %s \
           (%.2f s)\n%!"
          fx.Mcheck.Fixture.name
          (Mcheck.Explorer.protocol_name proto)
          s.Mcheck.Explorer.states s.state_merged s.sleep_skipped s.complete
          (match r.Mcheck.Explorer.violation with
          | Some v -> Mcheck.Explorer.render_vkind v.v_kind
          | None -> "silent")
          secs;
        (fx.Mcheck.Fixture.name, proto, secs, r))
      cases
  in
  let oc = open_out "BENCH_mcheck.json" in
  output_string oc (mcheck_json rows);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  (wrote BENCH_mcheck.json)\n%!"

(* ---- Driver -------------------------------------------------------------- *)

let all_experiments =
  [
    ("table1", table1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("ablation", ablation);
    ("aggregation", aggregation);
    ("discovery", discovery);
    ("families", families);
    ("codec", codec_bench);
    ("mcheck", mcheck_bench);
  ]

let () =
  (* A benchmarking-sized minor heap (32 MB): the simulator's steady
     allocation rate otherwise makes minor-collection pauses a visible
     fraction of every measurement. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let args = List.tl (Array.to_list Sys.argv) in
  let scale = ref default_scale in
  let selected = ref [] in
  List.iter
    (fun a ->
      match a with
      | "--full" -> scale := full_scale
      | "--quick" -> scale := quick_scale
      | a when String.length a > 6 && String.sub a 0 6 = "--csv=" ->
          csv_dir := Some (String.sub a 6 (String.length a - 6))
      | "all" -> selected := List.map fst all_experiments
      | name when List.mem_assoc name all_experiments ->
          selected := !selected @ [ name ]
      | other ->
          Printf.eprintf
            "unknown argument %S (expected: table1 fig2..fig7 ablation aggregation discovery families codec mcheck all --full --quick --csv=DIR)\n"
            other;
          exit 2)
    args;
  let selected =
    if !selected = [] then List.map fst all_experiments else !selected
  in
  let scale = !scale in
  Printf.printf
    "Reproduction scale: %g s simulated, %d trial(s), pause times [%s]\n"
    scale.duration scale.trials
    (String.concat "; " (List.map (Printf.sprintf "%g") scale.pauses));
  Printf.printf "(paper scale: 900 s, 10 trials, 7 pause times -- pass --full)\n%!";
  let t0 = Unix.gettimeofday () in
  List.iter (fun name -> (List.assoc name all_experiments) ~scale ()) selected;
  Printf.printf "\nTotal wall time: %.1f s\n" (Unix.gettimeofday () -. t0)
