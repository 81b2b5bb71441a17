(* Command-line front end for the MANET simulator.

     manet_sim run   --protocol ldr --nodes 50 --flows 10 --pause 30 ...
     manet_sim sweep --protocol aodv --pauses 0,120,900 --trials 3 ...

   `run` executes one scenario and prints its metrics; `sweep` produces a
   delivery-ratio series over pause times, like the paper's figures. *)

open Cmdliner
open Experiment
module Time = Sim.Time

let protocol_conv =
  let parse = function
    | "ldr" -> Ok Scenario.ldr
    | "ldr-plain" -> Ok (Scenario.Ldr Ldr.Config.plain)
    | "aodv" -> Ok Scenario.aodv
    | "dsr" -> Ok Scenario.dsr
    | "dsr-draft7" -> Ok Scenario.dsr_draft7
    | "olsr" -> Ok Scenario.olsr
    | "ldr-agg" -> Ok Scenario.ldr_agg
    | "aodv-agg" -> Ok Scenario.aodv_agg
    | s -> Error (`Msg (Printf.sprintf "unknown protocol %S" s))
  in
  let print fmt p = Format.pp_print_string fmt (Scenario.protocol_name p) in
  Arg.conv (parse, print)

let protocol =
  Arg.(
    value
    & opt protocol_conv Scenario.ldr
    & info [ "p"; "protocol" ] ~docv:"PROTO"
        ~doc:
          "Routing protocol: ldr, ldr-plain, ldr-agg, aodv, aodv-agg, dsr, \
           dsr-draft7, olsr.")

(* Numeric options are range-checked while parsing, so a bad value is a
   usage error (one line naming the option, exit 124) rather than an
   exception from deep inside the simulator. *)
let checked conv ~what ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let finite_float ~what ok =
  checked Arg.float ~what (fun f -> Float.is_finite f && ok f)

let positive = finite_float ~what:"a positive number" (fun f -> f > 0.)
let non_negative = finite_float ~what:"a non-negative number" (fun f -> f >= 0.)

let at_least n =
  checked Arg.int ~what:(Printf.sprintf "at least %d" n) (fun v -> v >= n)

(* The clock ticks in nanoseconds: above 1e9 packets/s the packet
   interval is under one tick. *)
let rate =
  finite_float ~what:"a rate in (0, 1e9]" (fun f -> f > 0. && f <= 1e9)

let fraction =
  finite_float ~what:"a fraction in [0, 1]" (fun f -> f >= 0. && f <= 1.)

let nodes =
  Arg.(
    value
    & opt (checked int ~what:"at least 2 nodes" (fun n -> n >= 2)) 50
    & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes (at least 2).")

let width =
  Arg.(value & opt positive 1500. & info [ "width" ] ~docv:"M" ~doc:"Terrain width (m).")

let height =
  Arg.(value & opt positive 300. & info [ "height" ] ~docv:"M" ~doc:"Terrain height (m).")

let flows =
  Arg.(value & opt (at_least 0) 10 & info [ "f"; "flows" ] ~docv:"K" ~doc:"Concurrent CBR flows.")

let pps =
  Arg.(value & opt rate 4. & info [ "pps" ] ~docv:"R" ~doc:"Packets per second per flow.")

let pause =
  Arg.(
    value & opt non_negative 0.
    & info [ "pause" ] ~docv:"S" ~doc:"Random-waypoint pause time (s).")

let speed_max =
  Arg.(
    value & opt non_negative 20.
    & info [ "speed" ] ~docv:"V" ~doc:"Maximum node speed (m/s); 0 = static.")

let duration =
  Arg.(
    value & opt non_negative 120.
    & info [ "d"; "duration" ] ~docv:"S" ~doc:"Simulated seconds.")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"I" ~doc:"Random seed.")

let audit =
  Arg.(
    value & flag
    & info [ "audit-loops" ]
        ~doc:"Audit the successor graph for loops at every routing-table write.")

let json =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Print the outcome as one JSON object on stdout.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Stream every observability event to $(docv) as JSONL \
              ($(b,/dev/stderr) for a live log; analyse with \
              $(b,manet_sim trace), e.g. $(b,--node) $(i,N) for one \
              node's events).")

let pcap_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "pcap" ] ~docv:"FILE"
        ~doc:"Capture every transmitted frame, byte-exact with MAC \
              framing and FCS, to $(docv) as pcap (open in Wireshark or \
              analyse with $(b,manet_sim trace)).")

let monitor =
  Arg.(
    value & flag
    & info [ "monitor" ]
        ~doc:"Attach the continuous LDR invariant monitor: every \
              routing-table write is checked in O(1) against the \
              successor's stored invariants; violations print a \
              last-events window to stderr.")

let telemetry_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:"Write telemetry (events/s, calendar-queue occupancy, \
              frames in flight, queue depths, delivery ratio, control \
              rate, route-table sizes, mean feasible distance, \
              spatial-index health, GC counters) to $(docv) as JSONL, one \
              sample per $(b,--telemetry-every).")

let telemetry_every =
  Arg.(
    value & opt positive 1.
    & info [ "telemetry-every" ] ~docv:"DT"
        ~doc:"Telemetry sampling interval in simulated seconds.")

let inject_stale =
  Arg.(
    value
    & opt (some non_negative) None
    & info [ "inject-stale" ] ~docv:"T"
        ~doc:"Fault injection: at simulated second $(docv), feed one node \
              a forged RREP with an absurdly new sequence number — the \
              seeded corruption the invariant monitor is built to catch.")

(* --- world options: mobility family, link model, churn, state layout --- *)

let mobility_conv =
  let parse s =
    let bad () =
      Error
        (`Msg
          (Printf.sprintf
             "bad mobility %S (want waypoint, manhattan[:SPACING] or \
              rpgm[:GROUPS[:RADIUS]])"
             s))
    in
    match String.split_on_char ':' s with
    | [ "waypoint" ] -> Ok Scenario.Waypoint
    | "manhattan" :: rest -> (
        match rest with
        | [] -> Ok (Scenario.Manhattan { spacing = 100. })
        | [ sp ] -> (
            match float_of_string_opt sp with
            | Some spacing when spacing > 0. ->
                Ok (Scenario.Manhattan { spacing })
            | _ -> bad ())
        | _ -> bad ())
    | "rpgm" :: rest -> (
        let mk groups radius = Ok (Scenario.Rpgm { groups; radius }) in
        match rest with
        | [] -> mk 4 100.
        | [ g ] -> (
            match int_of_string_opt g with
            | Some g when g > 0 -> mk g 100.
            | _ -> bad ())
        | [ g; r ] -> (
            match (int_of_string_opt g, float_of_string_opt r) with
            | Some g, Some r when g > 0 && r > 0. -> mk g r
            | _ -> bad ())
        | _ -> bad ())
    | _ -> bad ()
  in
  let print fmt = function
    | Scenario.Waypoint -> Format.pp_print_string fmt "waypoint"
    | Scenario.Manhattan { spacing } ->
        Format.fprintf fmt "manhattan:%g" spacing
    | Scenario.Rpgm { groups; radius } ->
        Format.fprintf fmt "rpgm:%d:%g" groups radius
  in
  Arg.conv (parse, print)

let mobility =
  Arg.(
    value
    & opt mobility_conv Scenario.Waypoint
    & info [ "mobility" ] ~docv:"FAMILY"
        ~doc:
          "Mobility family: $(b,waypoint) (random waypoint), \
           $(b,manhattan:SPACING) (street-grid motion on a SPACING-metre \
           lattice) or $(b,rpgm:GROUPS:RADIUS) (reference-point group \
           mobility: GROUPS roaming clusters of radius RADIUS m).")

let shadow =
  Arg.(
    value
    & opt ~vopt:(Some Scenario.default_shadowing.Scenario.sigma_db)
        (some non_negative) None
    & info [ "shadow" ] ~docv:"SIGMA"
        ~doc:
          "Log-normal shadowing with $(docv) dB standard deviation \
           (default $(b,--shadow)=4): per-link fades are deterministic in \
           the seed, so reruns reproduce exactly.")

let churn =
  Arg.(
    value
    & opt ~vopt:(Some Scenario.default_churn.Scenario.churn_frac)
        (some fraction) None
    & info [ "churn" ] ~docv:"FRAC"
        ~doc:
          "Take a $(docv) fraction of nodes down once mid-run (default \
           $(b,--churn)=0.2); half the departures crash (losing all \
           routing state and sequence numbers) rather than leave \
           gracefully, then rejoin 10-30 s later.")

let partition =
  Arg.(
    value
    & opt
        (some
           (checked
              (pair ~sep:',' non_negative non_negative)
              ~what:"T1,T2 with T1 <= T2"
              (fun (t1, t2) -> t1 <= t2)))
        None
    & info [ "partition" ] ~docv:"T1,T2"
        ~doc:
          "Drop an opaque wall across the terrain's vertical midline from \
           second T1 until it heals at second T2 (T1 <= T2).")

type world_opts = {
  w_mobility : Scenario.mobility;
  w_shadowing : Scenario.shadowing option;
  w_churn : Scenario.churn option;
  w_partition : Scenario.partition option;
}

let world_term =
  let make w_mobility sigma churn partition =
    {
      w_mobility;
      w_shadowing =
        Option.map
          (fun sigma_db -> { Scenario.default_shadowing with sigma_db })
          sigma;
      w_churn =
        Option.map
          (fun churn_frac -> { Scenario.default_churn with churn_frac })
          churn;
      w_partition =
        Option.map
          (fun (t1, t2) ->
            {
              Scenario.part_at = Time.sec t1;
              part_heal = Time.sec t2;
              part_x_frac = 0.5;
            })
          partition;
    }
  in
  Term.(const make $ mobility $ shadow $ churn $ partition)

let trials =
  Arg.(value & opt (at_least 1) 3 & info [ "trials" ] ~docv:"T" ~doc:"Trials per point (sweep).")

let jobs =
  Arg.(
    value & opt (at_least 0) 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Fan the sweep's (pause $(b,x) seed) trial matrix across $(docv) \
           domains; per-seed results and aggregates are bit-identical to \
           $(docv)=1.  0 = one worker per recommended core.")

let pauses =
  Arg.(
    value
    & opt (list non_negative) [ 0.; 120.; 900. ]
    & info [ "pauses" ] ~docv:"LIST" ~doc:"Comma-separated pause times (sweep).")

let default_world =
  {
    w_mobility = Scenario.Waypoint;
    w_shadowing = None;
    w_churn = None;
    w_partition = None;
  }

let scenario ?(world = default_world) protocol nodes width height
    flows pps pause speed_max duration seed audit =
  {
    Scenario.label = "cli";
    num_nodes = nodes;
    terrain = Geom.Terrain.create ~width ~height;
    placement = Scenario.Uniform;
    speed_min = (if speed_max > 0. then 1. else 0.);
    speed_max;
    pause = Time.sec pause;
    duration = Time.sec duration;
    traffic = { Traffic.num_flows = flows; packets_per_sec = pps };
    protocol;
    net = Net.Params.default;
    seed;
    audit_loops = audit;
    mobility = world.w_mobility;
    shadowing = world.w_shadowing;
    churn = world.w_churn;
    partition = world.w_partition;
    medium = Scenario.Radio;
  }

(* Hand-rolled JSON: the trace schema is flat and the container ships no
   JSON library.  NaN (empty latency samples) must become null — NaN is
   not JSON. *)
let json_float f =
  if Float.is_nan f then "null" else Printf.sprintf "%.6g" f

let json_kind_counts pairs =
  String.concat ","
    (List.map
       (fun (k, v) -> Printf.sprintf "\"%s\":%d" (Obs.Jsonl.escape k) v)
       pairs)

let print_outcome_json (o : Runner.outcome) =
  let m = o.metrics in
  Printf.printf
    "{\"originated\":%d,\"delivered\":%d,\"duplicates\":%d,\
     \"delivery_ratio\":%s,\"mean_latency_ms\":%s,\"median_latency_ms\":%s,\
     \"p95_latency_ms\":%s,\"p99_latency_ms\":%s,\"mean_hops\":%s,\
     \"network_load\":%s,\
     \"byte_load\":%s,\
     \"rreq_load\":%s,\"control_tx\":%d,\"control_by_kind\":{%s},\
     \"control_bytes\":%d,\"control_bytes_by_kind\":{%s},\
     \"data_tx\":%d,\"data_bytes\":%d,\"ack_bytes\":%d,\
     \"frames_on_air\":%d,\"ifq_drops\":%d,\
     \"link_failures\":%d,\"drops_by_reason\":{%s},\"mean_dest_seqno\":%s,\
     \"loop_violations\":%d,\"invariant_violations\":%d,\
     \"events_processed\":%d}\n"
    (Metrics.originated m) (Metrics.delivered m) (Metrics.duplicates m)
    (json_float (Metrics.delivery_ratio m))
    (json_float (Metrics.mean_latency_ms m))
    (json_float (Metrics.median_latency_ms m))
    (json_float (Metrics.p95_latency_ms m))
    (json_float (Metrics.p99_latency_ms m))
    (json_float (Metrics.mean_hops m))
    (json_float (Metrics.network_load m))
    (json_float (Metrics.byte_load m))
    (json_float (Metrics.rreq_load m))
    (Metrics.control_transmissions m)
    (json_kind_counts (Metrics.control_by_kind m))
    (Metrics.control_bytes m)
    (json_kind_counts (Metrics.control_bytes_by_kind m))
    (Metrics.data_transmissions m)
    (Metrics.data_bytes m) (Metrics.ack_bytes m) o.transmissions
    o.mac_queue_drops o.mac_unicast_failures
    (json_kind_counts (Metrics.drops_by_reason m))
    (json_float (Metrics.mean_dest_seqno m))
    (Metrics.loop_violations m) o.invariant_violations o.events_processed

let print_outcome (o : Runner.outcome) =
  let m = o.metrics in
  Format.printf "originated        %d@." (Metrics.originated m);
  Format.printf "delivered         %d (+%d duplicate copies)@."
    (Metrics.delivered m) (Metrics.duplicates m);
  Format.printf "delivery ratio    %.4f@." (Metrics.delivery_ratio m);
  Format.printf "mean latency      %.2f ms (median %.2f, p95 %.2f, p99 %.2f)@."
    (Metrics.mean_latency_ms m) (Metrics.median_latency_ms m)
    (Metrics.p95_latency_ms m) (Metrics.p99_latency_ms m);
  Format.printf "mean path length  %.2f hops@." (Metrics.mean_hops m);
  Format.printf "network load      %.3f control tx / delivered@."
    (Metrics.network_load m);
  Format.printf "byte load         %.1f control B / delivered@."
    (Metrics.byte_load m);
  Format.printf "rreq load         %.3f@." (Metrics.rreq_load m);
  Format.printf "control tx        %d (%d B on air)@."
    (Metrics.control_transmissions m)
    (Metrics.control_bytes m);
  let bytes_by_kind = Metrics.control_bytes_by_kind m in
  List.iter
    (fun (kind, count) ->
      let bytes =
        match List.assoc_opt kind bytes_by_kind with Some b -> b | None -> 0
      in
      Format.printf "  %-6s %d (%d B)@." kind count bytes)
    (Metrics.control_by_kind m);
  Format.printf "data tx (hopwise) %d (%d B on air)@."
    (Metrics.data_transmissions m) (Metrics.data_bytes m);
  Format.printf "ack bytes on air  %d@." (Metrics.ack_bytes m);
  Format.printf "frames on air     %d@." o.transmissions;
  Format.printf "ifq drops         %d@." o.mac_queue_drops;
  Format.printf "link failures     %d@." o.mac_unicast_failures;
  List.iter
    (fun (reason, count) -> Format.printf "drop %-16s %d@." reason count)
    (Metrics.drops_by_reason m);
  Format.printf "mean dest seqno   %.2f@." (Metrics.mean_dest_seqno m);
  Format.printf "loop violations   %d@." (Metrics.loop_violations m);
  Format.printf "invariant viols   %d@." o.invariant_violations;
  Format.printf "events processed  %d@." o.events_processed

(* Fail up front, with one line and exit 1, on an output path that
   cannot be written: opening it (creating, never truncating) must
   succeed before any work starts.  A probe leaves no new file behind. *)
let check_writable path =
  let existed = Sys.file_exists path in
  match open_out_gen [ Open_wronly; Open_creat ] 0o644 path with
  | oc ->
      close_out oc;
      if not existed then Sys.remove path
  | exception Sys_error msg ->
      let prefix = path ^ ": " in
      let reason =
        if String.starts_with ~prefix msg then
          String.sub msg (String.length prefix)
            (String.length msg - String.length prefix)
        else msg
      in
      Printf.eprintf "manet_sim: cannot write %s: %s\n%!" path reason;
      exit 1

let run_cmd =
  let action protocol nodes width height flows pps pause speed_max duration
      seed audit json trace_out pcap_out monitor telemetry_out
      telemetry_every inject_stale world =
    List.iter check_writable
      (List.filter_map Fun.id [ trace_out; pcap_out; telemetry_out ]);
    let sc =
      scenario ~world protocol nodes width height flows pps pause
        speed_max duration seed audit
    in
    if not json then
      Format.printf
        "%s: %d nodes on %.0fx%.0fm, %d flows @@ %g pps, pause %gs, %gs@."
        (Scenario.protocol_name protocol)
        nodes width height flows pps pause duration;
    let prepare =
      Option.map
        (fun t sim -> ignore (Fault.stale_seqno sim ~at:(Time.sec t)))
        inject_stale
    in
    let outcome =
      Runner.run ~monitor ?trace_out ?pcap_out ?telemetry_out
        ~telemetry_every:(Time.sec telemetry_every) ?prepare sc
    in
    if json then print_outcome_json outcome else print_outcome outcome
  in
  let term =
    Term.(
      const action $ protocol $ nodes $ width $ height $ flows $ pps $ pause
      $ speed_max $ duration $ seed $ audit $ json $ trace_out
      $ pcap_out $ monitor $ telemetry_out $ telemetry_every
      $ inject_stale $ world_term)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one scenario and print its metrics.") term

let sweep_cmd =
  let action protocol nodes width height flows pps speed_max duration seed
      trials pauses audit jobs world =
    (* The whole (pause x seed) matrix is one parallel batch; each
       column folds in seed order, so any --jobs value prints the same
       table. *)
    let base =
      scenario ~world protocol nodes width height flows pps 0. speed_max
        duration seed audit
    in
    let series =
      Sweep.run ~jobs
        (List.map
           (fun pause ->
             { base with Experiment.Scenario.pause = Time.sec pause })
           pauses)
        ~trials
    in
    let mean_ci f sums =
      let w = Stats.Welford.of_array (Array.map f sums) in
      Stats.Table.mean_ci ~mean:(Stats.Welford.mean w) ~ci:(Stats.Welford.ci95 w)
    in
    let rows =
      List.map2
        (fun pause sums ->
          [
            Printf.sprintf "%g" pause;
            mean_ci (fun s -> s.Metrics.s_delivery_ratio) sums;
            mean_ci (fun s -> s.Metrics.s_latency_ms) sums;
            mean_ci (fun s -> s.Metrics.s_network_load) sums;
            mean_ci (fun s -> s.Metrics.s_byte_load) sums;
          ])
        pauses series
    in
    print_endline
      (Stats.Table.render
         ~header:[ "pause s"; "delivery"; "latency ms"; "net load"; "ctl B/pkt" ]
         rows)
  in
  let term =
    Term.(
      const action $ protocol $ nodes $ width $ height $ flows $ pps
      $ speed_max $ duration $ seed $ trials $ pauses $ audit $ jobs
      $ world_term)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep pause times and print a figure-style series.  With \
          $(b,--jobs) N the trial matrix runs on N domains (0 = auto) with \
          bit-identical output.")
    term

let trace_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"JSONL trace written by $(b,--trace-out), or a pcap \
                capture written by $(b,--pcap) (detected by magic).")
  in
  let node =
    Arg.(
      value
      & opt (some int) None
      & info [ "node" ] ~docv:"N" ~doc:"Print node $(docv)'s full timeline.")
  in
  let dst =
    Arg.(
      value
      & opt (some int) None
      & info [ "dst" ] ~docv:"D"
          ~doc:"Print successor changes (route flaps) toward destination \
                $(docv).")
  in
  let drops =
    Arg.(
      value & flag
      & info [ "drops" ]
          ~doc:"Print data drops, queue overflows and collisions bucketed \
                over time.")
  in
  let violations =
    Arg.(
      value & flag
      & info [ "violations" ]
          ~doc:"Reconstruct each invariant violation's last-events window \
                from the trace (matches the monitor's live ring dump).")
  in
  let classes =
    Arg.(
      value & flag
      & info [ "classes" ]
          ~doc:"Print one line per traffic class — $(i,CLASS COUNT BYTES) \
                — from the file's transmissions.  The same run's JSONL \
                trace and pcap capture print identical tables.")
  in
  let spans =
    Arg.(
      value & flag
      & info [ "spans" ]
          ~doc:"Reconstruct per-packet causal spans from the trace and \
                print the critical-path analysis: completeness, \
                discovery activity, p50/p95/p99 latency by stage \
                (buffer/queue/access/air) and a per-flow waterfall.")
  in
  let flow =
    Arg.(
      value
      & opt (some int) None
      & info [ "flow" ] ~docv:"F"
          ~doc:"With $(b,--spans): additionally print flow $(docv)'s \
                per-packet stage table.")
  in
  (* Per-class transmissions, counted by the run's own metrics sink. *)
  let tx_classes bus =
    let m = Metrics.attach bus in
    fun () -> Metrics.tx_classes m
  in
  let class_lines fmt =
    List.map (fun (cls, (n, bytes)) -> Printf.sprintf fmt cls n bytes)
  in
  (* With no query flags: event totals, then the per-class table. *)
  let totals bus =
    let summary = Obs.Reader.summary bus and classes = tx_classes bus in
    fun () ->
      match classes () with
      | [] -> summary ()
      | cs ->
          summary ()
          @ "tx bytes by class:" :: class_lines "  %-6s %d tx, %d B" cs
  in
  (* All queries ride one replay of the file, a JSONL trace or a pcap
     capture; their output is printed only once the whole file has
     parsed. *)
  let replay_action replay file node dst drops violations classes spans flow =
    let open Obs in
    let bus = Bus.create () in
    (* Attach [query] when asked for, rendering its answer with [f]. *)
    let ask on query f =
      if on then
        let answer = query bus in
        [ (fun () -> f (answer ())) ]
      else []
    in
    let arg x query = match x with Some x -> [ query x bus ] | None -> [] in
    let window i (line, window) =
      Printf.sprintf "violation %d: %s" i line
      :: List.map (fun l -> "  " ^ l) window
    in
    let sections =
      ask classes tx_classes (class_lines "%s %d %d")
      @ arg node (fun node -> Reader.timeline ~node)
      @ arg dst (fun dst -> Reader.flaps ~dst)
      @ ask drops Reader.drop_report Fun.id
      @ ask spans Span.reconstruct (Span.report ?flow ~name:(Bus.name bus))
      @ ask violations Reader.violations (function
          | [] -> [ "no violations" ]
          | found -> List.concat (List.mapi window found))
    in
    let sections =
      match sections with [] -> [ totals bus ] | sections -> sections
    in
    match replay file bus with
    | Error e ->
        prerr_endline e;
        Stdlib.exit 1
    | Ok () ->
        List.iter (fun section -> List.iter print_endline (section ())) sections
  in
  (* Flags the file cannot answer are usage errors: a pcap capture holds
     only transmissions, so every query but --classes reads a JSONL
     trace, and --flow selects a --spans table. *)
  let action file node dst drops violations classes spans flow =
    let pcap = Net.Pcap.is_pcap_file file in
    let jsonl_only =
      [ ("--node", node <> None); ("--dst", dst <> None); ("--drops", drops);
        ("--violations", violations); ("--spans", spans);
        ("--flow", flow <> None) ]
    in
    match List.find_opt snd jsonl_only with
    | Some (opt, _) when pcap ->
        `Error
          (false, Printf.sprintf "%s needs a JSONL trace; %s is a pcap capture"
                    opt file)
    | _ when flow <> None && not spans -> `Error (false, "--flow needs --spans")
    | _ ->
        let replay = if pcap then Net.Pcap.replay else Obs.Reader.replay in
        replay_action replay file node dst drops violations classes spans flow;
        `Ok ()
  in
  let term =
    Term.(
      ret
        (const action $ file $ node $ dst $ drops $ violations $ classes $ spans
       $ flow))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Analyse a JSONL trace (per-node timelines, route flaps, drop \
          breakdowns, violation windows, per-packet causal spans) or a \
          pcap capture (its transmissions, read as the Tx events of the \
          run's trace).  With no query flags, prints totals.")
    term

let mcheck_cmd =
  let open Mcheck in
  let mc_protocol =
    let proto_conv =
      Arg.conv
        ( (fun s ->
            match Explorer.protocol_of_string s with
            | Some p -> Ok p
            | None ->
                Error (`Msg (Printf.sprintf "unknown mcheck protocol %S" s))),
          fun fmt p ->
            Format.pp_print_string fmt (Explorer.protocol_name p) )
    in
    Arg.(
      value
      & opt proto_conv Explorer.Aodv
      & info [ "p"; "protocol" ] ~docv:"PROTO"
          ~doc:"Protocol under check: aodv or ldr.")
  in
  let fixture_arg =
    Arg.(
      value
      & opt string "aodv-loop-3"
      & info [ "f"; "fixture" ] ~docv:"FIXTURE"
          ~doc:
            "Built-in fixture name (aodv-loop-3, line-4) or a .topo file \
             path.")
  in
  let max_steps =
    Arg.(
      value
      & opt (at_least 0) 18
      & info [ "max-steps" ] ~docv:"N" ~doc:"Decision-depth bound.")
  in
  let max_states =
    Arg.(
      value
      & opt (at_least 1) 2_000_000
      & info [ "max-states" ] ~docv:"N"
          ~doc:"Explored-state budget; exceeding it reports incomplete.")
  in
  let random_walks =
    Arg.(
      value
      & opt (some (at_least 1)) None
      & info [ "random-walks" ] ~docv:"N"
          ~doc:
            "Fallback for huge spaces: N uniformly random schedules instead \
             of enumeration.  Without it the bounded schedule space is \
             enumerated exhaustively (DPOR-style sleep sets + state \
             matching).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S" ~doc:"Random-walk seed.")
  in
  let no_minimize =
    Arg.(
      value & flag
      & info [ "no-minimize" ]
          ~doc:"Report the first violating schedule as found, unminimized.")
  in
  let no_dedup =
    Arg.(
      value & flag
      & info [ "no-dedup" ]
          ~doc:
            "Disable state matching (pure sleep-set DPOR) — slower, immune \
             to digest collisions.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the violating decision trace as replayable JSONL.")
  in
  let repro =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro" ] ~docv:"FILE"
          ~doc:
            "Replay a recorded decision trace event-for-event instead of \
             exploring; exits 0 iff the recorded violation reproduces.")
  in
  let expect =
    Arg.(
      value
      & opt (some (enum [ ("violation", true); ("silent", false) ])) None
      & info [ "expect" ] ~docv:"WHAT"
          ~doc:
            "CI assertion: $(b,violation) exits 0 only if one was found, \
             $(b,silent) exits 0 only if the space is clean.")
  in
  let load_fixture name =
    match Fixture.builtin name with
    | Some fx -> Ok fx
    | None ->
        if Sys.file_exists name then Fixture.load name
        else
          Error
            (Printf.sprintf "no built-in fixture %S (have: %s) and no such file"
               name
               (String.concat ", " Fixture.builtin_names))
  in
  let action proto fixture max_steps max_states walks seed no_minimize
      no_dedup trace_out repro expect =
    Option.iter check_writable trace_out;
    match load_fixture fixture with
    | Error e ->
        prerr_endline e;
        Stdlib.exit 2
    | Ok fx -> (
        match repro with
        | Some path -> (
            match Explorer.read_trace ~path with
            | Error e ->
                prerr_endline e;
                Stdlib.exit 2
            | Ok (fx_name, tproto, steps, recorded) -> (
                if fx_name <> fx.Fixture.name then
                  Printf.eprintf
                    "note: trace was recorded on fixture %s, replaying on %s\n"
                    fx_name fx.Fixture.name;
                match Explorer.replay fx tproto steps with
                | Some kind ->
                    Printf.printf "reproduced: %s (recorded: %s)\n"
                      (Explorer.render_vkind kind)
                      (Explorer.render_vkind recorded);
                    Stdlib.exit 0
                | None ->
                    print_endline "trace replayed clean: no violation";
                    Stdlib.exit 1))
        | None ->
            let result =
              match walks with
              | Some n ->
                  Explorer.random_walks ~max_steps ~walks:n ~seed fx proto
              | None ->
                  Explorer.explore ~max_steps ~max_states
                    ~dedup:(not no_dedup) fx proto
            in
            let st = result.Explorer.stats in
            Printf.printf
              "fixture=%s protocol=%s states=%d transitions=%d \
               sleep_pruned=%d state_merged=%d depth_cut=%d terminals=%d \
               replays=%d max_depth=%d complete=%b\n"
              fx.Fixture.name
              (Explorer.protocol_name proto)
              st.Explorer.states st.Explorer.transitions
              st.Explorer.sleep_skipped st.Explorer.state_merged
              st.Explorer.depth_cut st.Explorer.terminals st.Explorer.replays
              st.Explorer.max_depth st.Explorer.complete;
            let viol =
              match result.Explorer.violation with
              | Some v when not no_minimize ->
                  Some (Explorer.minimize fx proto v)
              | v -> v
            in
            (match viol with
            | Some v ->
                Printf.printf "VIOLATION %s after %d steps\n"
                  (Explorer.render_vkind v.Explorer.v_kind)
                  (List.length v.Explorer.v_trace);
                List.iteri
                  (fun i (c : Explorer.choice) ->
                    Printf.printf "  %2d. t=%.6fs %s\n" i
                      (float_of_int c.Explorer.c_time /. 1e9)
                      c.Explorer.c_label)
                  v.Explorer.v_trace;
                Option.iter
                  (fun path -> Explorer.write_trace ~path fx proto v)
                  trace_out
            | None -> print_endline "no violation in the explored space");
            match expect with
            | Some want_violation ->
                Stdlib.exit (if want_violation = (viol <> None) then 0 else 1)
            | None -> ())
  in
  let term =
    Term.(
      const action $ mc_protocol $ fixture_arg $ max_steps $ max_states
      $ random_walks $ seed $ no_minimize $ no_dedup
      $ trace_out $ repro $ expect)
  in
  Cmd.v
    (Cmd.info "mcheck"
       ~doc:
         "Systematically explore message/timer interleavings on a small \
          hand-wired topology, checking for routing loops (successor-graph \
          cycles and LDR invariant violations) after every event.  Finds \
          and minimizes a violating schedule, or proves the bounded space \
          silent.")
    term

let () =
  let doc = "MANET routing simulator (LDR / AODV / DSR / OLSR)" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "manet_sim" ~doc)
          [ run_cmd; sweep_cmd; trace_cmd; mcheck_cmd ]))
