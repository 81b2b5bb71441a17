(* The repository benchmark: one workload, one seed, a wall-clock budget,
   one JSON result line on stdout.  perfbench/run.py builds this program
   and forwards its arguments; perfbench/WORKLOADS.md describes the
   workloads, the metrics and the measurement policy.

   Everything is measured from outside the simulator, through the public
   entry points of [Experiment.Runner] and [Experiment.Sweep] and the hooks
   they expose ([prepare], [on_engine], bus sinks, transmit hooks).  Every
   workload runs the production defaults: no scheduler, channel or
   node-layout knob is set.

   Usage: bench.exe --workload W --seed N --seconds S --trace 0|1 [--quick] *)

open Sim
module Runner = Experiment.Runner
module Scenario = Experiment.Scenario
module Metrics = Experiment.Metrics

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* ---- Workloads ------------------------------------------------------- *)

type workload = {
  name : string;
  scenario : Scenario.t;  (** seed and horizon are set per trial *)
  horizon : float;  (** simulated seconds per trial *)
  trials : int;  (** trials per round, on consecutive scenario seeds *)
}

(* The paper's congested point: 100 nodes, 30 flows, pause 0. *)
let fig5 =
  Scenario.paper_100 Scenario.ldr
  |> Scenario.with_flows 30 |> Scenario.with_pause Time.zero

(* 1000 random-waypoint nodes at the connected density of the city-scale
   families: 15,000 m^2 per node on a 5:1 terrain, 350 m carrier sense,
   10 flows. *)
let city1k =
  let nodes = 1000 in
  let height = sqrt (float_of_int nodes *. 15_000. /. 5.) in
  {
    (Scenario.paper_50 Scenario.ldr) with
    Scenario.label = "city1k";
    num_nodes = nodes;
    terrain = Geom.Terrain.create ~width:(5. *. height) ~height;
    net = { Net.Params.default with Net.Params.cs_range_m = 350. };
  }

let churn_agg =
  { city1k with Scenario.label = "churn-agg"; protocol = Scenario.ldr_agg }
  |> Scenario.with_mobility (Scenario.Manhattan { spacing = 200. })
  |> Scenario.with_churn (Some Scenario.default_churn)

(* [quick] is the reduced size the self-test runs.  The churn workload
   keeps a horizon past [default_churn]'s first down instants (10 s). *)
let workloads ~quick =
  let size full small = if quick then small else full in
  [
    { name = "fig5"; scenario = fig5; horizon = size 30. 4.;
      trials = size 6 2 };
    { name = "city1k"; scenario = city1k; horizon = size 20. 3.;
      trials = size 4 1 };
    { name = "churn-agg"; scenario = churn_agg; horizon = size 20. 12.;
      trials = size 4 1 };
  ]

(* Seed sets of different benchmark seeds never overlap. *)
let trial_seeds w ~seed = Array.init w.trials (fun i -> 1 + (seed * 64) + i)

let scenario w s =
  { w.scenario with Scenario.seed = s; duration = Time.sec w.horizon }

(* ---- Outcome digest --------------------------------------------------- *)

let digest (o : Runner.outcome) =
  let m = o.metrics and s = o.summary in
  let q = Metrics.latency_quantile_ms m in
  Printf.sprintf "%d %d %d %d %d %d %h %h %h %h %h %h %h %h %h %h"
    o.events_processed o.transmissions o.mac_queue_drops
    o.mac_unicast_failures (Metrics.originated m) (Metrics.delivered m)
    s.s_delivery_ratio s.s_latency_ms s.s_network_load s.s_byte_load
    s.s_rreq_load s.s_rrep_init s.s_rrep_recv s.s_mean_dest_seqno (q 0.5)
    (q 0.99)
  |> Digest.string |> Digest.to_hex

(* ---- Host speed ------------------------------------------------------- *)

(* A fixed allocation-free discrete-event loop, independent of the
   simulator's code and of the heap it leaves behind: a binary heap of
   event times in an int array and a 64k-slot state table.  Its time per
   op tracks the speed of a shared host, which drifts by tens of percent
   over seconds. *)
let reference_ns_per_op () =
  let ops = 200_000 and cap = 4096 in
  let heap = Array.init cap Fun.id and table = Array.make 65536 0 in
  let rng = ref 12345 in
  let t0 = now_ns () in
  for _ = 1 to ops do
    let t = heap.(0) in
    let slot = (t * 2654435761) land 65535 in
    table.(slot) <- table.(slot) + 1;
    rng := ((!rng * 1103515245) + 12345) land 0x3fff_ffff;
    heap.(0) <- t + 1 + (!rng land 0xfff);
    (* sift the new root down *)
    let i = ref 0 and moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < cap && heap.(l + 1) < heap.(l) then l + 1 else l in
      if l < cap && heap.(c) < heap.(!i) then begin
        let x = heap.(c) in
        heap.(c) <- heap.(!i);
        heap.(!i) <- x;
        i := c
      end
      else moving := false
    done
  done;
  ignore (Sys.opaque_identity table);
  float_of_int (now_ns () - t0) /. float_of_int ops

(* The host speed [ref_us_per_event] is scaled to: the reference loop at
   100 ns per op. *)
let reference_speed_ns = 100.

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---- Untraced runs ---------------------------------------------------- *)

type trial = {
  outcome : Runner.outcome;
  setup_s : float;  (** [Runner.build], up to the [prepare] callback *)
  engine_s : float;  (** engine start to outcome *)
  run_s : float;  (** the whole [Runner.run] call *)
  engine_words : float;  (** minor words from engine start to outcome *)
  minor_words : float;  (** the whole call, every domain *)
  promoted_words : float;
}

let run_trial ?on_engine ?monitor ?(prepare = ignore) sc =
  let q0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let t_prep = ref t0 and t_start = ref t0 and w_start = ref 0. in
  let outcome =
    Runner.run ?on_engine ?monitor sc ~prepare:(fun sim ->
        t_prep := now_ns ();
        prepare sim;
        w_start := Gc.minor_words ();
        t_start := now_ns ())
  in
  let t1 = now_ns () in
  let engine_words = Gc.minor_words () -. !w_start in
  let q1 = Gc.quick_stat () in
  let s ns = float_of_int ns *. 1e-9 in
  {
    outcome;
    setup_s = s (!t_prep - t0);
    engine_s = s (t1 - !t_start);
    run_s = s (t1 - t0);
    engine_words;
    minor_words = q1.minor_words -. q0.minor_words;
    promoted_words = q1.promoted_words -. q0.promoted_words;
  }

type round = {
  runs : trial array;
  wall_s : float;  (** engine start to outcome, summed over trials *)
  events : int;
  reference_ns : float;
      (** median reference-loop time per op, taken before every trial
          and after the last *)
  live_words : float;
      (** what a trial's simulation holds at its horizon, mean over trials *)
  setups : float list;
      (** every trial's set-up plus [extra_builds] more [Runner.build]s *)
}

let extra_builds = 4

let outcomes r = Array.map (fun t -> t.outcome) r.runs
let sum_runs f r = Array.fold_left (fun a t -> a +. f t) 0. r.runs

let settled_live_words () =
  Gc.full_major ();
  (Gc.quick_stat ()).live_words

(* One round: every trial of the workload, in seed order.  Each trial
   starts after a full major collection, and its simulation's live heap
   is measured at the horizon, outside the timed and counted window.
   Between trials run the reference loop and [extra_builds] set-ups. *)
let round w ~seed =
  let refs = ref [ reference_ns_per_op () ] and live = ref 0 in
  let setups = ref [] in
  let runs =
    Array.map
      (fun s ->
        let base = settled_live_words () in
        let sim = ref None in
        let t = run_trial (scenario w s) ~prepare:(fun x -> sim := Some x) in
        live := !live + (settled_live_words () - base);
        ignore (Sys.opaque_identity !sim);
        refs := reference_ns_per_op () :: !refs;
        for _ = 1 to extra_builds do
          let t0 = now_ns () in
          ignore (Sys.opaque_identity (Runner.build (scenario w s)));
          setups := since t0 :: !setups
        done;
        setups := t.setup_s :: !setups;
        t)
      (trial_seeds w ~seed)
  in
  {
    runs;
    wall_s = Array.fold_left (fun a t -> a +. t.engine_s) 0. runs;
    events =
      Array.fold_left (fun a t -> a + t.outcome.events_processed) 0 runs;
    reference_ns = median !refs;
    live_words = float_of_int !live /. float_of_int w.trials;
    setups = !setups;
  }

(* The same trials as one [Sweep.trial_outcomes] call across the
   recommended number of domains — how users regenerate the paper's
   figures. *)
let parallel_pass w ~seed =
  let seeds = trial_seeds w ~seed in
  let jobs = Experiment.Parallel.effective_jobs ~items:w.trials 0 in
  let t0 = now_ns () in
  let os =
    Experiment.Sweep.trial_outcomes ~jobs (scenario w seeds.(0)) ~n:w.trials
  in
  (os, since t0, jobs)

(* ---- Traced runs ------------------------------------------------------ *)

(* Time and allocation inside the routing agents' entry points.  Only the
   outermost call is timed, so an agent re-entered through the stack is
   not counted twice. *)
type agent_acct = {
  mutable calls : int;
  mutable ns : int;
  mutable words : float;
  mutable depth : int;
}

let timed c f =
  if c.depth > 0 then f ()
  else begin
    c.depth <- 1;
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    f ();
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    c.depth <- 0;
    c.calls <- c.calls + 1;
    c.ns <- c.ns + (t1 - t0);
    c.words <- c.words +. (w1 -. w0)
  end

let wrap_agent c (a : Routing.Agent.t) =
  {
    a with
    Routing.Agent.recv = (fun p ~from -> timed c (fun () -> a.recv p ~from));
    overheard =
      (fun p ~from ~dst -> timed c (fun () -> a.overheard p ~from ~dst));
    link_failure =
      (fun p ~next_hop -> timed c (fun () -> a.link_failure p ~next_hop));
    origin_data = (fun m -> timed c (fun () -> a.origin_data m));
  }

let kind_index : Obs.Event.kind -> int = function
  | Tx -> 0
  | Rx -> 1
  | Collision -> 2
  | Ifq_drop -> 3
  | Deliver -> 4
  | Data_drop -> 5
  | Link_failure -> 6
  | Proto -> 7
  | Table_write -> 8
  | Violation -> 9
  | Span -> 10

(* Per-layer counts and times of one traced round, summed over trials. *)
type layers = {
  mutable sched_ops : int;
  mutable replay_s : float;
  mutable replay_words : float;
  mutable traced_s : float;
  mutable traced_words : float;
  kinds : int array;  (** bus events by [kind_index] *)
  agent : agent_acct;
  mutable cells_occupied : int;
  mutable max_occupancy : int;
  mutable frames : Net.Frame.t list;
  mutable nframes : int;
  mutable traced : Runner.outcome list;  (** in reverse trial order *)
}

let frame_cap = 50_000

let traced_trial l sc ~fail =
  let trace = ref None and channel = ref None in
  let t =
    run_trial sc ~monitor:true
      ~on_engine:(fun e -> trace := Some (Engine.record_trace e))
      ~prepare:(fun sim ->
        channel := Some sim.channel;
        Array.iteri
          (fun i a -> sim.agents.(i) <- wrap_agent l.agent a)
          sim.agents;
        Obs.Bus.add_sink sim.bus (fun ev ->
            let k = kind_index ev.kind in
            l.kinds.(k) <- l.kinds.(k) + 1);
        Net.Channel.add_transmit_hook sim.channel (fun _ f ->
            if l.nframes < frame_cap then begin
              l.frames <- f :: l.frames;
              l.nframes <- l.nframes + 1
            end))
  in
  let tr = Option.get !trace in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let fired = Engine.replay_trace ~scheduler:`Calendar tr in
  l.replay_s <- l.replay_s +. since t0;
  l.replay_words <- l.replay_words +. (Gc.minor_words () -. w0);
  if fired <> Engine.Trace.pops tr then
    fail
      (Printf.sprintf "replay fired %d events, trace recorded %d" fired
         (Engine.Trace.pops tr));
  let _, occupied, max_occ = Net.Channel.index_stats (Option.get !channel) in
  l.sched_ops <- l.sched_ops + Engine.Trace.length tr;
  l.traced_s <- l.traced_s +. t.engine_s;
  l.traced_words <- l.traced_words +. t.engine_words;
  l.cells_occupied <- l.cells_occupied + occupied;
  l.max_occupancy <- max l.max_occupancy max_occ;
  l.traced <- t.outcome :: l.traced

let traced_round w ~seed ~fail =
  let l =
    {
      sched_ops = 0; replay_s = 0.; replay_words = 0.; traced_s = 0.;
      traced_words = 0.; kinds = Array.make 11 0;
      agent = { calls = 0; ns = 0; words = 0.; depth = 0 };
      cells_occupied = 0; max_occupancy = 0; frames = []; nframes = 0;
      traced = [];
    }
  in
  Array.iter
    (fun s -> traced_trial l (scenario w s) ~fail)
    (trial_seeds w ~seed);
  l

(* [Net.Frame.encoded_length] over the captured frames: the MAC's airtime
   and the metrics call it once per frame on the air. *)
let wire_ns_per_frame frames =
  let frames = Array.of_list frames in
  let n = Array.length frames in
  if n = 0 then 0.
  else begin
    let acc = ref 0 and reps = ref 0 in
    let t0 = now_ns () in
    while !reps < 3 || since t0 < 0.05 do
      for i = 0 to n - 1 do
        acc := !acc + Net.Frame.encoded_length frames.(i)
      done;
      incr reps
    done;
    ignore (Sys.opaque_identity !acc);
    since t0 *. 1e9 /. float_of_int (!reps * n)
  end

(* ---- Statistics and output ------------------------------------------- *)

(* Virtual-time results pooled over a round's trials. *)
let pooled (os : Runner.outcome array) =
  let sum f =
    Array.fold_left (fun a (o : Runner.outcome) -> a + f o.metrics) 0 os
  in
  let originated = sum Metrics.originated and delivered = sum Metrics.delivered in
  let hist = Stats.Hdr.create () in
  Array.iter
    (fun (o : Runner.outcome) ->
      Stats.Hdr.merge_into ~into:hist (Metrics.latency_histogram o.metrics))
    os;
  let q p = float_of_int (Stats.Hdr.quantile hist p) /. 1e6 in
  let fd = float_of_int in
  ( originated,
    delivered,
    [
      ("delivery_ratio", fd delivered /. fd originated, "ratio");
      ("latency_p50_ms", q 0.5, "ms");
      ("latency_p99_ms", q 0.99, "ms");
      ("network_load",
       fd (sum Metrics.control_transmissions) /. fd delivered, "ratio");
    ] )

let print_result ~correct ~attempted ~failed metrics =
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

(* ---- Metric sets ------------------------------------------------------ *)

let mb words = words *. float_of_int (Sys.word_size / 8) /. 1e6

(* End-to-end figures of the timed rounds, each a median over rounds.
   Counts are normalised per simulated event: the events a seed produces
   vary far more between seeds than the cost of one event does.  Times
   are scaled to the reference host speed by the round's own reading. *)
let end_to_end (rs : round list) =
  let per_event f =
    median (List.map (fun r -> f r /. float_of_int r.events) rs)
  in
  let at_reference r t = t *. reference_speed_ns /. r.reference_ns in
  [
    ("ref_us_per_event",
     per_event (fun r -> at_reference r r.wall_s) *. 1e6, "us");
    ("setup_s",
     median (List.concat_map (fun r -> List.map (at_reference r) r.setups) rs),
     "s");
    ("minor_words_per_event",
     per_event (sum_runs (fun t -> t.minor_words)), "words");
    ("promoted_words_per_event",
     per_event (sum_runs (fun t -> t.promoted_words)), "words");
    ("live_heap_mb", mb (List.hd rs).live_words, "MB");
  ]

type iteration = {
  untraced : round;
  parallel_s : float;
  jobs : int;
  layers : layers;
}

(* Per-layer figures: counts from the last traced round (they repeat
   exactly), times as medians over iterations. *)
let per_layer ~results (its : iteration list) =
  let l = (List.hd its).layers in
  let med f = median (List.map f its) in
  let agent_s it = float_of_int it.layers.agent.ns *. 1e-9 in
  let os = Array.of_list (List.rev l.traced) in
  let sum f =
    float_of_int (Array.fold_left (fun a (o : Runner.outcome) -> a + f o) 0 os)
  in
  let msum f = sum (fun o -> f o.metrics) in
  let kind k = float_of_int l.kinds.(kind_index k) in
  let delivered = msum Metrics.delivered in
  let events = sum (fun o -> o.events_processed) in
  [
    ("wall_s", med (fun it -> it.untraced.wall_s), "s");
    ("us_per_event", med (fun it -> it.untraced.wall_s) *. 1e6 /. events,
     "us");
    ("minor_mwords",
     med (fun it -> sum_runs (fun t -> t.minor_words) it.untraced) /. 1e6,
     "Mwords");
    ("promoted_mwords",
     med (fun it -> sum_runs (fun t -> t.promoted_words) it.untraced) /. 1e6,
     "Mwords");
    ("peak_heap_mb", mb (float_of_int (Gc.quick_stat ()).top_heap_words), "MB");
    ("setup_raw_s",
     median (List.concat_map (fun it -> it.untraced.setups) its), "s");
    ("host.reference_ns_per_op", med (fun it -> it.untraced.reference_ns),
     "ns");
  ]
  @ results
  @ [
      ("sim.events", events, "count");
      ("sim.sched_ops", float_of_int l.sched_ops, "count");
      ("sim.replay_s", med (fun it -> it.layers.replay_s), "s");
      ("sim.replay_words_per_op",
       l.replay_words /. float_of_int l.sched_ops, "words/op");
      ("net.transmissions", sum (fun o -> o.transmissions), "count");
      ("net.rx_per_tx", kind Rx /. kind Tx, "ratio");
      ("net.collisions", kind Collision, "count");
      ("net.ifq_drops", sum (fun o -> o.mac_queue_drops), "count");
      ("net.mac_failures", sum (fun o -> o.mac_unicast_failures), "count");
      ("net.rest_s",
       med (fun it ->
           it.layers.traced_s -. it.layers.replay_s -. agent_s it),
       "s");
      ("net.rest_mwords",
       (l.traced_words -. l.replay_words -. l.agent.words) /. 1e6, "Mwords");
      ("geom.cells_occupied",
       float_of_int l.cells_occupied /. float_of_int (Array.length os),
       "count");
      ("geom.max_occupancy", float_of_int l.max_occupancy, "count");
      ("wire.length_ns_per_frame", wire_ns_per_frame l.frames, "ns/frame");
      ("routing.calls", float_of_int l.agent.calls, "count");
      ("routing.agent_s", med agent_s, "s");
      ("routing.agent_mwords", l.agent.words /. 1e6, "Mwords");
      ("routing.control_tx", msum Metrics.control_transmissions, "count");
      ("routing.rreq_tx",
       msum (fun m ->
           Option.value ~default:0
             (List.assoc_opt "RREQ" (Metrics.control_by_kind m))),
       "count");
      ("routing.rreq_aggregated",
       msum (fun m -> Metrics.event_count m "rreq_aggregated"), "count");
      ("routing.rreq_suppressed",
       msum (fun m -> Metrics.event_count m "rreq_suppressed"), "count");
      ("routing.table_writes", kind Table_write, "count");
      ("routing.data_drops",
       msum (fun m ->
           List.fold_left (fun a (_, n) -> a + n) 0 (Metrics.drops_by_reason m)),
       "count");
      ("routing.mean_hops",
       Array.fold_left
         (fun a (o : Runner.outcome) ->
           a
           +. Metrics.mean_hops o.metrics
              *. float_of_int (Metrics.delivered o.metrics))
         0. os
       /. delivered,
       "hops");
      ("traffic.originated", msum Metrics.originated, "count");
      ("traffic.delivered", delivered, "count");
      ("obs.bus_events", float_of_int (Array.fold_left ( + ) 0 l.kinds),
       "count");
      ("obs.trace_overhead_pct",
       100.
       *. ((med (fun it -> it.layers.traced_s)
           /. med (fun it -> it.untraced.wall_s))
          -. 1.),
       "%");
      ("obs.monitor_violations", sum (fun o -> o.invariant_violations),
       "count");
      ("experiment.trial_wall_max_s",
       med (fun it ->
           Array.fold_left (fun a t -> Float.max a t.run_s) 0. it.untraced.runs),
       "s");
      ("experiment.parallel_efficiency",
       med (fun it ->
           Array.fold_left (fun a t -> a +. t.run_s) 0. it.untraced.runs
           /. (float_of_int it.jobs *. it.parallel_s)),
       "ratio");
    ]

(* ---- Main ------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload fig5|city1k|churn-agg --seed N --seconds S \
     --trace 0|1 [--quick]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.
  and trace = ref (-1) and quick = ref false in
  let int_arg r v =
    match int_of_string_opt v with Some n -> r := n | None -> usage ()
  in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> int_arg seed v; go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := s
        | _ -> usage ());
        go rest
    | "--trace" :: v :: rest -> int_arg trace v; go rest
    | "--quick" :: rest -> quick := true; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || (!trace <> 0 && !trace <> 1) then usage ();
  match
    List.find_opt (fun w -> w.name = !workload) (workloads ~quick:!quick)
  with
  | Some w when !seconds > 0. -> (w, !seed, !seconds, !trace = 1)
  | _ -> usage ()

let () =
  let w, seed, seconds, trace = parse_args () in
  let errors = ref [] in
  let fail msg = errors := msg :: !errors in
  let attempted = ref 0 and failed = ref 0 in
  (* Warm-up and reference: one untimed round in this process.  Every
     later run of a trial, traced or not, serial or parallel, must
     reproduce its digest exactly. *)
  let reference = outcomes (round w ~seed) in
  let digests = Array.map digest reference in
  let check os =
    Array.iteri
      (fun i (o : Runner.outcome) ->
        incr attempted;
        let ok =
          digest o = digests.(i)
          && o.events_processed > 0
          && Metrics.originated o.metrics > 0
          && Metrics.delivered o.metrics <= Metrics.originated o.metrics
        in
        if not ok then begin
          incr failed;
          fail (Printf.sprintf "trial %d: outcome differs from the reference" i)
        end)
      os
  in
  check reference;
  let seeds = trial_seeds w ~seed in
  Printf.printf "workload %s: %d trial(s) of %g s simulated\n" w.name w.trials
    w.horizon;
  Array.iteri
    (fun i d ->
      Printf.printf "trial %d seed %d events %d digest %s\n" i seeds.(i)
        reference.(i).events_processed d)
    digests;
  Printf.printf "digest %s %s\n" w.name
    (Digest.to_hex (Digest.string (String.concat "" (Array.to_list digests))));
  let originated, delivered, results = pooled reference in
  Printf.printf "packets originated %d delivered %d (latency samples %d)\n"
    originated delivered delivered;
  List.iter (fun (name, v, unit) -> Printf.printf "%s %g %s\n" name v unit)
    results;
  (* Rounds continue while one more is expected to end within the budget. *)
  let t_measure = now_ns () in
  let more n =
    let elapsed = since t_measure in
    n < 1 || elapsed *. float_of_int (n + 1) /. float_of_int n <= seconds
  in
  let metrics =
    if not trace then begin
      let rounds = ref [] in
      while more (List.length !rounds) do
        let r = round w ~seed in
        check (outcomes r);
        rounds := r :: !rounds
      done;
      Printf.printf "timed rounds %d, wall_s %s\n" (List.length !rounds)
        (String.concat " "
           (List.rev_map (fun r -> Printf.sprintf "%.3f" r.wall_s) !rounds));
      end_to_end !rounds
    end
    else begin
      let its = ref [] in
      while more (List.length !its) do
        let untraced = round w ~seed in
        check (outcomes untraced);
        let parallel, parallel_s, jobs = parallel_pass w ~seed in
        check parallel;
        let layers = traced_round w ~seed ~fail in
        check (Array.of_list (List.rev layers.traced));
        its := { untraced; parallel_s; jobs; layers } :: !its
      done;
      per_layer ~results !its
    end
  in
  List.iter
    (fun (name, v, _) ->
      if not (Float.is_finite v) then
        fail (Printf.sprintf "metric %s is not finite" name);
      if name = "minor_words_per_event" && v <= 0. then
        fail "allocation counters read 0";
      if name = "obs.monitor_violations" && v <> 0. then
        fail "the LDR invariant monitor reported violations")
    metrics;
  let correct = !errors = [] in
  List.iter (fun e -> prerr_endline ("perfbench: " ^ e)) (List.rev !errors);
  print_result ~correct ~attempted:!attempted ~failed:!failed metrics;
  exit (if correct then 0 else 1)
