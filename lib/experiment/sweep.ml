type point = {
  delivery_ratio : Stats.Welford.t;
  latency_ms : Stats.Welford.t;
  network_load : Stats.Welford.t;
  byte_load : Stats.Welford.t;
  rreq_load : Stats.Welford.t;
  rrep_init : Stats.Welford.t;
  rrep_recv : Stats.Welford.t;
  mean_dest_seqno : Stats.Welford.t;
}

let empty_point () =
  {
    delivery_ratio = Stats.Welford.create ();
    latency_ms = Stats.Welford.create ();
    network_load = Stats.Welford.create ();
    byte_load = Stats.Welford.create ();
    rreq_load = Stats.Welford.create ();
    rrep_init = Stats.Welford.create ();
    rrep_recv = Stats.Welford.create ();
    mean_dest_seqno = Stats.Welford.create ();
  }

let add_summary p (s : Metrics.summary) =
  Stats.Welford.add p.delivery_ratio s.s_delivery_ratio;
  Stats.Welford.add p.latency_ms s.s_latency_ms;
  Stats.Welford.add p.network_load s.s_network_load;
  Stats.Welford.add p.byte_load s.s_byte_load;
  Stats.Welford.add p.rreq_load s.s_rreq_load;
  Stats.Welford.add p.rrep_init s.s_rrep_init;
  Stats.Welford.add p.rrep_recv s.s_rrep_recv;
  Stats.Welford.add p.mean_dest_seqno s.s_mean_dest_seqno

let merge_points a b =
  let m = Stats.Welford.merge in
  {
    delivery_ratio = m a.delivery_ratio b.delivery_ratio;
    latency_ms = m a.latency_ms b.latency_ms;
    network_load = m a.network_load b.network_load;
    byte_load = m a.byte_load b.byte_load;
    rreq_load = m a.rreq_load b.rreq_load;
    rrep_init = m a.rrep_init b.rrep_init;
    rrep_recv = m a.rrep_recv b.rrep_recv;
    mean_dest_seqno = m a.mean_dest_seqno b.mean_dest_seqno;
  }

(* The whole (parameter-point × seed) matrix fans through one
   Parallel.map call, so a 3-point × 10-seed sweep keeps 8 workers busy
   rather than parallelising 10 trials at a time.  Trial k runs point
   [k / n] under seed [seed + k mod n]; results land at index k, so the
   Welford accumulators below always fold in ascending-seed order per
   point no matter which domain finished first — the aggregates are
   bit-identical to the sequential path's. *)
let run ?jobs (sc : Scenario.t) ~points ~trials:n =
  if n <= 0 then invalid_arg "Sweep.run: trials must be >= 1";
  let scs = Array.of_list (List.map (fun refine -> refine sc) points) in
  let npoints = Array.length scs in
  let outcomes =
    Parallel.map ?jobs (npoints * n) (fun k ->
        let sc : Scenario.t = scs.(k / n) in
        Runner.run { sc with seed = sc.seed + (k mod n) })
  in
  List.init npoints (fun pi ->
      let p = empty_point () in
      for t = 0 to n - 1 do
        add_summary p outcomes.((pi * n) + t).Runner.summary
      done;
      p)

let trial_outcomes ?jobs (sc : Scenario.t) ~n =
  if n <= 0 then invalid_arg "Sweep.trial_outcomes: n must be >= 1";
  Parallel.map ?jobs n (fun i -> Runner.run { sc with seed = sc.seed + i })

let trials ?jobs (sc : Scenario.t) ~n =
  let p = empty_point () in
  Array.iter
    (fun (o : Runner.outcome) -> add_summary p o.Runner.summary)
    (trial_outcomes ?jobs sc ~n);
  p
