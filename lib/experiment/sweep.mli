(** Multi-trial aggregation: the paper repeats every configuration for 10
    random seeds and reports means with 95 % confidence intervals.

    Every entry point takes [?jobs] (default 1: run inline,
    sequentially, exactly as before).  With [jobs > 1] the trial matrix
    fans across that many domains via {!Parallel.map}; [jobs = 0] means
    auto ({!Parallel.effective_jobs}).  Each trial builds a fully
    isolated simulation (own engine, RNG, metrics, observability bus),
    and results are folded in ascending seed order regardless of
    completion order, so per-seed outcomes and the aggregated Welford
    statistics are bit-identical for every [jobs] value. *)

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

val empty_point : unit -> point
val add_summary : point -> Metrics.summary -> unit
val merge_points : point -> point -> point

val run :
  ?jobs:int ->
  Scenario.t ->
  points:(Scenario.t -> Scenario.t) list ->
  trials:int ->
  point list
(** [run sc ~points ~trials] applies each refinement in [points] to
    [sc] (one parameter point each — pause time, flow count, ...) and
    runs every point for [trials] seeds [seed, seed+1, ...],
    aggregating one {!point} per parameter point.  The full
    (point × seed) matrix is one parallel batch, so workers stay busy
    across point boundaries. *)

val trial_outcomes : ?jobs:int -> Scenario.t -> n:int -> Runner.outcome array
(** The raw per-seed outcomes of [n] trials under seeds
    [seed, seed+1, ...], in seed order — the differential-conformance
    tests compare these element-wise across [jobs] values. *)

val trials : ?jobs:int -> Scenario.t -> n:int -> point
(** Run the scenario [n] times under seeds [seed, seed+1, ...] and
    aggregate. *)
