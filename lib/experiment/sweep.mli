(** Multi-trial runs: the paper repeats every configuration for 10
    random seeds and reports means with 95 % confidence intervals.

    Every entry point takes [?jobs] (default 1: run inline,
    sequentially).  With [jobs > 1] the trial matrix fans across that
    many domains via {!Parallel.map}; [jobs = 0] means auto
    ({!Parallel.effective_jobs}).  Each trial builds a fully isolated
    simulation (own engine, RNG, metrics, observability bus), and
    results land in ascending seed order regardless of completion
    order, so per-seed results are bit-identical for every [jobs]
    value. *)

val run :
  ?jobs:int -> Scenario.t list -> trials:int -> Metrics.summary array list
(** [run scs ~trials] runs every scenario for [trials] seeds [seed,
    seed+1, ...] and returns each scenario's per-seed summaries, in seed
    order.  The full (scenario × seed) matrix is one parallel batch, so
    workers stay busy across scenario boundaries; only each trial's
    summary outlives the trial.  Scenarios that differ only in
    protocol see the same nodes, paths and offered load at each seed,
    so their arrays pair up seed by seed for common-random-numbers
    comparisons; a table folds one column at a time with
    {!Stats.Welford.of_array}. *)

val trial_outcomes : ?jobs:int -> Scenario.t -> n:int -> Runner.outcome array
(** The raw per-seed outcomes of [n] trials under seeds
    [seed, seed+1, ...], in seed order — the differential-conformance
    tests compare these element-wise across [jobs] values. *)
