(** Domain-parallel trial execution.

    Worker domains claim indexed jobs one at a time from a shared
    atomic counter (stdlib only).  The executor is generic — it knows
    nothing about scenarios — and {!Sweep} uses it to spread a sweep's
    (seed × parameter-point) trial matrix over cores.

    {b Determinism guarantee.}  [map ~jobs n f] calls [f i] exactly once
    for every [i] in [0 .. n-1] and stores the result at index [i], so
    the caller observes results in index order regardless of which
    domain ran which job or in what order they completed.  Provided [f]
    itself is deterministic and shares no mutable state across calls
    (every {!Runner} trial builds its own engine, RNG, metrics and
    observability bus), the result array is bit-identical for every
    [jobs] value, including the inline [jobs = 1] path.  See
    [docs/PARALLELISM.md]. *)

val effective_jobs : items:int -> int -> int
(** [effective_jobs ~items j] is the worker count {!map} uses for
    [items] jobs: [j], or one per recommended core
    ([Domain.recommended_domain_count]) for [j = 0], capped at [items]
    and at least 1.  Auto mode never spawns more domains than there is
    work — spare domains would only pay startup cost and skew the
    per-domain GC deltas benchmarks report.  Raises [Invalid_argument]
    on negative [j]; the CLI's [--jobs 0 = auto] convention funnels
    through here. *)

val map : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [map ~jobs n f] is [[| f 0; ...; f (n-1) |]].

    [jobs <= 1] (after {!effective_jobs}) or [n <= 1] runs inline on
    the calling domain in index order — exactly today's sequential
    behaviour, no domain is spawned.  Otherwise [min jobs n] worker
    domains each repeatedly claim the next unclaimed index.

    If any [f i] raises, the first exception (by completion order) is
    re-raised in the caller with its backtrace after all workers have
    stopped; indices not yet claimed are abandoned. *)
