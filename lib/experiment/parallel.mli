(** Domain-parallel trial execution.

    A chunked work queue (Mutex + Condition, stdlib only) fans indexed
    jobs across OCaml 5 domains.  The executor is generic — it knows
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

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware-suggested
    worker count, >= 1. *)

val resolve_jobs : int -> int
(** [resolve_jobs j] is [j] for [j >= 1] and {!recommended_jobs}[ ()]
    for [0].  Raises [Invalid_argument] on negative [j].  The CLI's
    [--jobs 0 = auto] convention funnels through here. *)

val effective_jobs : items:int -> int -> int
(** [effective_jobs ~items j] is {!resolve_jobs}[ j] capped at [items]
    (and at least 1): auto mode never spawns more domains than there is
    work — spare domains would only pay startup cost and skew the
    per-domain GC deltas benchmarks report.  {!map} and the CLI's
    [--jobs 0] auto mode resolve through here. *)

val map : ?jobs:int -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [map ~jobs n f] is [[| f 0; ...; f (n-1) |]].

    [jobs <= 1] (after {!resolve_jobs}) or [n <= 1] runs inline on the
    calling domain in index order — exactly today's sequential
    behaviour, no domain is spawned.  Otherwise [min jobs n] worker
    domains drain a queue of [chunk]-sized index ranges (default: a
    balanced chunk small enough to keep every worker busy, at least 1).

    If any [f i] raises, the first exception (by completion order) is
    re-raised in the caller with its backtrace after all workers have
    stopped; remaining queued chunks are abandoned. *)
