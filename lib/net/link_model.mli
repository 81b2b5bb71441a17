(** Deterministic per-link perturbations of the unit-disk channel.

    Two orthogonal effects, both optional and both seed-deterministic:

    {b Log-normal shadowing} — each unordered node pair draws one normal
    dB offset (clamped to +-3 sigma) from a hash of the seed and the
    pair, converted through the path-loss exponent [eta] into a range
    {e factor}: the pair decodes (and carrier-senses) out to
    [range * factor] instead of [range].  The draw depends only on
    (seed, pair), never on run order, so every channel mode and replay
    sees identical gains.

    {b Partition wall} — a vertical barrier at [x] absorbing every
    transmission that would cross it during [\[at, heal)].  It is a pure
    predicate of (time, endpoints): nothing is mutated at the partition
    instant. *)

type t

val create :
  ?shadowing:int * float * float ->
  ?partition:Sim.Time.t * Sim.Time.t * float ->
  unit ->
  t
(** [create ?shadowing ?partition ()] — [shadowing] is
    [(seed, sigma_db, eta)]; [partition] is [(at, heal, wall_x)].
    Omitted effects are inert ([gain] = 1, [blocked] = false). *)

val gain : t -> int -> int -> float
(** [gain t a b] is the symmetric range factor for the unordered node
    pair [{a, b}]; memoized after the first draw. *)

val f_max : t -> float
(** Upper bound on any pair's gain — query disks inflate by this so the
    candidate superset still covers every decodable receiver. *)

val blocked : t -> now:Sim.Time.t -> x1:float -> x2:float -> bool
(** Whether the segment between abscissae [x1] and [x2] crosses the
    partition wall while it is up. *)

val shadowed : t -> bool
val partitioned : t -> bool
