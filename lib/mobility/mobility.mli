(** Node mobility processes.

    A mobility process answers "where is this node at time [t]?".  Query
    times should be non-decreasing for each process — the natural access
    pattern of a discrete-event simulation — which lets every model run in
    O(1) amortised time per query.

    Re-queries within the {e current} leg ([t >= depart]), including
    backwards ones, are answered exactly.  A query before the current
    leg's departure raises [Invalid_argument]: the earlier legs are
    gone.

    Models:
    - {!static}: the node never moves.
    - {!waypoint}: the random waypoint model used by the paper's scenarios
      (pause, pick a uniform destination, move at a uniform-random speed).
    - {!manhattan}: city-block mobility on a street lattice — straight
      through intersections with probability 1/2, left/right 1/4 each.
    - {!rpgm_member}: reference-point group mobility — members follow a
      shared waypoint group centre at a fixed per-member offset.
    - {!scripted}: an explicit piecewise-linear trajectory (tests). *)

type t

val position : t -> Sim.Time.t -> Geom.Vec2.t
(** Position at [t].  Raises [Invalid_argument] if [t] precedes the
    process's current leg. *)

val static : Geom.Vec2.t -> t

val waypoint :
  terrain:Geom.Terrain.t ->
  rng:Sim.Rng.t ->
  speed_min:float ->
  speed_max:float ->
  pause:Sim.Time.t ->
  start:Geom.Vec2.t ->
  t
(** Random waypoint: starting from [start], the node pauses for [pause],
    then moves to a uniform-random point of [terrain] at a speed drawn
    uniformly from [\[speed_min, speed_max\]], and repeats.  Speeds must
    satisfy [0 < speed_min <= speed_max]. *)

val manhattan :
  terrain:Geom.Terrain.t ->
  rng:Sim.Rng.t ->
  spacing:float ->
  speed_min:float ->
  speed_max:float ->
  pause:Sim.Time.t ->
  start:Geom.Vec2.t ->
  t
(** Manhattan-grid mobility: the node moves along a street lattice with
    [spacing] metres between streets.  [start] snaps to the nearest
    intersection; each leg covers one block at a speed drawn uniformly
    from [\[speed_min, speed_max\]]; at every intersection the node keeps
    straight with probability 1/2 or turns left/right with probability 1/4
    each (moves that would leave the terrain rotate until one fits).  A
    positive [pause] is spent at each intersection. *)

val scripted : (Sim.Time.t * Geom.Vec2.t) list -> t
(** Piecewise-linear trajectory through the given (time, position)
    waypoints; constant before the first and after the last.  The list
    must be non-empty and strictly increasing in time.  Used by tests to
    force exact topology changes. *)

val max_speed : t -> float
(** An upper bound (m/s) on the process's speed at any instant: 0 for
    {!static}, [speed_max] for {!waypoint} and {!manhattan}, the fastest
    segment of a {!scripted} trajectory, and the group's [speed_max] for
    an {!rpgm_member} (clamping to the terrain never speeds a member
    up).  [Net.Channel] relies on it to age its neighbour lists. *)

val move_bound : speed:float -> float * float
(** [move_bound ~speed] is [(per_ns, slack)]: a process whose
    {!max_speed} is at most [speed] is, as {!Pos_store} computes
    positions, within [per_ns *. float_of_int dt +. slack] metres of
    where it was [dt] ns earlier — [speed * dt] widened for float
    rounding.  [Net.Channel] widens a cached position by it to settle a
    radio without refreshing it; the pair lets it do so with local
    float arithmetic, which never boxes. *)

(** {2 Group mobility (RPGM)} *)

type group
(** The virtual reference point of an RPGM group: a random-waypoint
    process whose legs are memoized so members can follow it at different
    leg indices (refreshed at different times) without non-monotone
    queries on shared state. *)

val rpgm_group :
  terrain:Geom.Terrain.t ->
  rng:Sim.Rng.t ->
  speed_min:float ->
  speed_max:float ->
  pause:Sim.Time.t ->
  start:Geom.Vec2.t ->
  group
(** A group centre doing random waypoint over [terrain]. *)

val rpgm_member : group -> ox:float -> oy:float -> t
(** A member tracking the group centre at offset [(ox, oy)], clamped to
    the group's terrain.  Members draw no randomness of their own, so any
    subset of members replays identically. *)

(** {2 Struct-of-arrays position store}

    Flat preallocated per-node hot state: cached positions in unboxed
    float arrays and the current leg window in parallel scalar arrays,
    indexed by node id.  The common refresh — interpolating inside the
    current leg — runs on scalars with zero allocation; values are
    bit-identical to calling {!position} on the underlying process. *)

module Pos_store : sig
  type process := t
  type t

  val of_array : process array -> at:Sim.Time.t -> t
  (** Wrap the processes, caching every node's position at [at]. *)

  val length : t -> int

  val refresh : t -> int -> Sim.Time.t -> unit
  (** [refresh s i t] updates node [i]'s cached position to time [t]
      (allocation-free unless the query advances the node onto a new
      leg).  Repeated refreshes at the same time are free.  As with
      {!position}, a query preceding the node's current leg raises
      [Invalid_argument] (and leaves the store untouched). *)

  val refresh_slots : t -> int array -> int -> Sim.Time.t -> unit
  (** [refresh_slots s slots n t] is [refresh s slots.(k) t] for every
      [k] in [\[0, n)], in order: one call for a whole list of slots. *)

  val xs : t -> float array
  (** The cached-x plane: slot [i] holds node [i]'s x as of its last
      {!refresh}.  The array is the store's own (never reallocated), so
      a caller may fetch it once and read it with plain unboxed loads —
      unlike a [t -> int -> float] accessor, whose result boxes whenever
      the call is not inlined. *)

  val ys : t -> float array

  val last_ts : t -> int array
  (** The refresh-time plane: slot [i] holds the time (ns) that node
      [i]'s cached position is for.  The store's own array, to be read
      only. *)

  val position : t -> int -> Sim.Time.t -> Geom.Vec2.t
  (** [refresh] then box the result — for callers that want a [Vec2]. *)

  val proc : t -> int -> process
  (** The underlying mobility process of node [i]. *)
end
