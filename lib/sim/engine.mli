(** Discrete-event simulation driver.

    Owns the virtual clock and the pending-event set.  All simulated
    activity — packet transmissions, protocol timers, mobility
    waypoints, traffic sources — is expressed as events scheduled on
    one engine.

    Every run's event set is a {!Calendar_queue} (O(1) schedule and
    cancel, pooled zero-allocation slots).  The model checker's
    {!Controlled_queue} is the other backing, and the calendar's
    reference: a recorded calendar run replays through it event for
    event ({!replay_trace}). *)

type t

type scheduler = [ `Calendar | `Controlled ]
(** [`Controlled] backs the event set with {!Controlled_queue} for
    model-checking runs: the pending set is introspectable
    ({!ready_set}) and an explorer can pick which ready event fires
    next ({!fire_seq}).  Left to {!run}/{!step} it pops the global
    (time, seq)-minimum — event-for-event identical to [`Calendar]. *)

type handle
(** Identifies a scheduled event so it can be cancelled.  An immediate
    int under either scheduler. *)

val none : handle
(** A handle that never names a live event — the "no timer pending"
    value for handle-typed fields.  [cancel t none] is a no-op. *)

val is_none : handle -> bool

val create : ?seed:int -> ?scheduler:scheduler -> unit -> t
(** [scheduler] defaults to [`Calendar]. *)

val controlled : t -> bool
(** True for [`Controlled] engines — subsystems use it to route sends
    through {!schedule_floating} instead of fixed-delay timers. *)

val now : t -> Time.t
(** Current virtual time. *)

val rng : t -> Rng.t
(** The engine's root generator.  Subsystems should [Rng.split] it once at
    setup so their streams stay independent. *)

val at : t -> Time.t -> (unit -> unit) -> handle
(** [at t time f] schedules [f] at absolute [time], which must not be in
    the past. *)

val after : t -> Time.t -> (unit -> unit) -> handle
(** [after t d f] schedules [f] at [now t + d]. *)

val at_fn : t -> Time.t -> ('a -> unit) -> 'a -> handle
(** [at_fn t time fn arg] schedules [fn arg] at [time].  With the
    calendar scheduler the pair is stored in the pooled event slot —
    nothing is allocated, unlike [at], whose callback closure is a
    fresh heap block.  Meant for high-frequency event classes whose
    callback is a pre-bound top-level function over a long-lived state
    record. *)

val after_fn : t -> Time.t -> ('a -> unit) -> 'a -> handle
(** [after_fn t d fn arg] is [at_fn] at [now t + d]. *)

val at_tagged :
  t -> Time.t -> tag:int -> label:string -> (unit -> unit) -> handle
(** [at] with explorer-visible metadata: under the controlled scheduler
    the event's {!Controlled_queue.ready} entry carries [tag]/[label]
    (mcheck uses the tag for the acting node and the label for trace
    readability).  Under the calendar identical to {!at}. *)

val schedule_floating : t -> ?tag:int -> ?label:string -> (unit -> unit)
  -> handle
(** An in-flight asynchronous message: under the controlled scheduler it
    becomes a {e floating} event the explorer may delay past timers and
    later messages; its nominal time is the current clock and firing it
    never moves the clock backwards.  Under the calendar it degrades to
    [at t (now t)] — immediate delivery. *)

val ready_set : t -> Controlled_queue.ready list
(** The explorer's choice set (see {!Controlled_queue.ready}).  Raises
    [Invalid_argument] unless the engine is [`Controlled]. *)

val pending_set : t -> Controlled_queue.ready list
(** Every live controlled event, ready or not — mcheck's state-digest
    input.  Raises [Invalid_argument] unless [`Controlled]. *)

val fire_seq : t -> int -> bool
(** Fire the pending controlled event with the given sequence id (from
    {!ready_set}); false if no such live event.  The clock advances to
    the event's nominal time if that is later.  Raises
    [Invalid_argument] unless the engine is [`Controlled]. *)

val advance_clock : t -> Time.t -> unit
(** Move the controlled clock forward to [time] (no-op if already
    there or past) without firing anything — mcheck's fixture prelude
    uses it to deliver a held message at its hold instant, so lifetime
    arithmetic sees the delayed delivery time.  Raises
    [Invalid_argument] unless the engine is [`Controlled]. *)

val cancel : t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event (or {!none})
    is a no-op.  Under the calendar scheduler the event's slot is freed
    immediately, not at pop time. *)

val every : t -> ?jitter:(unit -> Time.t) -> start:Time.t -> interval:Time.t
  -> until:Time.t -> (unit -> unit) -> unit
(** [every t ~start ~interval ~until f] runs [f] at [start],
    [start+interval], ... while the firing time is before [until].
    [jitter] adds a per-firing offset; a jittered firing landing at or
    past [until] is skipped (the jitter-free cadence continues).  Raises
    [Invalid_argument] if [interval <= 0] — a zero interval would
    schedule an unbounded same-instant event storm. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Process events in order until the queue drains, the clock passes
    [until], or [max_events] events have fired.  When [until] is given
    and no pending event remains at or before it, the clock ends at
    [until] — idle virtual time passes, so timeouts measured across
    repeated bounded runs behave as expected.  When [max_events] stops
    the run with events still due before the horizon, the clock stays at
    the last fired event so a resumed run never observes time moving
    backwards. *)

val step : t -> bool
(** Fire the single earliest event.  Returns false when idle. *)

val events_processed : t -> int

type stats = { pending : int; fired : int }

val stats : t -> stats
(** Scheduler gauges: currently pending (scheduled, not yet fired or
    cancelled) and total fired events.  O(1) under either scheduler;
    telemetry reads this each interval. *)

val calendar_buckets : t -> int
(** Current calendar-wheel bucket count; 0 under [`Controlled]. *)

val calendar_occupancy : t -> float
(** Pending events per calendar bucket (the wheel resizes to keep this
    near 1); 0 under [`Controlled].  Telemetry gauge. *)

(** Recorded scheduler workloads: the exact schedule/cancel/pop op
    sequence of a calendar run, each pop naming the schedule op whose
    event fired.  A replay through either scheduler with no-op
    callbacks times the engine hot path alone — a full simulation
    spends most of its time in protocol and channel code — and checks
    the replaying scheduler's firing order against the recording. *)
module Trace : sig
  type t

  val length : t -> int
  (** Total recorded ops (schedules + cancels + pops). *)

  val pops : t -> int
  (** Recorded pops — the run's fired-event count while recording. *)
end

val record_trace : t -> Trace.t
(** Start recording this engine's scheduler ops.  The engine must be a
    fresh calendar engine — nothing scheduled or fired yet — since its
    slot handles are what the recorder maps back to schedule ops;
    raises [Invalid_argument] otherwise. *)

val replay_trace : scheduler:scheduler -> Trace.t -> int
(** Drive a fresh engine of the given mode through the recorded op
    sequence and return the number of events fired, which is
    {!Trace.pops}.  Every replayed pop must fire the schedule op the
    recorded pop fired; on the first that does not, raises [Failure]
    naming the op index. *)
