(** Pending-event set as a calendar queue (Brown, CACM '88) with an
    ordered far tier.

    Events near the front are bucketed by time on a rolling wheel;
    events beyond the wheel's window wait in a binary heap on time and
    migrate onto the wheel once, when the window reaches them.
    Schedule and {b physical} cancel are O(1) on the wheel (O(log n) in
    the heap); pop is O(1) while the bucket width matches the spacing of
    the earliest events, which a retune restores whenever the measured
    pop cost exceeds a bound.  Event slots are pooled and recycled
    through a free list, so steady-state operation — retunes included —
    allocates nothing; handles are generation-checked ints, making
    cancel-after-fire (or after recycling) a detected no-op.

    Ordering is (time, schedule sequence): same-instant events fire in
    schedule order, matching {!Controlled_queue.pop_min} event for
    event. *)

type t

val create : unit -> t

val schedule : t -> Time.t -> (unit -> unit) -> int
(** [schedule q at f] arranges for [f] to run at [at]; returns a handle
    for {!cancel}.  Handles are never 0. *)

val schedule_raw : t -> Time.t -> (Obj.t -> unit) -> Obj.t -> int
(** Closure-free variant: stores the callback and its argument in the
    event slot.  Sound only when [fn] is applied to the [arg] it was
    paired with, which the queue guarantees. *)

val cancel : t -> int -> unit
(** O(1) physical removal: the slot is unlinked and recycled
    immediately (observable via {!live_count}), not at pop time.
    Stale handles — fired, already cancelled, or recycled — are
    detected by generation and ignored. *)

val pop_staged : t -> int -> bool
(** [pop_staged q limit_ns] removes the earliest event if it is due at
    or before [limit_ns] (pass [max_int] for unbounded) and stages it
    for {!staged_time}/{!run_staged}.  False leaves the queue
    untouched.  Staging avoids the option/tuple allocation of a
    returned pop. *)

val staged_time : t -> Time.t
val run_staged : t -> unit

val staged_slot : t -> int
(** Pool index of the staged event — the [handle_idx_mask] bits of its
    handle.  {!Engine.Trace} maps it back to the schedule op that filled
    the slot. *)

val next_time_ns : t -> int
(** Time of the earliest live event, or [max_int] when empty. *)

val is_empty : t -> bool

val live_count : t -> int
(** Number of scheduled, not-yet-fired, not-cancelled events.  O(1). *)

val capacity : t -> int
(** Current slot-pool size — tests use [live_count]/[capacity] to
    observe that cancellation recycles slots immediately. *)

val num_buckets : t -> int

val near_count : t -> int
(** Events on the wheel; the rest of {!live_count} is in the far tier. *)

val entries_examined : t -> int
val pops : t -> int
(** Bucket entries the pops so far have examined (the popped event
    included), and how many pops there were: their ratio is the mean
    min-scan length per pop. *)

val handle_idx_bits : int
val handle_idx_mask : int
(** Handle layout — [(generation lsl handle_idx_bits) lor slot_index] —
    exposed for {!Engine.Trace}, which maps handles back to the
    schedule ops that produced them. *)
