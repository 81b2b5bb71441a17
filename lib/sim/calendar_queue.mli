(** Pending-event set as a calendar queue (Brown, CACM '88).

    Events are bucketed by time into a wheel spanning one "year";
    far-future events wait in an overflow tier and migrate in when the
    calendar is rebuilt.  Schedule and {b physical} cancel are O(1); pop
    is O(1) amortized while the bucket width tracks the mean inter-event
    gap, which the snapshot-resize policy maintains.  Event slots are
    pooled and recycled through a free list, so steady-state operation
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
val bucket_width : t -> int

val handle_idx_bits : int
val handle_idx_mask : int
(** Handle layout — [(generation lsl handle_idx_bits) lor slot_index] —
    exposed for {!Engine.Trace}, which maps handles back to the
    schedule ops that produced them. *)
