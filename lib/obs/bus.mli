(** The event bus: typed emit points fanned out to pluggable sinks.

    Each sink subscribes to a set of event kinds.  A kind with no sink
    is off; every emit site guards with {!on} for its kind, so a run
    pays for an event kind only when something listens to it.  A run's
    own metrics ([Experiment.Metrics]) are such a sink: they take
    [Tx], [Deliver], [Data_drop], [Proto] and [Span], so a run without
    a trace emits no [Rx], [Collision] or [Table_write] events.  With
    sinks attached, emission fills the bus's single scratch record
    (zero allocation) and hands it to each sink of its kind in attach
    order.

    Sinks receive a {b reused} record: copy it ({!Event.copy_into}) if
    you retain it past the callback.  String-valued payloads are
    interned: call sites pass {!intern} ids, sinks resolve them with
    {!name}. *)

type sink = Event.t -> unit

type t

val create : unit -> t
(** A bus with no sinks: every kind is off until a sink takes it. *)

val on : t -> Event.kind -> bool
(** True when at least one sink takes this kind.  Emit sites must guard
    with this before doing any argument preparation. *)

val subscribe : t -> Event.kind list -> sink -> unit
(** Attach a sink for the listed kinds only.  Sinks of one kind are
    called in attach order. *)

val add_sink : t -> sink -> unit
(** Attach a sink for every kind.  Order matters when one sink reacts
    to another's events (attach file writers before the invariant
    monitor so its violation events land after the offending write in
    the trace). *)

val intern : t -> string -> int
(** The id of a label, allocating nothing when it is already known. *)

val name : t -> int -> string
(** Resolve an interned id; "?" for unknown ids. *)

val dispatch : t -> Event.t -> unit
(** Deliver a caller-owned event record to every sink of its kind.
    Used by sinks that generate events of their own (e.g. the monitor's
    violations) — they must not reuse the bus's scratch record
    mid-dispatch. *)

(** Typed emit helpers.  All take plain labeled ints (no options — an
    optional int argument would box).  Call only under {!on} for the
    kind, or on a bus whose sinks are known to take it. *)

val tx : t -> time:Sim.Time.t -> node:int -> cls:int -> dst:int -> bytes:int -> unit
val rx : t -> time:Sim.Time.t -> node:int -> cls:int -> from:int -> dst:int -> unit
val collision : t -> time:Sim.Time.t -> node:int -> cls:int -> from:int -> unit
val ifq_drop : t -> time:Sim.Time.t -> node:int -> cls:int -> dst:int -> unit

val deliver :
  t -> time:Sim.Time.t -> node:int -> flow:int -> seq:int -> src:int ->
  hops:int -> latency_ns:int -> unit

val data_drop :
  t -> time:Sim.Time.t -> node:int -> reason:int -> flow:int -> seq:int ->
  src:int -> dst:int -> unit

val link_failure : t -> time:Sim.Time.t -> node:int -> next_hop:int -> unit
val proto : t -> time:Sim.Time.t -> node:int -> name:int -> dst:int -> unit

val table_write :
  t -> time:Sim.Time.t -> node:int -> dst:int -> old_succ:int ->
  new_succ:int -> dist:int -> fd:int -> sn:int -> unit

val span :
  t -> time:Sim.Time.t -> node:int -> stage:int -> flow:int -> seq:int ->
  d:int -> e:int -> f:int -> unit
(** Packet-lifecycle span record; [stage] is a {!Span.Stage} code,
    [(flow, seq)] the out-of-band trace id (-1/-1 for discovery-side
    stages). *)
