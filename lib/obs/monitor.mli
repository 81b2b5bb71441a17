(** Continuous LDR loop-freedom monitor.

    A bus sink that checks the paper's ordering invariant across the
    written edge on every routing-table write: the new successor's
    stored (sn, fd) must dominate the writer's —

    {[ sn_succ > sn_own  ||  (sn_succ = sn_own && fd_succ < fd_own) ]}

    Because a successor's fd only ratchets down within a sequence
    number and its sn only grows, writes at the successor cannot break
    existing edges, so checking each write in O(1) covers the global
    invariant continuously — every transition, not sample points.

    On violation the monitor emits an [Event.Violation] on the same
    bus (so JSONL traces record it) and snapshots its {!ring} filtered
    to that destination's causal neighbourhood: its table writes,
    violations, route events and data drops, and every link failure.
    [manet_sim trace --violations] pushes the trace's events through
    a {!ring} of its own, so both print the same window. *)

type ring
(** The violation window: the last 256 non-[Span] events, copied. *)

val ring : unit -> ring

val push : ring -> Event.t -> unit
(** Remember one event, evicting the oldest; [Span] records are
    skipped (never destination-relevant). *)

val window : ring -> name:(int -> string) -> dst:int -> string list
(** The ring's events relevant to [dst], oldest first, rendered by
    {!Event.pp} with [name]. *)

type t

val create :
  ?quiet:bool ->
  lookup:(node:int -> dst:int -> Event.inv option) ->
  Bus.t ->
  t
(** Attach a monitor to the bus.  [lookup] returns a node's current
    stored invariants for a destination ([None]: that node keeps no
    LDR invariants — the edge is skipped).  Unless [quiet], each
    violation prints itself and its ring dump to stderr. *)

val violations : t -> int

val last_window : t -> string list
(** Rendered ring dump of the most recent violation (oldest line
    first); empty when none fired. *)
