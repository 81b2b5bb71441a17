(** LDR routing table.

    Per destination the table keeps the labeled-distance invariants
    (sequence number, measured distance, feasible distance), the
    successor, and an expiry.  Invariants outlive route invalidation:
    when a route breaks, the entry's [sn]/[fd] remain and constrain
    future updates — this is what makes LDR loop-free across failures.

    {!apply_advert} implements NDC plus the paper's Procedure 3 (Set
    Route), including the stable-path rule: a node with an active route
    only switches successors for a shorter path or a newer number. *)

open Packets

type entry = {
  mutable sn : Seqnum.t;
  mutable dist : int;
  mutable fd : int;
  mutable next_hop : Node_id.t option;  (** [None]: route invalid *)
  mutable expires : Sim.Time.t;
}

type t

val create : ?obs:Obs.Bus.t -> ?owner:int -> engine:Sim.Engine.t -> unit -> t
(** When [obs] is given, every structural write (install, refresh,
    invalidation) emits an {!Obs.Event.Table_write} on the bus tagged
    with [owner] (the node id as an int, default -1). *)

val find : t -> Node_id.t -> entry option
(** The entry, live or not. *)

val get : t -> Node_id.t -> entry
(** {!find} without the option, for the flood path: allocates nothing.
    Raises [Not_found] when there is no entry. *)

val active : t -> Node_id.t -> entry option
(** The entry iff it has a successor and has not expired. *)

val is_active : t -> entry -> bool
(** The entry has a successor and has not expired. *)

val remaining_lifetime : t -> entry -> Sim.Time.t

val refresh : t -> entry -> lifetime:Sim.Time.t -> unit
(** Push the expiry out to at least [now + lifetime]. *)

val apply_advert :
  t ->
  dst:Node_id.t ->
  adv_sn:Seqnum.t ->
  adv_dist:int ->
  via:Node_id.t ->
  lifetime:Sim.Time.t ->
  [ `Installed | `Refreshed | `Rejected ]
(** Process an advertisement for [dst] with advertised distance
    [adv_dist] heard from neighbor [via]; distances count hops, so the
    route through [via] is [adv_dist + 1] long.

    [`Installed]: NDC held and the route was (re)written by Procedure 3.
    [`Refreshed]: the advertisement repeats the current active route
    (same successor, same number, no worse distance) — expiry extended,
    invariants updated, but nothing structural changed.
    [`Rejected]: NDC failed, or the stable-path rule kept the current
    active successor. *)

val invalidate : t -> Node_id.t -> unit
(** Drop the successor for this destination; invariants persist. *)

val invalidate_via : t -> Node_id.t -> Node_id.t list
(** The neighbor is gone: every route using it as successor is
    invalidated.  Returns those destinations. *)

val fail_route : t -> Node_id.t -> via:Node_id.t -> [ `Invalidated | `Untouched ]
(** The route to this destination through [via] is dead (e.g. a RERR from
    [via]): invalidate it.  [`Untouched] when the current successor is
    not [via]. *)

val successor : t -> Node_id.t -> Node_id.t option
(** Next hop of the active route, if any. *)

val clear : t -> unit
(** Churn teardown: invalidate every route through the normal observable
    table write (successor -> none), then drop all entries.  The loop
    monitor and flap analyzer see the edges disappear. *)

val iter : t -> (Node_id.t -> entry -> unit) -> unit
