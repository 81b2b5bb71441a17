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

type alternate = {
  alt_via : Node_id.t;
  alt_adv : int;  (** distance the alternate advertised *)
  alt_dist : int;  (** our distance through it (advertised + link cost) *)
}

type entry = {
  mutable sn : Seqnum.t;
  mutable dist : int;
  mutable fd : int;
  mutable next_hop : Node_id.t option;  (** [None]: route invalid *)
  mutable expires : Sim.Time.t;
  mutable alternates : alternate list;
      (** multipath extension: neighbors whose advertised distance beat
          [fd] under the current number — the LFI condition (PDA), every
          one a loop-free successor.  Kept only when the table is created
          with [multipath:true]; cleared on sequence-number change. *)
}

type t

val create :
  ?multipath:bool -> ?obs:Obs.Bus.t -> ?owner:int -> engine:Sim.Engine.t ->
  unit -> t
(** With [multipath] (default false), feasible non-primary
    advertisements are retained as alternates and {!invalidate_via}
    promotes them instead of invalidating.  When [obs] is given, every
    structural write (install, refresh, invalidation, failover
    promotion) emits an {!Obs.Event.Table_write} on the bus tagged with
    [owner] (the node id as an int, default -1). *)

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
  lc:int ->
  dst:Node_id.t ->
  adv_sn:Seqnum.t ->
  adv_dist:int ->
  via:Node_id.t ->
  lifetime:Sim.Time.t ->
  [ `Installed | `Refreshed | `Rejected ]
(** Process an advertisement for [dst] with advertised distance
    [adv_dist] heard from neighbor [via] over a link of positive cost
    [lc] (1 for hop counts; the paper notes LDR works unchanged with
    general positive symmetric costs).

    [`Installed]: NDC held and the route was (re)written by Procedure 3.
    [`Refreshed]: the advertisement repeats the current active route
    (same successor, same number, no worse distance) — expiry extended,
    invariants updated, but nothing structural changed.
    [`Rejected]: NDC failed, or the stable-path rule kept the current
    active successor. *)

val invalidate : t -> Node_id.t -> unit
(** Drop the successor for this destination; invariants persist. *)

val invalidate_via : t -> Node_id.t -> Node_id.t list * Node_id.t list
(** The neighbor is gone: every route using it as successor fails over to
    its best feasible alternate when one exists (multipath mode) or is
    invalidated.  Returns [(invalidated, promoted)] destination lists;
    the neighbor is also purged from all alternate sets. *)

val fail_route :
  t -> Node_id.t -> via:Node_id.t -> [ `Promoted | `Invalidated | `Untouched ]
(** The route to this destination through [via] is dead (e.g. a RERR from
    [via]): fail over to the best feasible alternate if multipath is on,
    else invalidate.  [`Untouched] when the current successor is not
    [via].  [via] is purged from the alternate set in every case. *)

val successor : t -> Node_id.t -> Node_id.t option
(** Next hop of the active route, if any. *)

val clear : t -> unit
(** Churn teardown: invalidate every route through the normal observable
    table write (successor -> none), then drop all entries.  The loop
    monitor and flap analyzer see the edges disappear. *)

val iter : t -> (Node_id.t -> entry -> unit) -> unit
