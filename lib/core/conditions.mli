(** LDR's loop-freedom conditions (paper, Section 2.1), as pure
    predicates.

    A node's invariants for a destination are its stored sequence number
    [sn], measured distance [dist], and feasible distance [fd] — the
    minimum distance it has held for the current sequence number.
    Distances are hop counts ([infinity] = no usable bound).

    Every predicate takes a node's invariants as plain scalars, as they
    sit in its route-table entry, so testing one allocates nothing.  The
    conditions are stated for a node that holds invariants for the
    destination; a node with no information may accept any
    advertisement, never needs a reset and cannot answer — its caller
    decides that case before asking. *)

open Packets

val infinity : int
(** Distance standing in for "no information": larger than any real path
    length, safe to add small constants to. *)

val sn_ge_opt : Seqnum.t -> Seqnum.t option -> bool
(** [sn_ge_opt a b]: [a >= b], where an absent [b] compares below
    everything ("the requester knows nothing"). *)

val sn_gt_opt : Seqnum.t -> Seqnum.t option -> bool
val sn_eq_opt : Seqnum.t -> Seqnum.t option -> bool

val ndc : sn:Seqnum.t -> fd:int -> adv_sn:Seqnum.t -> adv_dist:int -> bool
(** Numbered Distance Condition: a node with number [sn] and feasible
    distance [fd] may accept an advertisement (sequence number [adv_sn],
    advertised distance [adv_dist]) and change its successor with no
    coordination iff [adv_sn > sn], or [adv_sn = sn && adv_dist < fd]. *)

val fdc_requires_reset :
  sn:Seqnum.t -> fd:int -> req_sn:Seqnum.t option -> req_fd:int -> bool
(** Feasible Distance Condition, contrapositive: a relay must set the
    T bit iff [sn = req_sn && fd >= req_fd].  A relay with a different
    number never violates the ordering. *)

val sdc :
  sn:Seqnum.t ->
  dist:int ->
  active:bool ->
  req_sn:Seqnum.t option ->
  answer_dist:int ->
  reset:bool ->
  bool
(** Start Distance Condition: a node with number [sn] and distance
    [dist] may answer a solicitation iff it has an active route and
    ([sn = req_sn && dist < answer_dist && not reset] or [sn > req_sn]). *)

val sdc_ignoring_reset :
  sn:Seqnum.t ->
  dist:int ->
  active:bool ->
  req_sn:Seqnum.t option ->
  answer_dist:int ->
  bool
(** SDC with the T bit disregarded — identifies the first node on the
    flood path that converts a reset-requiring RREQ into a unicast to the
    destination. *)
