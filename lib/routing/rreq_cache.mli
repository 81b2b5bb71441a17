(** Route-request duplicate/reverse-path cache.

    Keyed by the computation identifier (originator, rreq id).  Entries
    expire after a TTL: long enough for all copies of a flood and its
    replies to leave the network.  LDR's engaged-node state, AODV's
    duplicate suppression and DSR's request table are all instances, each
    storing its own value type.

    Every node checks every copy of every flood here, so the common
    operations allocate nothing: {!mem}, {!add} on a present key and
    {!remove} (a hit in {!find} allocates only its [Some]).  A cache
    holds no storage until its first {!add}. *)

open Packets

type 'a t

val create : engine:Sim.Engine.t -> ttl:Sim.Time.t -> 'a t

val mem : 'a t -> origin:Node_id.t -> rreq_id:int -> bool
(** True if a live (unexpired) entry exists. *)

val find : 'a t -> origin:Node_id.t -> rreq_id:int -> 'a option

val add : 'a t -> origin:Node_id.t -> rreq_id:int -> 'a -> unit
(** Inserts or refreshes; the expiry clock restarts. *)

val remove : 'a t -> origin:Node_id.t -> rreq_id:int -> unit
(** Deletes the entry, live or expired; no-op if absent.  Every other
    entry stays findable.  LDR drops what it relayed for a computation
    this way when it engages in that computation anew. *)

val clear : 'a t -> unit
(** Drop every entry — churn teardown of a node's volatile state. *)

val length : 'a t -> int
