(** Application (CBR) data packets. *)

type t = {
  flow_id : int;
  seq : int;  (** per-flow packet counter *)
  src : Node_id.t;
  dst : Node_id.t;
  payload_bytes : int;
  origin_time : Sim.Time.t;  (** when the application emitted it *)
  ttl : int;  (** IP-style hop budget, decremented per forward *)
  hops : int;  (** transmissions so far; at delivery, the path length *)
}

val default_ttl : int

val fresh :
  flow_id:int ->
  seq:int ->
  src:Node_id.t ->
  dst:Node_id.t ->
  payload_bytes:int ->
  origin_time:Sim.Time.t ->
  t
(** A newly originated packet: full TTL, zero hops. *)

val hop : t -> t
(** Account one transmission. *)

val uid : t -> int * int
(** (flow_id, seq): unique across a run; keys end-to-end accounting. *)

val relay : t -> t
(** The copy a relay forwards: one hop of budget spent ([ttl - 1]) and
    one transmission accounted ([hops + 1]), in one allocation.  The
    caller drops the packet instead when [ttl <= 1]. *)

val pp : Format.formatter -> t -> unit
