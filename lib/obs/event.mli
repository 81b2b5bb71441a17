(** Structured observability events.

    One compact record per event: virtual time, node, kind, and up to
    six int payload fields [a]..[f] whose meaning depends on the kind
    (-1 means absent).  No strings or format work happen on the emit
    path — string-valued payloads (frame classes, drop reasons,
    protocol-event names) are interned to ints by the {!Bus} and only
    resolved back when a sink renders the event.

    Payload field map:
    - [Tx]: a = frame class, b = MAC destination (-1 broadcast),
      c = payload bytes
    - [Rx]: a = frame class, b = sender, c = MAC destination
    - [Collision]: a = frame class of the lost frame, b = its sender
    - [Ifq_drop]: a = frame class, b = MAC destination
    - [Deliver]: a = flow id, b = seq, c = source, d = hops,
      e = latency (ns)
    - [Data_drop]: a = reason, b = flow id, c = seq, d = source,
      e = destination
    - [Link_failure]: a = unreachable next hop
    - [Proto]: a = event name, b = destination the event concerns (-1
      when not destination-specific)
    - [Table_write]: a = destination, b = old successor, c = new
      successor (-1 = route invalidated), d = distance, e = feasible
      distance, f = packed sequence number ({!Packets.Seqnum.pack})
    - [Violation]: a = destination, b = successor, c = own packed sn,
      d = successor's packed sn, e = own fd, f = successor's fd
    - [Span]: a = lifecycle stage code ({!span_stage_name}), b = flow
      id (-1 for discovery stages), c = seq (-1 for discovery stages),
      d/e/f = stage-specific (see {!Span.Stage}) *)

type kind =
  | Tx
  | Rx
  | Collision
  | Ifq_drop
  | Deliver
  | Data_drop
  | Link_failure
  | Proto
  | Table_write
  | Violation
  | Span

val index : kind -> int
(** The kind's place in the declaration, [Tx] 0 to [Span] 10: its slot
    in a per-kind table. *)

type t = {
  mutable time : Sim.Time.t;
  mutable node : int;
  mutable kind : kind;
  mutable a : int;
  mutable b : int;
  mutable c : int;
  mutable d : int;
  mutable e : int;
  mutable f : int;
}

type inv = { i_sn : int; i_dist : int; i_fd : int }
(** A node's stored LDR invariants for one destination, with the
    sequence number packed to a single order-preserving int. *)

val make : unit -> t
(** A blank event (all payload fields -1). *)

val copy_into : src:t -> dst:t -> unit
(** Field-wise copy, no allocation — ring buffers reuse their slots. *)

val kind_name : kind -> string
val kind_of_name : string -> kind option

val span_stage_name : int -> string
(** Name of a [Span] stage code (field [a]); ["?"] for unknown codes. *)

val has_label : kind -> bool
(** Whether field [a] is an interned-string id ({!Bus.name} resolves
    it). *)

val pp : name:(int -> string) -> Format.formatter -> t -> unit
(** Render one event as a human-readable trace line; [name] resolves
    interned-string ids (use {!Bus.name}). *)
