(** Network-layer payloads: one sum over every protocol's messages. *)

type t =
  | Data of Data_msg.t  (** data routed hop-by-hop (LDR / AODV / OLSR) *)
  | Ldr of Ldr_msg.t
  | Aodv of Aodv_msg.t
  | Dsr of Dsr_msg.t  (** includes DSR's source-routed data *)
  | Olsr of Olsr_msg.t

val is_data : t -> bool
(** Data packets, including data inside DSR source-route headers. *)

val data_flow : t -> int
val data_seq : t -> int
(** The data packet's out-of-band trace id (flow id / per-flow seq),
    -1 for control payloads.  Allocation-free; span emission keys on
    these. *)

val class_name : t -> string
(** The metrics bucket: "DATA" for every {!is_data} payload, else the
    control kind ("RREQ", "RREP", "RERR", "HELLO", "TC", ...);
    allocation-free, for trace labels. *)

val pp : Format.formatter -> t -> unit
