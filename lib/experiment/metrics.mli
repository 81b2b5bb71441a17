(** Run-level accounting for the paper's six metrics (Section 4) plus the
    Fig-7 mean destination sequence number.

    Terminology follows the paper: a "transmitted" count is hop-wise (a
    packet crossing three hops counts three), an "initiated" count is
    per-origination. *)

type t

val create : unit -> t

(* Recording (called by the runner's hooks). *)

val data_originated : t -> Packets.Data_msg.t -> unit
val data_delivered : t -> now:Sim.Time.t -> Packets.Data_msg.t -> unit
val data_dropped : t -> Packets.Data_msg.t -> reason:string -> unit
val transmitted : t -> Net.Frame.t -> unit
val protocol_event : t -> string -> unit
val loop_violation : t -> unit
val set_mean_dest_seqno : t -> float -> unit

(* Reading. *)

val originated : t -> int
val delivered : t -> int
(** Unique end-to-end deliveries (MAC-duplicate copies excluded). *)

val duplicates : t -> int
val delivery_ratio : t -> float

val mean_latency_ms : t -> float

val median_latency_ms : t -> float
(** Percentiles read a log-bucketed {!Stats.Hdr} histogram over integer
    nanoseconds: within-bucket resolution (~0.8% at the default
    sub-bucket width), exact at the recorded min/max, and exactly
    mergeable across trials ({!Stats.Hdr.merge_into}). *)

val p95_latency_ms : t -> float
val p99_latency_ms : t -> float

val latency_quantile_ms : t -> float -> float
(** [latency_quantile_ms t q] for arbitrary [q] in [0, 1]. *)

val latency_histogram : t -> Stats.Hdr.t
(** The underlying delivery-latency histogram (values in ns). *)

val mean_hops : t -> float
(** Mean path length (MAC transmissions) of delivered packets. *)

val control_transmissions : t -> int
(** All control packets, hop-wise (RREQ+RREP+RERR+HELLO+TC). *)

val control_by_kind : t -> (string * int) list
val data_transmissions : t -> int

val control_bytes : t -> int
(** Total control octets put on the air, MAC framing included —
    byte-accurate from {!Net.Frame.encoded_length}. *)

val control_bytes_by_kind : t -> (string * int) list
val data_bytes : t -> int
val ack_bytes : t -> int

val network_load : t -> float
(** Control transmissions per received data packet. *)

val byte_load : t -> float
(** Control octets per received data packet (the byte-true counterpart
    of {!network_load}). *)

val rreq_load : t -> float
val rrep_init_per_rreq : t -> float
val rrep_recv_per_rreq : t -> float
val event_count : t -> string -> int
val drops_by_reason : t -> (string * int) list
val loop_violations : t -> int
val mean_dest_seqno : t -> float

type summary = {
  s_delivery_ratio : float;
  s_latency_ms : float;
  s_network_load : float;
  s_byte_load : float;
  s_rreq_load : float;
  s_rrep_init : float;
  s_rrep_recv : float;
  s_mean_dest_seqno : float;
}

val summary : t -> summary
