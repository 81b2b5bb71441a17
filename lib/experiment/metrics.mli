(** Run-level accounting for the paper's six metrics (Section 4) plus the
    Fig-7 mean destination sequence number.

    The counts are a sink on a bus ({!attach}): a run's hooks only emit
    events, and these counters fold them, so a trace replayed onto a
    fresh bus counts with the same code as the run that wrote it.
    Transmissions are one per-class [(count, bytes)] table keyed by the
    bus's interned class ids, [DATA] and [ACK] among them, every other
    class control; names are resolved only when a count is read.

    Terminology follows the paper: a "transmitted" count is hop-wise (a
    packet crossing three hops counts three), an "initiated" count is
    per-origination. *)

type t

val attach : Obs.Bus.t -> t
(** Counters fed by the bus's [Tx], [Deliver], [Data_drop], [Proto] and
    [Span] events ([originate] spans count originations).  A replayed
    event with no label (id < 0) is left out of the per-label tables. *)

(* Recorded by the runner: no event carries these. *)

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

val tx_classes : t -> (string * (int * int)) list
(** Per traffic class, [(transmissions, total on-air bytes)], sorted by
    class name: the table [manet_sim trace --classes] prints. *)

val control_by_kind : t -> (string * int) list
val data_transmissions : t -> int

val ack_transmissions : t -> int
(** MAC-level ACK frames put on the air. *)

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
