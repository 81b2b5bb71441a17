(** MAC-layer frames. *)

open Packets

type dst = Unicast of Node_id.t | Broadcast

type body = Payload of Payload.t | Ack

type t = { src : Node_id.t; dst : dst; body : body }

val addressed_to : t -> Node_id.t -> bool

val class_name : t -> string
(** "ACK", "DATA" or the control kind — the trace label. *)

val family : t -> int
(** The wire family selecting the payload parser
    ({!Wire.Payload.family}; 0 for ACKs). *)

val encoded_length : t -> int
(** Total on-air bytes: the 14-byte 802.11 ACK, or the 30-byte 4-address
    MAC header + payload encoding + 4-byte FCS.  Airtime, traced bytes
    and metrics all derive from this. *)

val encode : t -> bytes
(** The frame exactly as transmitted, CRC-32 FCS included;
    [Bytes.length (encode t) = encoded_length t]. *)

val decode :
  family:int -> ack_src:Node_id.t -> bytes -> (t, Wire.error) result
(** Total inverse of {!encode}.  [family] selects the payload parser (it
    travels out of band, e.g. in the pcap pseudo-header); [ack_src]
    supplies the transmitter for ACK frames, which — like real 802.11
    ACKs — carry only the receiver address.  Any truncation or bit flip
    fails the FCS and returns [Error _]; decoding never raises. *)

val dst_int : dst -> int
(** -1 for [Broadcast], else the addressee's {!Node_id.to_int}. *)

val dst_equal : dst -> dst -> bool
val pp : Format.formatter -> t -> unit
