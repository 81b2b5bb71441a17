(** MAC-layer frames: one heap block each, addresses and payload inline
    and the destination immediate, so a data frame around an existing
    payload allocates 4 words and an ACK 3. *)

open Packets

type dst = private int
(** The addressee's {!Node_id.to_int}, or -1 for broadcast: passing or
    storing one allocates nothing. *)

val broadcast : dst
val unicast : Node_id.t -> dst
val is_broadcast : dst -> bool

val addressee : dst -> Node_id.t
(** A unicast's node; [Invalid_argument] on {!broadcast}. *)

type t =
  | Data of { src : Node_id.t; dst : dst; payload : Payload.t }
  | Ack of { src : Node_id.t; dst : dst }

val src : t -> Node_id.t

val dst : t -> dst

val addressed_to : t -> Node_id.t -> bool
(** Broadcast, or unicast to this node. *)

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

val pp : Format.formatter -> t -> unit
