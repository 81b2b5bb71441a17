(** Wire-format codecs: byte-true encodings for every payload family.

    The simulator's airtime, traced byte counts, and overhead metrics all
    derive from these encodings — there are no size estimators anywhere
    else.  Layouts follow the source documents: LDR per the paper's
    Section-2 header fields, AODV per RFC 3561, DSR per RFC 4728, OLSR
    per RFC 3626, plus an IPv4-shaped data header.  See
    [docs/WIRE_FORMATS.md] for the field-by-field tables and the few
    deliberate deviations.

    Decoding never raises: every decoder is total and returns a [result]
    whose error carries the byte offset where parsing stopped. *)

type error = { offset : int; reason : string }

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

(** Append-only big-endian byte emitter over a growable buffer. *)
module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t
  val clear : t -> unit
  val length : t -> int
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int64 -> unit
  val zeros : t -> int -> unit

  val contents : t -> bytes
  (** A copy of the bytes written so far. *)
end

(** Bounds-checked big-endian cursor; all reads return [result]. *)
module Reader : sig
  type t

  val of_bytes : ?pos:int -> ?len:int -> bytes -> t
  val pos : t -> int
  val remaining : t -> int
  val u8 : t -> (int, error) result
  val u16 : t -> (int, error) result
  val u32 : t -> (int, error) result
  val u64 : t -> (int64, error) result
  val skip : t -> int -> (unit, error) result

  val expect_end : t -> (unit, error) result
  (** [Error _] if any bytes remain. *)

  val fail : t -> string -> ('a, error) result
  (** An error tagged with the current cursor offset. *)
end

(** CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the MAC
    frame check sequence. *)
module Crc32 : sig
  val bytes : bytes -> pos:int -> len:int -> int
  (** Unsigned 32-bit digest as an int. *)
end

(** LDR control messages (paper, Section 2): type octet, one flags octet
    carrying the T/N/D bits, 8-byte labelled sequence numbers, and
    32-bit fd / answer-dist / dist fields with an all-ones infinity. *)
module Ldr : sig
  val infinite_distance : int
  (** The in-memory unreachable sentinel ([max_int / 4], mirroring
      [Ldr.Conditions.infinity]); encodes as 0xFFFF_FFFF on the wire. *)

  val encoded_length : Packets.Ldr_msg.t -> int
  val write : Writer.t -> Packets.Ldr_msg.t -> unit
  val encode : Packets.Ldr_msg.t -> bytes
  val read : Reader.t -> (Packets.Ldr_msg.t, error) result
  val decode : bytes -> (Packets.Ldr_msg.t, error) result
end

(** AODV control messages per RFC 3561 (RREQ 24 B, RREP 20 B,
    RERR 4 + 8n B); the RREQ's expanding-ring TTL rides the octet the
    RFC leaves reserved, standing in for the IP TTL. *)
module Aodv : sig
  val encoded_length : Packets.Aodv_msg.t -> int
  val write : Writer.t -> Packets.Aodv_msg.t -> unit
  val encode : Packets.Aodv_msg.t -> bytes
  val read : Reader.t -> (Packets.Aodv_msg.t, error) result
  val decode : bytes -> (Packets.Aodv_msg.t, error) result
end

(** DSR per RFC 4728: a 4-byte fixed header followed by options; source
    routes are sized per hop (4 bytes per address). *)
module Dsr : sig
  val encoded_length : Packets.Dsr_msg.t -> int
  val write : Writer.t -> Packets.Dsr_msg.t -> unit
  val encode : Packets.Dsr_msg.t -> bytes
  val read : Reader.t -> (Packets.Dsr_msg.t, error) result
  val decode : bytes -> (Packets.Dsr_msg.t, error) result
end

(** OLSR per RFC 3626: packet header + message envelope (16 B), HELLO
    bodies as link-code blocks, TC bodies as ANSN + advertised set.

    On the wire HELLO neighbours are grouped into per-link-code blocks
    in canonical order (Asym, Sym, Mpr); decoding yields that grouped
    order, so decode ∘ encode is the identity on canonically grouped
    neighbour lists (the receiver logic is order-insensitive). *)
module Olsr : sig
  val encoded_length : Packets.Olsr_msg.t -> int
  val write : Writer.t -> Packets.Olsr_msg.t -> unit
  val encode : Packets.Olsr_msg.t -> bytes
  val read : Reader.t -> (Packets.Olsr_msg.t, error) result
  val decode : bytes -> (Packets.Olsr_msg.t, error) result
end

(** Application data: a 20-byte IPv4-shaped header plus the 8-byte
    origination timestamp (28 B total), then [payload_bytes] of zeroed
    application payload. *)
module Data : sig
  val header_bytes : int
  val encoded_length : Packets.Data_msg.t -> int
  val write : Writer.t -> Packets.Data_msg.t -> unit
  val encode : Packets.Data_msg.t -> bytes
  val read : Reader.t -> (Packets.Data_msg.t, error) result
  val decode : bytes -> (Packets.Data_msg.t, error) result
end

(** Dispatch over the payload sum.  Encodings are self-describing within
    a family but the family itself travels out of band (the pcap
    pseudo-header, or [Frame] context), as on a real link where a
    demux field in a lower layer selects the parser. *)
module Payload : sig
  val family_ack : int
  (** 0 — MAC-level ACK, no network payload. *)

  val family : Packets.Payload.t -> int
  (** 1 data, 2 LDR, 3 AODV, 4 DSR, 5 OLSR. *)

  val encoded_length : Packets.Payload.t -> int
  val write : Writer.t -> Packets.Payload.t -> unit
  val encode : Packets.Payload.t -> bytes
  val read : family:int -> Reader.t -> (Packets.Payload.t, error) result
  val decode : family:int -> bytes -> (Packets.Payload.t, error) result
end

val encoded_length : Packets.Payload.t -> int
(** Alias for {!Payload.encoded_length}: the single source of truth for
    every on-air size in the stack. *)

(** 802.11 MAC framing constants and the 6-byte address codec used by
    [Net.Frame]: 30-byte 4-address data header + 4-byte FCS (34 B of
    overhead) and the 14-byte ACK.  The MAC's airtimes read these
    sizes. *)
module Mac : sig
  val header_bytes : int
  val fcs_bytes : int
  val data_overhead : int
  val ack_bytes : int

  val write_addr : Writer.t -> int option -> unit
  (** [Some id] as the locally administered MAC 02:00:aa:bb:cc:dd with
      the node id in the low 32 bits; [None] as the broadcast address. *)

  val read_addr : Reader.t -> (int option, error) result
end
