(** Pcap export and streaming replay of channel transmissions.

    Files use the nanosecond-resolution pcap magic and linktype
    DLT_USER0 (147).  Each packet is a 20-byte pseudo-header —
    [time_ns u64] [src u32] [dst u32, 0xFFFFFFFF = broadcast]
    [family u8] [3 zero octets] — followed by the frame exactly as
    transmitted ({!Frame.encode}), so captures open in Wireshark and
    every octet that occupied airtime is on disk. *)

val magic : int
(** 0xA1B23C4D — pcap with nanosecond timestamps, written big-endian. *)

(** {1 Writing} *)

type sink

val open_sink : string -> sink
(** Creates/truncates the file and writes the global header. *)

val write : sink -> time:Sim.Time.t -> Frame.t -> unit
val close : sink -> unit

(** {1 Reading} *)

val is_pcap_file : string -> bool
(** True when the file starts with {!magic} (our byte order). *)

val replay : string -> Obs.Bus.t -> (unit, string) result
(** Stream a capture written by {!write} onto the bus, one record at a
    time, under {!Obs.Reader.replay}'s contract: each frame is the [Tx]
    event {!Channel.transmit} emitted for it — time, source node,
    {!Frame.class_name} label, {!Frame.dst} and on-air length — so
    every bus query reads a capture as the [Tx] part of the same run's
    JSONL trace.  An unreadable file is [Error "PATH: reason"]; a
    structural fault (bad magic or linktype, a truncated record, a
    pseudo-header that disagrees with its record header) stops the pass
    with [Error "PATH: record K: reason"], records numbered from 1 as
    Wireshark numbers frames.  Frames that fail {!Frame.decode}, or
    whose addresses disagree with the pseudo-header, are counted over
    the whole file and give
    [Error "N undecodable frame(s) in PATH; first: record K: reason"];
    after any [Error], discard the sinks' answers. *)
