(** Radio and MAC parameters.

    The constants follow the 802.11 DSSS configuration of the paper's
    GloMoSim setup: 2 Mbps data rate (a 192 us PHY preamble+PLCP header
    per frame) and a 275 m nominal transmission range.  MAC header, FCS
    and ACK sizes are {!Wire.Mac}'s. *)

type t = {
  cs_range_m : float;
      (** carrier-sense / interference range.  Real receivers detect
          carriers well below the decode threshold (ns-2 ships 550 m CS
          for a 250 m decode range); modelling it suppresses most
          hidden-terminal collisions, standing in for RTS/CTS + NAV. *)
  ifq_capacity : int;  (** interface queue length, packets *)
}

val default : t

val slot : Sim.Time.t
val sifs : Sim.Time.t

val frame_airtime : bytes:int -> Sim.Time.t
(** Airtime of [bytes] total on-air octets (preamble + serialization) —
    feed it {!Frame.encoded_length}. *)

val ack_airtime : Sim.Time.t

val ack_timeout : Sim.Time.t
(** How long a sender waits for an ACK after its transmission ends. *)
