open Sim

type t = { cs_range_m : float; ifq_capacity : int }

let default = { cs_range_m = 550.; ifq_capacity = 50 }

let bit_rate = 2e6
let preamble = Time.us 192.
let sifs = Time.us 10.

let bytes_airtime bytes = Time.sec (float_of_int (bytes * 8) /. bit_rate)

let frame_airtime ~bytes = Time.add preamble (bytes_airtime bytes)

let data_airtime ~payload_bytes =
  frame_airtime ~bytes:(payload_bytes + Wire.Mac.data_overhead)

let ack_airtime = Time.add preamble (bytes_airtime Wire.Mac.ack_bytes)

let slot = Time.us 20.

(* SIFS + ACK airtime + a two-slot scheduling margin. *)
let ack_timeout = Time.add sifs (Time.add ack_airtime (Time.mul slot 2))
