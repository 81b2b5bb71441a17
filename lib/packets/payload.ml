type t =
  | Data of Data_msg.t
  | Ldr of Ldr_msg.t
  | Aodv of Aodv_msg.t
  | Dsr of Dsr_msg.t
  | Olsr of Olsr_msg.t

(* Data packets, including data inside DSR source-route headers. *)
let is_data = function
  | Data _ | Dsr (Dsr_msg.Data _) -> true
  | Ldr _ | Aodv _ | Dsr _ | Olsr _ -> false

(* Out-of-band trace id of a data packet, allocation-free: (flow, seq)
   ride in [Data_msg] end-to-end, so span records need nothing added
   to the wire.  -1 for control payloads. *)
let data_flow = function
  | Data d | Dsr (Dsr_msg.Data { data = d; _ }) -> d.Data_msg.flow_id
  | Ldr _ | Aodv _ | Dsr _ | Olsr _ -> -1

let data_seq = function
  | Data d | Dsr (Dsr_msg.Data { data = d; _ }) -> d.Data_msg.seq
  | Ldr _ | Aodv _ | Dsr _ | Olsr _ -> -1

(* No allocation: trace labels and metrics buckets read this per
   transmission. *)
let class_name = function
  | Data _ | Dsr (Dsr_msg.Data _) -> "DATA"
  | Ldr m -> Ldr_msg.kind m
  | Aodv m -> Aodv_msg.kind m
  | Dsr m -> Dsr_msg.kind m
  | Olsr m -> Olsr_msg.kind m

let pp fmt = function
  | Data d -> Data_msg.pp fmt d
  | Ldr m -> Ldr_msg.pp fmt m
  | Aodv m -> Aodv_msg.pp fmt m
  | Dsr m -> Dsr_msg.pp fmt m
  | Olsr m -> Olsr_msg.pp fmt m
