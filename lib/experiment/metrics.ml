open Packets

type control = { mutable tx : int; mutable bytes : int }

type t = {
  mutable originated : int;
  mutable delivered : int;
  mutable duplicates : int;
  latency : Stats.Welford.t;
  (* Percentiles come from a log-bucketed histogram over integer
     nanoseconds: O(1) add, exactly mergeable across trials (bucket
     counts just sum), no sort-per-query reservoir. *)
  latency_h : Stats.Hdr.t;
  hop_count : Stats.Welford.t;
  seen : (int, unit) Hashtbl.t;  (* delivered uids, packed *)
  control : (string, control) Hashtbl.t;  (* by frame class *)
  mutable data_tx : int;
  mutable ack_tx : int;
  mutable data_bytes : int;
  mutable ack_bytes : int;
  events : (string, int ref) Hashtbl.t;
  drops : (string, int ref) Hashtbl.t;
  mutable loop_violations : int;
  mutable mean_dest_seqno : float;
}

let create () =
  {
    originated = 0;
    delivered = 0;
    duplicates = 0;
    latency = Stats.Welford.create ();
    latency_h = Stats.Hdr.create ();
    hop_count = Stats.Welford.create ();
    seen = Hashtbl.create 4096;
    control = Hashtbl.create 8;
    data_tx = 0;
    ack_tx = 0;
    data_bytes = 0;
    ack_bytes = 0;
    events = Hashtbl.create 8;
    drops = Hashtbl.create 8;
    loop_violations = 0;
    mean_dest_seqno = 0.;
  }

(* [Hashtbl.find] rather than [find_opt]: a hit allocates nothing. *)
let bump tbl key =
  match Hashtbl.find tbl key with
  | r -> incr r
  | exception Not_found -> Hashtbl.replace tbl key (ref 1)

let data_originated t _msg = t.originated <- t.originated + 1

(* Pack a (flow_id, seq) uid into one immediate so the seen-set hashes
   an int instead of a boxed pair.  Flow ids and per-flow sequence
   numbers are both far below 2^31 in any feasible run. *)
let packed_uid msg =
  let flow, seq = Data_msg.uid msg in
  (flow lsl 31) lxor seq

let data_delivered t ~now msg =
  let uid = packed_uid msg in
  if Hashtbl.mem t.seen uid then t.duplicates <- t.duplicates + 1
  else begin
    Hashtbl.replace t.seen uid ();
    t.delivered <- t.delivered + 1;
    let latency_ns = (Sim.Time.diff now msg.Data_msg.origin_time :> int) in
    let latency_ms = Sim.Time.to_ms (Sim.Time.diff now msg.Data_msg.origin_time) in
    let hops = float_of_int msg.Data_msg.hops in
    Stats.Welford.add t.latency latency_ms;
    Stats.Hdr.add t.latency_h latency_ns;
    Stats.Welford.add t.hop_count hops
  end

let data_dropped t _msg ~reason = bump t.drops reason

let transmitted t (f : Net.Frame.t) =
  let bytes = Net.Frame.encoded_length f in
  match f.body with
  | Net.Frame.Ack ->
      t.ack_tx <- t.ack_tx + 1;
      t.ack_bytes <- t.ack_bytes + bytes
  | Net.Frame.Payload p ->
      (* Runs per transmission: [is_data]/[class_name] allocate nothing. *)
      if Payload.is_data p then begin
        t.data_tx <- t.data_tx + 1;
        t.data_bytes <- t.data_bytes + bytes
      end
      else begin
        let kind = Payload.class_name p in
        let c =
          match Hashtbl.find t.control kind with
          | c -> c
          | exception Not_found ->
              let c = { tx = 0; bytes = 0 } in
              Hashtbl.replace t.control kind c;
              c
        in
        c.tx <- c.tx + 1;
        c.bytes <- c.bytes + bytes
      end

let protocol_event t name = bump t.events name
let loop_violation t = t.loop_violations <- t.loop_violations + 1
let set_mean_dest_seqno t x = t.mean_dest_seqno <- x

let originated t = t.originated
let delivered t = t.delivered
let duplicates t = t.duplicates

let delivery_ratio t =
  if t.originated = 0 then 0.
  else float_of_int t.delivered /. float_of_int t.originated

let mean_latency_ms t = Stats.Welford.mean t.latency
let latency_quantile_ms t q =
  float_of_int (Stats.Hdr.quantile t.latency_h q) /. 1e6

let median_latency_ms t = latency_quantile_ms t 0.5
let p95_latency_ms t = latency_quantile_ms t 0.95
let p99_latency_ms t = latency_quantile_ms t 0.99
let latency_histogram t = t.latency_h
let mean_hops t = Stats.Welford.mean t.hop_count

let control_by_kind t =
  Hashtbl.fold (fun k c acc -> (k, c.tx) :: acc) t.control []
  |> List.sort compare

let control_transmissions t =
  Hashtbl.fold (fun _ c acc -> acc + c.tx) t.control 0

let data_transmissions t = t.data_tx
let ack_transmissions t = t.ack_tx

let control_bytes_by_kind t =
  Hashtbl.fold (fun k c acc -> (k, c.bytes) :: acc) t.control []
  |> List.sort compare

let control_bytes t =
  Hashtbl.fold (fun _ c acc -> acc + c.bytes) t.control 0

let data_bytes t = t.data_bytes
let ack_bytes t = t.ack_bytes

let per_delivered t count =
  if t.delivered = 0 then 0. else float_of_int count /. float_of_int t.delivered

let network_load t = per_delivered t (control_transmissions t)
let byte_load t = per_delivered t (control_bytes t)

let rreq_load t =
  per_delivered t
    (match Hashtbl.find_opt t.control "RREQ" with Some c -> c.tx | None -> 0)

let event_count t name =
  match Hashtbl.find_opt t.events name with Some r -> !r | None -> 0

let per_rreq t count =
  let rreqs = event_count t "rreq_init" in
  if rreqs = 0 then 0. else float_of_int count /. float_of_int rreqs

let rrep_init_per_rreq t = per_rreq t (event_count t "rrep_init")
let rrep_recv_per_rreq t = per_rreq t (event_count t "rrep_usable_recv")

let drops_by_reason t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.drops [] |> List.sort compare

let loop_violations t = t.loop_violations
let mean_dest_seqno t = t.mean_dest_seqno

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

let summary t =
  {
    s_delivery_ratio = delivery_ratio t;
    s_latency_ms = mean_latency_ms t;
    s_network_load = network_load t;
    s_byte_load = byte_load t;
    s_rreq_load = rreq_load t;
    s_rrep_init = rrep_init_per_rreq t;
    s_rrep_recv = rrep_recv_per_rreq t;
    s_mean_dest_seqno = mean_dest_seqno t;
  }
