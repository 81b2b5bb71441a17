type t = {
  bus : Obs.Bus.t;  (* resolves the interned ids the counts are keyed by *)
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
  mutable tx : int array;  (* class id [i]: count at [2i], bytes at [2i+1] *)
  mutable events : int array;  (* by protocol-event name id *)
  mutable drops : int array;  (* by drop-reason id *)
  mutable loop_violations : int;
  mutable mean_dest_seqno : float;
}

(* [a.(i) + x], growing [a] to fit [i]; negative ids (an unlabelled
   replayed event) are not counted. *)
let add a i x =
  if i < 0 then a
  else
    let a =
      if i < Array.length a then a else Array.append a (Array.make (i + 1) 0)
    in
    a.(i) <- a.(i) + x;
    a

(* Fold one event into the counters.  A (flow, seq) uid packs into one
   immediate so the seen-set hashes an int, not a boxed pair: flow ids
   and per-flow sequence numbers are both far below 2^31 in any
   feasible run. *)
let count t (ev : Obs.Event.t) =
  match ev.kind with
  | Tx ->
      t.tx <- add t.tx (2 * ev.a) 1;
      t.tx <- add t.tx ((2 * ev.a) + 1) ev.c
  | Deliver ->
      let uid = (ev.a lsl 31) lxor ev.b in
      if Hashtbl.mem t.seen uid then t.duplicates <- t.duplicates + 1
      else begin
        Hashtbl.replace t.seen uid ();
        t.delivered <- t.delivered + 1;
        Stats.Welford.add t.latency
          (Sim.Time.to_ms (Sim.Time.unsafe_of_ns ev.e));
        Stats.Hdr.add t.latency_h ev.e;
        Stats.Welford.add t.hop_count (float_of_int ev.d)
      end
  | Data_drop -> t.drops <- add t.drops ev.a 1
  | Proto -> t.events <- add t.events ev.a 1
  | Span ->
      if ev.a = Obs.Span.Stage.originate then t.originated <- t.originated + 1
  | Rx | Collision | Ifq_drop | Link_failure | Table_write | Violation -> ()

let attach bus =
  let t =
    {
      bus;
      originated = 0;
      delivered = 0;
      duplicates = 0;
      latency = Stats.Welford.create ();
      latency_h = Stats.Hdr.create ();
      hop_count = Stats.Welford.create ();
      seen = Hashtbl.create 4096;
      tx = [||];
      events = [||];
      drops = [||];
      loop_violations = 0;
      mean_dest_seqno = 0.;
    }
  in
  Obs.Bus.subscribe bus [ Tx; Deliver; Data_drop; Proto; Span ] (count t);
  t

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

(* Counts keyed by interned id, resolved to names: each id's
   [(name, v)] when [v] counts anything, sorted by name. *)
let named t values counted =
  List.mapi (fun id v -> (Obs.Bus.name t.bus id, v)) values
  |> List.filter (fun (_, v) -> counted v)
  |> List.sort compare

let by_name t a = named t (Array.to_list a) (fun n -> n > 0)

let tx_classes t =
  named t
    (List.init (Array.length t.tx / 2) (fun i ->
         (t.tx.(2 * i), t.tx.((2 * i) + 1))))
    (fun (n, _) -> n > 0)

let class_tx t cls =
  match List.assoc_opt cls (tx_classes t) with Some c -> c | None -> (0, 0)

let control t =
  List.filter (fun (cls, _) -> cls <> "DATA" && cls <> "ACK") (tx_classes t)

let control_by_kind t = List.map (fun (k, (n, _)) -> (k, n)) (control t)
let control_bytes_by_kind t = List.map (fun (k, (_, b)) -> (k, b)) (control t)
let sum l = List.fold_left (fun acc (_, n) -> acc + n) 0 l
let control_transmissions t = sum (control_by_kind t)
let control_bytes t = sum (control_bytes_by_kind t)
let data_transmissions t = fst (class_tx t "DATA")
let data_bytes t = snd (class_tx t "DATA")
let ack_transmissions t = fst (class_tx t "ACK")
let ack_bytes t = snd (class_tx t "ACK")

let per_delivered t count =
  if t.delivered = 0 then 0. else float_of_int count /. float_of_int t.delivered

let network_load t = per_delivered t (control_transmissions t)
let byte_load t = per_delivered t (control_bytes t)
let rreq_load t = per_delivered t (fst (class_tx t "RREQ"))

let event_count t name =
  match List.assoc_opt name (by_name t t.events) with Some n -> n | None -> 0

let per_rreq t count =
  let rreqs = event_count t "rreq_init" in
  if rreqs = 0 then 0. else float_of_int count /. float_of_int rreqs

let rrep_init_per_rreq t = per_rreq t (event_count t "rrep_init")
let rrep_recv_per_rreq t = per_rreq t (event_count t "rrep_usable_recv")
let drops_by_reason t = by_name t t.drops
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
