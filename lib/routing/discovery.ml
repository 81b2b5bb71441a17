open Sim
open Packets

let ttl_start = 1
let ttl_increment = 2
let ttl_threshold = 7
let net_diameter = 35
let node_traversal = Time.ms 40.
let max_retries = 2

type ring = { timeout_buffer : int }

let default = { timeout_buffer = 2 }

let next_ttl ~prev =
  match prev with
  | None -> Some ttl_start
  | Some p ->
      if p >= net_diameter then None
      else if p >= ttl_threshold then Some net_diameter
      else
        let next = p + ttl_increment in
        if next > ttl_threshold then Some net_diameter else Some next
(* RFC 3561 §6.4: the ring grows by TTL_INCREMENT while it stays within
   TTL_THRESHOLD; the attempt after that goes straight to NET_DIAMETER.
   Clamping an overshooting ring *at* the threshold would insert an
   extra flood the schedule doesn't call for (visible whenever the
   first TTL is unaligned, e.g. LDR's optimal-TTL starts). *)

let attempt_timeout t ~ttl =
  Time.mul node_traversal (2 * (ttl + t.timeout_buffer))

type attempt = { ttl : int; timeout : Time.t }

let ring_attempts ?first t =
  let attempt ttl = { ttl; timeout = attempt_timeout t ~ttl } in
  let rec ring ttl () =
    Seq.Cons
      ( attempt ttl,
        match next_ttl ~prev:(Some ttl) with
        | Some next -> ring next
        | None -> Seq.init max_retries (fun _ -> attempt net_diameter) )
  in
  ring (Option.value first ~default:ttl_start)

(* ---- The per-node machine -------------------------------------------- *)

let buffer_max_age = Time.sec 30.

type pending = {
  mutable rest : attempt Seq.t;  (* attempts not yet made *)
  mutable timer : Engine.handle option;
}

type 'r t = {
  ctx : Agent.ctx;
  buffer : Packet_buffer.t;
  pending : pending Node_id.Table.t;
  mutable next_rreq_id : int;
  schedule : Node_id.t -> attempt Seq.t;
  route : Node_id.t -> 'r option;
  forward : 'r -> Data_msg.t -> unit;
  send_rreq : dst:Node_id.t -> ttl:int -> rreq_id:int -> unit;
}

let create (ctx : Agent.ctx) ~capacity ~max_age ~schedule ~route ~forward
    ~send_rreq =
  {
    ctx;
    buffer =
      Packet_buffer.create ~obs:ctx.obs ~owner:(Node_id.to_int ctx.id)
        ~engine:ctx.engine ~capacity ~max_age ~on_drop:ctx.drop_data ();
    pending = Node_id.Table.create 8;
    next_rreq_id = 0;
    schedule;
    route;
    forward;
    send_rreq;
  }

let pending d dst = Node_id.Table.mem d.pending dst
let destinations d =
  Node_id.Table.fold (fun dst _ acc -> dst :: acc) d.pending []

(* Discovery-side span: one record per ring/probe attempt, keyed by the
   sought destination and rreq id rather than a packet's (flow, seq). *)
let fresh_rreq_id d ~dst ~ttl =
  d.next_rreq_id <- d.next_rreq_id + 1;
  let ctx = d.ctx in
  ctx.event ~dst "rreq_init";
  if Obs.Bus.on ctx.obs then
    Obs.Bus.span ctx.obs ~time:(Engine.now ctx.engine)
      ~node:(Node_id.to_int ctx.id) ~stage:Obs.Span.Stage.ring ~flow:(-1)
      ~seq:(-1) ~d:(Node_id.to_int dst) ~e:ttl ~f:d.next_rreq_id;
  d.next_rreq_id

let settle d dst =
  (match Node_id.Table.find_opt d.pending dst with
  | Some { timer = Some h; _ } -> Engine.cancel d.ctx.engine h
  | Some { timer = None; _ } | None -> ());
  Node_id.Table.remove d.pending dst;
  match d.route dst with
  | None -> ()
  | Some r -> List.iter (d.forward r) (Packet_buffer.take d.buffer dst)

(* Make the next attempt of the schedule, or give up (Procedure 1: the
   final attempt failed; report and drop). *)
let rec advance d dst p =
  match p.rest () with
  | Seq.Cons ({ ttl; timeout }, rest) ->
      p.rest <- rest;
      let rreq_id = fresh_rreq_id d ~dst ~ttl in
      d.send_rreq ~dst ~ttl ~rreq_id;
      p.timer <-
        Some (Engine.after d.ctx.engine timeout (fun () -> expired d dst p))
  | Seq.Nil ->
      Node_id.Table.remove d.pending dst;
      Packet_buffer.drop_all d.buffer dst ~reason:"discovery-failed"

and expired d dst p =
  p.timer <- None;
  if d.route dst <> None then settle d dst else advance d dst p

let hold d msg =
  Packet_buffer.push d.buffer msg;
  let dst = msg.Data_msg.dst in
  if not (pending d dst) then begin
    let p = { rest = d.schedule dst; timer = None } in
    Node_id.Table.replace d.pending dst p;
    advance d dst p
  end

let reset d ~crash =
  Node_id.Table.iter
    (fun _ p -> Option.iter (Engine.cancel d.ctx.engine) p.timer)
    d.pending;
  Node_id.Table.reset d.pending;
  Packet_buffer.clear d.buffer ~reason:"node-down";
  if crash then d.next_rreq_id <- 0
