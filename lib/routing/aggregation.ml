open Sim
open Packets
module RA = Agent

(* Batching window for multi-destination floods. *)
let window = Time.ms 20.

(* How recently another origin's flood for the same destination must have
   left this node for a new one to be absorbed. *)
let suppress_window = Time.ms 50.

(* Members per aggregate; full batches flush early. *)
let max_batch = 8

(* How long an absorbed computation may wait for a reply. *)
let fanout_ttl = Time.sec 2.

(* A computation whose relay flood this node absorbed; it is owed a copy
   of the next RREP for the destination, sent back through [w_hop]. *)
type waiter = {
  w_origin : Node_id.t;
  w_rreq_id : int;
  w_hop : Node_id.t;
  w_expires : Time.t;
}

type recent = {
  mutable r_last : Time.t;  (** when a flood for this dst last left here *)
  mutable r_origin : Node_id.t;  (** origin of that flood *)
  mutable r_waiters : waiter list;
}

(* The layer is protocol-agnostic over the two on-demand families that
   flood RREQs: one node runs one family, but keeping a batch for each
   lets the wrapper stay a single implementation. *)
type t = {
  ctx : RA.ctx;
  mutable batch_ldr : Ldr_msg.rreq list;  (* newest first *)
  mutable batch_aodv : Aodv_msg.rreq list;  (* newest first *)
  mutable lone_ldr : Payload.t;  (* the oldest member, as handed over *)
  mutable lone_aodv : Payload.t;
  mutable batched : int;  (* members of both batches *)
  mutable flush_armed : bool;
  recent : recent Node_id.Table.t;
  rev : Node_id.t Rreq_cache.t;
      (* (origin, rreq_id) -> previous hop of the received RREQ copy *)
}

let now t = Engine.now t.ctx.engine
let prune_waiters at ws = List.filter (fun w -> Time.(w.w_expires > at)) ws

(* ---- Multi-destination piggybacking ----------------------------------- *)

let ldr_wrap qs = Payload.Ldr (Ldr_msg.Rreq_agg qs)

(* What a [lone_*] field holds while its batch is empty: a static value,
   so a flushed member is not kept alive (and promoted) by the field. *)
let no_lone = Payload.Ldr (Ldr_msg.Rreq_agg [])
let ldr_dst (q : Ldr_msg.rreq) = q.dst
let ldr_id (q : Ldr_msg.rreq) = q.rreq_id
let aodv_wrap qs = Payload.Aodv (Aodv_msg.Rreq_agg qs)
let aodv_dst (q : Aodv_msg.rreq) = q.dst
let aodv_id (q : Aodv_msg.rreq) = q.rreq_id

(* One discovery span per member of a sent batch, tagged with the batch
   size, so the analyzer can attribute aggregation membership per sought
   destination.  Every run's metrics take spans, so this loop allocates
   nothing: no closure, no (dst, id) pair. *)
let rec agg_spans t ~dst ~id ~batch = function
  | [] -> ()
  | q :: rest ->
      Obs.Bus.span t.ctx.obs ~time:(now t) ~node:(Node_id.to_int t.ctx.id)
        ~stage:Obs.Span.Stage.agg ~flow:(-1) ~seq:(-1)
        ~d:(Node_id.to_int (dst q)) ~e:batch ~f:(id q);
      agg_spans t ~dst ~id ~batch rest

(* One family's batch, newest first, leaves in one transmission: a lone
   member as the very payload the agent handed over. *)
let send_group t ~lone ~wrap ~dst ~id = function
  | [] -> ()
  | [ _ ] -> t.ctx.send ~dst:Net.Frame.broadcast lone
  | rev_qs ->
      let qs = List.rev rev_qs in
      (* n requests leave in 1 transmission: n-1 floods saved. *)
      let batch = List.length qs in
      for _ = 2 to batch do
        t.ctx.event "rreq_aggregated"
      done;
      if Obs.Bus.on t.ctx.obs Span then agg_spans t ~dst ~id ~batch qs;
      t.ctx.send ~dst:Net.Frame.broadcast (wrap qs)

let flush t =
  let ldr = t.batch_ldr and aodv = t.batch_aodv in
  t.batch_ldr <- [];
  t.batch_aodv <- [];
  t.batched <- 0;
  let lone_ldr = t.lone_ldr and lone_aodv = t.lone_aodv in
  t.lone_ldr <- no_lone;
  t.lone_aodv <- no_lone;
  send_group t ~lone:lone_ldr ~wrap:ldr_wrap ~dst:ldr_dst ~id:ldr_id ldr;
  send_group t ~lone:lone_aodv ~wrap:aodv_wrap ~dst:aodv_dst ~id:aodv_id
    aodv

let flush_timer t =
  t.flush_armed <- false;
  flush t

(* A member was just pushed onto a batch. *)
let enqueued t =
  t.batched <- t.batched + 1;
  if t.batched >= max_batch then flush t
  else if not t.flush_armed then begin
    t.flush_armed <- true;
    ignore (Engine.after_fn t.ctx.engine window flush_timer t)
  end

(* ---- Same-destination suppression ------------------------------------- *)

(* A flood for [dst] left this node within the suppression window on
   behalf of a different origin: this one need not go out too.  A
   suppressed relay registers as a waiter so the returning RREP is
   fanned out to it; a suppressed origination relies on the reply
   passing through here (else the origin's ring timer re-attempts). *)
let try_suppress t ~dst ~origin ~rreq_id at =
  match Node_id.Table.find t.recent dst with
  | exception Not_found -> false
  | r ->
      if
        Time.(Time.add r.r_last suppress_window <= at)
        || Node_id.equal r.r_origin origin
      then false
      else if Node_id.equal origin t.ctx.id then true
      else begin
        match Rreq_cache.find t.rev ~origin ~rreq_id with
        | None -> false (* reverse hop unknown: forward rather than strand *)
        | Some hop ->
            r.r_waiters <-
              {
                w_origin = origin;
                w_rreq_id = rreq_id;
                w_hop = hop;
                w_expires = Time.add at fanout_ttl;
              }
              :: prune_waiters at r.r_waiters;
            true
      end

(* Whether an outgoing flood for [dst] should be batched (true) or was
   absorbed. *)
let admit t ~dst ~origin ~rreq_id =
  let at = now t in
  if try_suppress t ~dst ~origin ~rreq_id at then begin
    t.ctx.event ~dst "rreq_suppressed";
    false
  end
  else begin
    (match Node_id.Table.find t.recent dst with
    | r ->
        r.r_last <- at;
        r.r_origin <- origin
    | exception Not_found ->
        Node_id.Table.replace t.recent dst
          { r_last = at; r_origin = origin; r_waiters = [] });
    true
  end

(* ---- RREP fan-out ------------------------------------------------------ *)

(* [consumed] marks a reply that terminated here (we are its origin): the
   observed fields are as advertised by the previous hop, so our copy
   re-advertises one hop further.  A reply the inner agent relayed
   already carries this node's own advertisement and is copied
   verbatim. *)
let fanout_ldr t (p : Ldr_msg.rrep) ~consumed =
  match Node_id.Table.find_opt t.recent p.dst with
  | None -> ()
  | Some r ->
      let at = now t in
      let ws =
        List.filter
          (fun w ->
            not (Node_id.equal w.w_origin p.origin && w.w_rreq_id = p.rreq_id))
          (prune_waiters at r.r_waiters)
      in
      r.r_waiters <- [];
      let dist = if consumed then p.dist + 1 else p.dist in
      List.iter
        (fun w ->
          t.ctx.event ~dst:p.dst "rrep_fanout";
          t.ctx.send ~dst:(Net.Frame.unicast w.w_hop)
            (Payload.Ldr
               (Ldr_msg.Rrep
                  { p with origin = w.w_origin; rreq_id = w.w_rreq_id; dist })))
        ws

let fanout_aodv t (p : Aodv_msg.rrep) ~consumed =
  match Node_id.Table.find_opt t.recent p.dst with
  | None -> ()
  | Some r ->
      let at = now t in
      let ws =
        List.filter
          (fun w -> not (Node_id.equal w.w_origin p.origin))
          (prune_waiters at r.r_waiters)
      in
      r.r_waiters <- [];
      let hop_count = if consumed then p.hop_count + 1 else p.hop_count in
      List.iter
        (fun w ->
          t.ctx.event ~dst:p.dst "rrep_fanout";
          t.ctx.send ~dst:(Net.Frame.unicast w.w_hop)
            (Payload.Aodv (Aodv_msg.Rrep { p with origin = w.w_origin; hop_count })))
        ws

(* ---- Interposition ----------------------------------------------------- *)

let intercept_send t ~dst payload =
  match payload with
  | Payload.Ldr (Ldr_msg.Rreq q)
    when Net.Frame.is_broadcast dst && not q.unicast_probe ->
      if admit t ~dst:q.dst ~origin:q.origin ~rreq_id:q.rreq_id then begin
        if t.batch_ldr = [] then t.lone_ldr <- payload;
        t.batch_ldr <- q :: t.batch_ldr;
        enqueued t
      end
  | Payload.Aodv (Aodv_msg.Rreq q) when Net.Frame.is_broadcast dst ->
      if admit t ~dst:q.dst ~origin:q.origin ~rreq_id:q.rreq_id then begin
        if t.batch_aodv = [] then t.lone_aodv <- payload;
        t.batch_aodv <- q :: t.batch_aodv;
        enqueued t
      end
  | Payload.Ldr (Ldr_msg.Rrep p) ->
      t.ctx.send ~dst payload;
      fanout_ldr t p ~consumed:false
  | Payload.Aodv (Aodv_msg.Rrep p) ->
      t.ctx.send ~dst payload;
      fanout_aodv t p ~consumed:false
  | _ -> t.ctx.send ~dst payload

let note_rreq t ~origin ~rreq_id ~from =
  Rreq_cache.add t.rev ~origin ~rreq_id from

let rec note_ldr t ~from = function
  | [] -> ()
  | (q : Ldr_msg.rreq) :: rest ->
      note_rreq t ~origin:q.origin ~rreq_id:q.rreq_id ~from;
      note_ldr t ~from rest

let rec note_aodv t ~from = function
  | [] -> ()
  | (q : Aodv_msg.rreq) :: rest ->
      note_rreq t ~origin:q.origin ~rreq_id:q.rreq_id ~from;
      note_aodv t ~from rest

let recv t (inner : RA.t) payload ~from =
  (match payload with
  | Payload.Ldr (Ldr_msg.Rreq q) ->
      note_rreq t ~origin:q.origin ~rreq_id:q.rreq_id ~from
  | Payload.Ldr (Ldr_msg.Rreq_agg qs) -> note_ldr t ~from qs
  | Payload.Aodv (Aodv_msg.Rreq q) ->
      note_rreq t ~origin:q.origin ~rreq_id:q.rreq_id ~from
  | Payload.Aodv (Aodv_msg.Rreq_agg qs) -> note_aodv t ~from qs
  | _ -> ());
  inner.RA.recv payload ~from;
  (* A reply that terminates here is not re-sent by the inner agent, so
     waiters must be served from the receive side. *)
  match payload with
  | Payload.Ldr (Ldr_msg.Rrep p) when Node_id.equal p.origin t.ctx.id ->
      fanout_ldr t p ~consumed:true
  | Payload.Aodv (Aodv_msg.Rrep p) when Node_id.equal p.origin t.ctx.id ->
      fanout_aodv t p ~consumed:true
  | _ -> ()

let wrap (inner_factory : RA.factory) : RA.factory =
 fun ctx ->
  let t =
    {
      ctx;
      batch_ldr = [];
      batch_aodv = [];
      lone_ldr = no_lone;
      lone_aodv = no_lone;
      batched = 0;
      flush_armed = false;
      recent = Node_id.Table.create 16;
      rev = Rreq_cache.create ~engine:ctx.engine ~ttl:fanout_ttl;
    }
  in
  let inner = inner_factory { ctx with send = intercept_send t } in
  {
    inner with
    RA.recv = (fun payload ~from -> recv t inner payload ~from);
    (* Churn: drop the wrapper's own volatile state (batched requests,
       reverse paths, suppression memory) before the inner teardown.  An
       armed flush finds an empty batch and does nothing. *)
    reset =
      (fun ~crash ->
        t.batch_ldr <- [];
        t.batch_aodv <- [];
        t.batched <- 0;
        Node_id.Table.reset t.recent;
        Rreq_cache.clear t.rev;
        inner.RA.reset ~crash);
  }
