open Sim
open Packets

type callbacks = {
  receive : Payload.t -> from:Node_id.t -> unit;
  promiscuous : Payload.t -> from:Node_id.t -> dst:Frame.dst -> unit;
  link_failure : Payload.t -> next_hop:Node_id.t -> unit;
}

type pending = { payload : Payload.t; dst : Frame.dst }

type phase =
  | Idle
  | Access  (** counting down DIFS + backoff *)
  | Sending
  | Await_ack

(* Timer fields hold [Engine.none] when unarmed, and every timer
   callback is a pre-bound top-level function over [t] scheduled with
   [Engine.after_fn] — the hot path (one access timer and one ACK
   timer per data frame) allocates neither an option nor a closure. *)
type t = {
  engine : Engine.t;
  channel : Channel.t;
  params : Params.t;
  rng : Rng.t;
  my_id : Node_id.t;
  radio : Channel.radio;
  cb : callbacks;
  queue : pending Ifq.t;
  mutable phase : phase;
  mutable current : pending option;
  mutable attempts : int;
  mutable cw : int;
  mutable slots : int;  (** backoff slots still to count down *)
  mutable access_timer : Engine.handle;
  mutable access_started : Time.t;
  mutable ack_timer : Engine.handle;
  mutable ack_to : Node_id.t;
      (** destination of the pending SIFS-delayed ACK; at most one can
          be outstanding (SIFS is far shorter than any frame airtime,
          and the capture logic delivers one frame per radio per
          instant) *)
  mutable ack_frame : Frame.t;
      (** cached ACK frame for [ack_to]; rebuilt only when the
          destination changes, so the steady ACK exchange between two
          talking nodes allocates nothing *)
  (* Per-node scalar counters live at slot [six] of the channel's
     shared [Nodes] planes, so updating one is a plain array write. *)
  sent_a : int array;
  fail_a : int array;
  qlen_a : int array;
  qdrops_a : int array;
  six : int;
  mutable down : bool;  (** churn: node is powered off *)
  obs : Obs.Bus.t;  (* shared with the channel *)
}

let emit_rx t payload ~from ~dst =
  Obs.Bus.rx t.obs
    ~time:(Engine.now t.engine)
    ~node:(Node_id.to_int t.my_id)
    ~cls:(Obs.Bus.intern t.obs (Payload.class_name payload))
    ~from:(Node_id.to_int from)
    ~dst:(match dst with Frame.Broadcast -> -1 | Frame.Unicast d -> Node_id.to_int d)

let frame_dst_int = function
  | Frame.Broadcast -> -1
  | Frame.Unicast d -> Node_id.to_int d

(* One span record per MAC lifecycle stage of a data frame, keyed by
   the packet's out-of-band (flow, seq) id.  Control frames are not
   spanned.  Call sites guard with [Obs.Bus.on] first, so the disabled
   path pays nothing beyond its existing branch. *)
let emit_span t ~stage payload ~d ~e =
  let flow = Payload.data_flow payload in
  if flow >= 0 then
    Obs.Bus.span t.obs
      ~time:(Engine.now t.engine)
      ~node:(Node_id.to_int t.my_id)
      ~stage ~flow
      ~seq:(Payload.data_seq payload)
      ~d ~e ~f:(-1)

let id t = t.my_id
let queue_length t = Ifq.length t.queue
let queue_drops t = Ifq.drops t.queue
let unicast_failures t = t.fail_a.(t.six)
let frames_sent t = t.sent_a.(t.six)
let radio t = t.radio
let is_down t = t.down

let payload_frame t pending =
  { Frame.src = t.my_id; dst = pending.dst; body = Frame.Payload pending.payload }

let frame_duration t frame =
  Params.frame_airtime t.params ~bytes:(Frame.encoded_length frame)

let rec dequeue_next t =
  assert (t.current = None);
  match Ifq.pop t.queue with
  | None -> t.phase <- Idle
  | Some p ->
      t.qlen_a.(t.six) <- Ifq.length t.queue;
      t.current <- Some p;
      t.attempts <- 1;
      t.cw <- t.params.cw_min;
      if Obs.Bus.on t.obs then
        emit_span t ~stage:Obs.Span.Stage.mac_deq p.payload ~d:(-1) ~e:(-1);
      begin_access t

and begin_access t =
  t.phase <- Access;
  t.slots <- Rng.int t.rng (t.cw + 1);
  maybe_arm t

(* Arm the DIFS+backoff countdown if the medium is idle. *)
and maybe_arm t =
  if t.phase = Access
     && Engine.is_none t.access_timer
     && not (Channel.busy t.channel t.radio)
  then begin
    let wait = Time.add t.params.difs (Time.mul t.params.slot t.slots) in
    t.access_started <- Engine.now t.engine;
    t.access_timer <- Engine.after_fn t.engine wait access_expired t
  end

and access_expired t =
  t.access_timer <- Engine.none;
  if t.down then ()
  else if Channel.busy t.channel t.radio then ()
    (* Lost the race with a same-instant transmission; the
       medium_changed(false) callback will re-arm us. *)
  else do_transmit t

and do_transmit t =
  match t.current with
  | None -> assert false
  | Some p ->
      t.phase <- Sending;
      t.sent_a.(t.six) <- t.sent_a.(t.six) + 1;
      if Obs.Bus.on t.obs then
        emit_span t ~stage:Obs.Span.Stage.mac_try p.payload ~d:(-1)
          ~e:t.attempts;
      let frame = payload_frame t p in
      let duration = frame_duration t frame in
      Channel.transmit t.channel t.radio frame ~duration;
      ignore (Engine.after_fn t.engine duration tx_done t)

(* [t.current] is pinned while Sending/Await_ack — only [finish],
   [retry]'s failure arm and [set_down] clear it — so reading it when
   the timer fires sees the frame that was in the air; [None] here
   means the node went down mid-transmission (the handle is discarded,
   so down-gating happens at fire time). *)
and tx_done t =
  match t.current with
  | None -> ()
  | Some _ when t.down -> ()
  | Some p -> (
      match p.dst with
      | Frame.Broadcast -> finish t
      | Frame.Unicast _ ->
          t.phase <- Await_ack;
          t.ack_timer <-
            Engine.after_fn t.engine (Params.ack_timeout t.params)
              ack_timeout_expired t)

and ack_timeout_expired t =
  t.ack_timer <- Engine.none;
  if t.down then ()
  else
    match t.current with
    | Some ({ dst = Frame.Unicast next_hop; _ } as p) -> retry t p next_hop
    | Some { dst = Frame.Broadcast; _ } | None -> assert false

and finish t =
  (* Read the frame before clearing it — the span needs its id. *)
  (match t.current with
  | Some p when Obs.Bus.on t.obs ->
      emit_span t ~stage:Obs.Span.Stage.mac_end p.payload ~d:(-1) ~e:t.attempts
  | Some _ | None -> ());
  t.current <- None;
  t.phase <- Idle;
  dequeue_next t

and retry t p next_hop =
  if t.attempts >= t.params.retry_limit then begin
    t.fail_a.(t.six) <- t.fail_a.(t.six) + 1;
    if Obs.Bus.on t.obs then
      emit_span t ~stage:Obs.Span.Stage.mac_fail p.payload
        ~d:(Node_id.to_int next_hop) ~e:t.attempts;
    t.current <- None;
    t.phase <- Idle;
    t.cb.link_failure p.payload ~next_hop;
    (* The callback may have enqueued follow-up traffic (e.g. a RERR);
       only restart the service loop if it has not already done so by
       observing Idle. *)
    if t.phase = Idle && t.current = None then dequeue_next t
  end
  else begin
    t.attempts <- t.attempts + 1;
    t.cw <- Stdlib.min (((t.cw + 1) * 2) - 1) t.params.cw_max;
    begin_access t
  end

let ack_received t from =
  match (t.phase, t.current) with
  | Await_ack, Some { dst = Frame.Unicast nh; _ } when Node_id.equal nh from
    ->
      if not (Engine.is_none t.ack_timer) then begin
        Engine.cancel t.engine t.ack_timer;
        t.ack_timer <- Engine.none
      end;
      finish t
  | _ -> ()

let send_ack_fire t =
  if (not t.down) && not (Channel.transmitting t.radio) then
    Channel.transmit t.channel t.radio t.ack_frame
      ~duration:(Params.ack_airtime t.params)

let send_ack t ~to_ =
  (* ACKs answer after SIFS regardless of carrier sense (802.11), but a
     radio cannot transmit two frames at once. *)
  if not (Node_id.equal to_ t.ack_to) then begin
    t.ack_to <- to_;
    t.ack_frame <- { Frame.src = t.my_id; dst = Frame.Unicast to_; body = Frame.Ack }
  end;
  ignore (Engine.after_fn t.engine t.params.sifs send_ack_fire t)

let on_frame t (f : Frame.t) =
  if t.down then ()
  else
  match f.body with
  | Frame.Ack -> if Frame.addressed_to f t.my_id then ack_received t f.src
  | Frame.Payload payload -> (
      match f.dst with
      | Frame.Broadcast ->
          if Obs.Bus.on t.obs then emit_rx t payload ~from:f.src ~dst:f.dst;
          t.cb.receive payload ~from:f.src
      | Frame.Unicast d when Node_id.equal d t.my_id ->
          if Obs.Bus.on t.obs then emit_rx t payload ~from:f.src ~dst:f.dst;
          send_ack t ~to_:f.src;
          t.cb.receive payload ~from:f.src
      | Frame.Unicast _ -> t.cb.promiscuous payload ~from:f.src ~dst:f.dst)

let on_medium t busy =
  if t.down then ()
  else if busy then begin
    if t.phase = Access && not (Engine.is_none t.access_timer) then begin
      Engine.cancel t.engine t.access_timer;
      t.access_timer <- Engine.none;
      (* Slots consumed while the medium was idle. *)
      let elapsed = Time.diff (Engine.now t.engine) t.access_started in
      let after_difs =
        if Time.(elapsed > t.params.difs) then Time.diff elapsed t.params.difs
        else Time.zero
      in
      (* Time.t is an immediate int of nanoseconds; plain int division
         avoids two Int64 boxes per medium-busy transition. *)
      let consumed = (after_difs :> int) / (t.params.slot :> int) in
      t.slots <- Stdlib.max 0 (t.slots - consumed)
    end
  end
  else maybe_arm t

let create ~engine ~channel ~rng ~id ~slot callbacks =
  let nodes = Channel.nodes channel in
  let radio = Channel.attach channel ~slot ~id in
  let t =
    {
      engine;
      channel;
      params = Channel.params channel;
      rng;
      my_id = id;
      radio;
      cb = callbacks;
      queue = Ifq.create ~capacity:(Channel.params channel).ifq_capacity;
      phase = Idle;
      current = None;
      attempts = 0;
      cw = (Channel.params channel).cw_min;
      slots = 0;
      access_timer = Engine.none;
      access_started = Time.zero;
      ack_timer = Engine.none;
      ack_to = id;
      ack_frame = { Frame.src = id; dst = Frame.Unicast id; body = Frame.Ack };
      sent_a = Nodes.sent_plane nodes;
      fail_a = Nodes.failures_plane nodes;
      qlen_a = Nodes.qlen_plane nodes;
      qdrops_a = Nodes.qdrops_plane nodes;
      six = slot;
      down = false;
      obs = Channel.obs channel;
    }
  in
  Channel.set_receiver radio (on_frame t);
  Channel.set_medium_listener radio (on_medium t);
  t

let send t ~dst payload =
  if t.down then ()
  else begin
    let accepted = Ifq.push t.queue { payload; dst } in
    if accepted then t.qlen_a.(t.six) <- Ifq.length t.queue
    else t.qdrops_a.(t.six) <- t.qdrops_a.(t.six) + 1;
    if Obs.Bus.on t.obs then
      if accepted then
        emit_span t ~stage:Obs.Span.Stage.mac_enq payload ~d:(frame_dst_int dst)
          ~e:(-1)
      else begin
        Obs.Bus.ifq_drop t.obs
          ~time:(Engine.now t.engine)
          ~node:(Node_id.to_int t.my_id)
          ~cls:(Obs.Bus.intern t.obs (Payload.class_name payload))
          ~dst:(frame_dst_int dst);
        emit_span t ~stage:Obs.Span.Stage.mac_drop payload
          ~d:(frame_dst_int dst) ~e:(-1)
      end;
    if accepted && t.phase = Idle && t.current = None then dequeue_next t
  end

(* Power the node down (flush the queue, kill the armed timers, release
   any half-sent frame) or back up (clean CSMA state).  The radio's
   channel-side detachment is the caller's job ([Channel.set_attached])
   so both transitions stay in one place in the runner. *)
let set_down t v =
  if t.down <> v then
    if v then begin
      t.down <- true;
      Ifq.clear t.queue;
      t.qlen_a.(t.six) <- 0;
      t.current <- None;
      t.phase <- Idle;
      if not (Engine.is_none t.access_timer) then begin
        Engine.cancel t.engine t.access_timer;
        t.access_timer <- Engine.none
      end;
      if not (Engine.is_none t.ack_timer) then begin
        Engine.cancel t.engine t.ack_timer;
        t.ack_timer <- Engine.none
      end
    end
    else begin
      t.down <- false;
      t.phase <- Idle;
      t.attempts <- 0;
      t.cw <- t.params.cw_min;
      t.slots <- 0
    end
