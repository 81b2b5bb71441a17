open Sim
open Packets

let difs = Time.us 50.
let cw_min = 31  (* initial contention window (slots - 1) *)
let cw_max = 1023
let retry_limit = 7

type callbacks = {
  receive : Payload.t -> from:Node_id.t -> unit;
  promiscuous : (Payload.t -> from:Node_id.t -> dst:Frame.dst -> unit) option;
  link_failure : Payload.t -> next_hop:Node_id.t -> unit;
}

type phase =
  | Idle
  | Access  (** counting down DIFS + backoff *)
  | Sending
  | Await_ack

(* Timer fields hold [Engine.none] when unarmed, and every timer
   callback is a pre-bound top-level function over [t] scheduled with
   [Engine.after_fn] — the hot path (one access timer and one ACK
   timer per data frame) allocates neither an option nor a closure.
   The queue holds whole frames, built once by [send] and put on the
   air as they are by every attempt; [current] is [no_frame] when no
   frame is in service. *)
type t = {
  engine : Engine.t;
  channel : Channel.t;
  rng : Rng.t;
  my_id : Node_id.t;
  radio : Channel.radio;
  cb : callbacks;
  queue : Frame.t Ifq.t;
  mutable phase : phase;
  mutable current : Frame.t;
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
  mutable failures : int;  (** unicasts that exhausted the retry limit *)
  mutable down : bool;  (** churn: node is powered off *)
  obs : Obs.Bus.t;  (* shared with the channel *)
}

let emit_rx t payload ~from ~dst =
  Obs.Bus.rx t.obs
    ~time:(Engine.now t.engine)
    ~node:(Node_id.to_int t.my_id)
    ~cls:(Obs.Bus.intern t.obs (Payload.class_name payload))
    ~from:(Node_id.to_int from)
    ~dst:(dst : Frame.dst :> int)

(* One span record per MAC lifecycle stage of a data frame, keyed by
   the packet's out-of-band (flow, seq) id.  Control frames are not
   spanned. *)
let emit_span t ~stage payload ~d ~e =
  if Obs.Bus.on t.obs Span then
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
let unicast_failures t = t.failures
let radio t = t.radio
let is_down t = t.down

(* Compared physically: "no frame in service". *)
let no_frame = Frame.Ack { src = Node_id.of_int 0; dst = Frame.broadcast }

let payload_of = function
  | Frame.Data f -> f.payload
  | Frame.Ack _ -> assert false

(* [on_medium] acts only in [Access], counting down the backoff, so the
   radio reports carrier-sense edges only in that phase. *)
let set_phase t p =
  t.phase <- p;
  Channel.set_contending t.channel t.radio
    (match p with Access -> true | _ -> false)

let rec dequeue_next t =
  assert (t.current == no_frame);
  if Ifq.is_empty t.queue then set_phase t Idle
  else begin
    let f = Ifq.pop t.queue in
    t.current <- f;
    t.attempts <- 1;
    t.cw <- cw_min;
    emit_span t ~stage:Obs.Span.Stage.mac_deq (payload_of f) ~d:(-1) ~e:(-1);
    begin_access t
  end

and begin_access t =
  set_phase t Access;
  t.slots <- Rng.int t.rng (t.cw + 1);
  maybe_arm t

(* Arm the DIFS+backoff countdown if the medium is idle. *)
and maybe_arm t =
  if t.phase = Access
     && Engine.is_none t.access_timer
     && not (Channel.busy t.channel t.radio)
  then begin
    let wait = Time.add difs (Time.mul Params.slot t.slots) in
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
  let frame = t.current in
  assert (frame != no_frame);
  set_phase t Sending;
  emit_span t ~stage:Obs.Span.Stage.mac_try (payload_of frame) ~d:(-1)
    ~e:t.attempts;
  let duration = Params.frame_airtime ~bytes:(Frame.encoded_length frame) in
  Channel.transmit t.channel t.radio frame ~duration;
  ignore (Engine.after_fn t.engine duration tx_done t)

(* [t.current] is pinned while Sending/Await_ack — only [finish],
   [retry]'s failure arm and [set_down] clear it — so reading it when
   the timer fires sees the frame that was in the air; [no_frame] here
   means the node went down mid-transmission (the handle is discarded,
   so down-gating happens at fire time). *)
and tx_done t =
  let f = t.current in
  if f == no_frame || t.down then ()
  else if Frame.is_broadcast (Frame.dst f) then finish t
  else begin
    set_phase t Await_ack;
    t.ack_timer <-
      Engine.after_fn t.engine Params.ack_timeout ack_timeout_expired t
  end

and ack_timeout_expired t =
  t.ack_timer <- Engine.none;
  if t.down then ()
  else
    let f = t.current in
    retry t f (Frame.addressee (Frame.dst f))

and finish t =
  (* Read the frame before clearing it — the span needs its id. *)
  if t.current != no_frame then
    emit_span t ~stage:Obs.Span.Stage.mac_end (payload_of t.current) ~d:(-1)
      ~e:t.attempts;
  t.current <- no_frame;
  set_phase t Idle;
  dequeue_next t

and retry t f next_hop =
  if t.attempts >= retry_limit then begin
    t.failures <- t.failures + 1;
    emit_span t ~stage:Obs.Span.Stage.mac_fail (payload_of f)
      ~d:(Node_id.to_int next_hop) ~e:t.attempts;
    t.current <- no_frame;
    set_phase t Idle;
    t.cb.link_failure (payload_of f) ~next_hop;
    (* The callback may have enqueued follow-up traffic (e.g. a RERR);
       only restart the service loop if it has not already done so by
       observing Idle. *)
    if t.phase = Idle && t.current == no_frame then dequeue_next t
  end
  else begin
    t.attempts <- t.attempts + 1;
    t.cw <- Int.min (((t.cw + 1) * 2) - 1) cw_max;
    begin_access t
  end

let ack_received t from =
  match t.phase with
  | Await_ack when (Frame.dst t.current :> int) = Node_id.to_int from ->
      if not (Engine.is_none t.ack_timer) then begin
        Engine.cancel t.engine t.ack_timer;
        t.ack_timer <- Engine.none
      end;
      finish t
  | _ -> ()

let send_ack_fire t =
  if (not t.down) && not (Channel.transmitting t.channel t.radio) then
    Channel.transmit t.channel t.radio t.ack_frame
      ~duration:Params.ack_airtime

let send_ack t ~to_ =
  (* ACKs answer after SIFS regardless of carrier sense (802.11), but a
     radio cannot transmit two frames at once. *)
  if not (Node_id.equal to_ t.ack_to) then begin
    t.ack_to <- to_;
    t.ack_frame <- Frame.Ack { src = t.my_id; dst = Frame.unicast to_ }
  end;
  ignore (Engine.after_fn t.engine Params.sifs send_ack_fire t)

let on_frame t (f : Frame.t) =
  if t.down then ()
  else
  match f with
  | Ack a -> if Frame.addressed_to f t.my_id then ack_received t a.src
  | Data { src; dst; payload } ->
      if Frame.addressed_to f t.my_id then begin
        if Obs.Bus.on t.obs Rx then emit_rx t payload ~from:src ~dst;
        if not (Frame.is_broadcast dst) then send_ack t ~to_:src;
        t.cb.receive payload ~from:src
      end
      else (
        match t.cb.promiscuous with
        | Some overheard -> overheard payload ~from:src ~dst
        | None -> ())

let on_medium t busy =
  if t.down then ()
  else if busy then begin
    if t.phase = Access && not (Engine.is_none t.access_timer) then begin
      Engine.cancel t.engine t.access_timer;
      t.access_timer <- Engine.none;
      (* Slots consumed while the medium was idle. *)
      let elapsed = Time.diff (Engine.now t.engine) t.access_started in
      let after_difs =
        if Time.(elapsed > difs) then Time.diff elapsed difs else Time.zero
      in
      (* Time.t is an immediate int of nanoseconds; plain int division
         avoids two Int64 boxes per medium-busy transition. *)
      let consumed = (after_difs :> int) / (Params.slot :> int) in
      t.slots <- Int.max 0 (t.slots - consumed)
    end
  end
  else maybe_arm t

let create ~engine ~channel ~rng ~id ~slot callbacks =
  let radio = Channel.attach channel ~slot ~id in
  let t =
    {
      engine;
      channel;
      rng;
      my_id = id;
      radio;
      cb = callbacks;
      queue =
        Ifq.create ~capacity:(Channel.params channel).ifq_capacity
          ~empty:no_frame;
      phase = Idle;
      current = no_frame;
      attempts = 0;
      cw = cw_min;
      slots = 0;
      access_timer = Engine.none;
      access_started = Time.zero;
      ack_timer = Engine.none;
      ack_to = id;
      ack_frame = Frame.Ack { src = id; dst = Frame.unicast id };
      failures = 0;
      down = false;
      obs = Channel.obs channel;
    }
  in
  Channel.set_receiver radio ~overhear:(Option.is_some callbacks.promiscuous)
    (on_frame t);
  Channel.set_medium_listener radio (on_medium t);
  Channel.set_contending channel radio false;
  t

let send t ~dst payload =
  if t.down then ()
  else begin
    let frame = Frame.Data { src = t.my_id; dst; payload } in
    let accepted = Ifq.push t.queue frame in
    if accepted then
      emit_span t ~stage:Obs.Span.Stage.mac_enq payload ~d:(dst :> int) ~e:(-1)
    else begin
      if Obs.Bus.on t.obs Ifq_drop then
        Obs.Bus.ifq_drop t.obs
          ~time:(Engine.now t.engine)
          ~node:(Node_id.to_int t.my_id)
          ~cls:(Obs.Bus.intern t.obs (Payload.class_name payload))
          ~dst:(dst :> int);
      emit_span t ~stage:Obs.Span.Stage.mac_drop payload ~d:(dst :> int)
        ~e:(-1)
    end;
    if accepted && t.phase = Idle && t.current == no_frame then dequeue_next t
  end

(* Power the node down (detach the radio, flush the queue, kill the
   armed timers, release any half-sent frame) or back up (re-attach the
   radio, clean CSMA state). *)
let set_down t v =
  if t.down <> v then begin
    Channel.set_attached t.channel t.radio (not v);
    if v then begin
      t.down <- true;
      Ifq.clear t.queue;
      t.current <- no_frame;
      set_phase t Idle;
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
      set_phase t Idle;
      t.attempts <- 0;
      t.cw <- cw_min;
      t.slots <- 0
    end
  end
