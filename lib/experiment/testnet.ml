open Sim
open Packets

type t = {
  engine : Engine.t;
  n : int;
  adj : bool array array;
  agents : Routing.Agent.t array;
  net_metrics : Metrics.t;
  (* Under a [`Controlled] engine, sends become floating events the
     mcheck explorer orders freely instead of fixed-delay timers. *)
  ctl : bool;
  walk : Routing.Agent.walk;
  mutable flow_counter : int;
}

let hop_delay = Time.ms 1.
(* Broadcast copies arrive staggered so that reply order is a function of
   node ids, which keeps walkthrough scripts deterministic. *)
let stagger = Time.us 100.

let link_failure_delay = Time.ms 10.

let agent t i = t.agents.(i)
let metrics t = t.net_metrics

let connected t a b = t.adj.(a).(b)

let connect t a b =
  if a <> b then begin
    t.adj.(a).(b) <- true;
    t.adj.(b).(a) <- true
  end

let disconnect t a b =
  t.adj.(a).(b) <- false;
  t.adj.(b).(a) <- false

let connect_chain t ids =
  let rec go = function
    | a :: (b :: _ as rest) ->
        connect t a b;
        go rest
    | [ _ ] | [] -> ()
  in
  go ids

let deliver t ~to_ payload ~from =
  t.agents.(to_).Routing.Agent.recv payload ~from:(Node_id.of_int from)

(* The trailing hash makes distinct in-flight payloads of the same
   class distinguishable, which mcheck's state digest relies on
   (pending events are part of the state).  [Hashtbl.hash] is
   deterministic for a given structure, so labels are stable across
   runs and replays. *)
let msg_label payload i j =
  Printf.sprintf "%s %d->%d #%04x"
    (Payload.class_name payload)
    i j
    (Hashtbl.hash_param 500 5000 payload land 0xffff)

(* Controlled-mode transport: one floating event per in-flight message
   (tag = receiving node), so the explorer can hold any copy past
   timers and other traffic.  Link state is still re-checked at
   delivery, and MAC-style link-failure feedback is itself a floating
   event at the sender. *)
let send_ctl t i ~dst payload =
  let float_to j =
    ignore
      (Engine.schedule_floating t.engine ~tag:j ~label:(msg_label payload i j)
         (fun () -> if t.adj.(i).(j) then deliver t ~to_:j payload ~from:i))
  in
  match dst with
  | Net.Frame.Broadcast ->
      for j = 0 to t.n - 1 do
        if t.adj.(i).(j) then float_to j
      done
  | Net.Frame.Unicast next ->
      let j = Node_id.to_int next in
      ignore
        (Engine.schedule_floating t.engine ~tag:j
           ~label:(msg_label payload i j) (fun () ->
             if t.adj.(i).(j) then deliver t ~to_:j payload ~from:i
             else
               ignore
                 (Engine.schedule_floating t.engine ~tag:i
                    ~label:(Printf.sprintf "LINKFAIL %d->%d" i j) (fun () ->
                      t.agents.(i).Routing.Agent.link_failure payload
                        ~next_hop:next))))

let send_timed t i ~dst payload =
  match dst with
  | Net.Frame.Broadcast ->
      let k = ref 0 in
      for j = 0 to t.n - 1 do
        if t.adj.(i).(j) then begin
          let delay = Time.add hop_delay (Time.mul stagger !k) in
          incr k;
          ignore
            (Engine.after t.engine delay (fun () ->
                 (* Link state is re-checked at delivery time. *)
                 if t.adj.(i).(j) then deliver t ~to_:j payload ~from:i))
        end
      done
  | Net.Frame.Unicast next ->
      let j = Node_id.to_int next in
      ignore
        (Engine.after t.engine hop_delay (fun () ->
             if t.adj.(i).(j) then deliver t ~to_:j payload ~from:i
             else
               ignore
                 (Engine.after t.engine link_failure_delay (fun () ->
                      t.agents.(i).Routing.Agent.link_failure payload
                        ~next_hop:next))))

let make_ctx t ?obs i =
  let id = Node_id.of_int i in
  {
    Routing.Agent.id;
    engine = t.engine;
    rng = Rng.create (1000 + i);
    send =
      (fun ~dst payload ->
        if t.ctl then send_ctl t i ~dst payload
        else send_timed t i ~dst payload);
    deliver =
      (fun msg ->
        Metrics.data_delivered t.net_metrics ~now:(Engine.now t.engine) msg);
    drop_data =
      (fun msg ~reason -> Metrics.data_dropped t.net_metrics msg ~reason);
    event = (fun ?dst:_ name -> Metrics.protocol_event t.net_metrics name);
    table_changed = ignore;
    obs = (match obs with Some b -> b | None -> Obs.Bus.create ());
  }

let create_custom ?obs ~engine ~factories () =
  let n = Array.length factories in
  let t =
    {
      engine;
      n;
      adj = Array.make_matrix n n false;
      agents = Array.make n Routing.Agent.null;
      net_metrics = Metrics.create ();
      ctl = Engine.controlled engine;
      walk = Routing.Agent.walk n;
      flow_counter = 0;
    }
  in
  for i = 0 to n - 1 do
    t.agents.(i) <- factories.(i) (make_ctx t ?obs i)
  done;
  Array.iter (fun (a : Routing.Agent.t) -> a.start ()) t.agents;
  t

let create ?obs ~engine ~factory ~n () =
  create_custom ?obs ~engine ~factories:(Array.make n factory) ()

let origin t ~src ~dst =
  t.flow_counter <- t.flow_counter + 1;
  let msg =
    Data_msg.fresh ~flow_id:t.flow_counter ~seq:0 ~src:(Node_id.of_int src)
      ~dst:(Node_id.of_int dst) ~payload_bytes:Traffic.payload_bytes
      ~origin_time:(Engine.now t.engine)
  in
  Metrics.data_originated t.net_metrics msg;
  t.agents.(src).Routing.Agent.origin_data msg

let delivered t = Metrics.delivered t.net_metrics

let run t ~for_ =
  Engine.run ~until:(Time.add (Engine.now t.engine) for_) t.engine

(* First successor-graph cycle, as (destination, cycle nodes): walk
   every per-destination successor chain.  The mcheck explorer calls
   this after every fired event — this is the AODV violation detector
   (AODV keeps no LDR invariants for the monitor to check). *)
let find_cycle t =
  let rec search d s =
    if d = t.n then None
    else if s = t.n then search (d + 1) 0
    else
      let dst = Node_id.of_int d in
      let x =
        if s = d then -1 else Routing.Agent.first_repeat t.walk t.agents ~dst s
      in
      if x >= 0 then Some (d, Routing.Agent.cycle t.agents ~dst x)
      else search d (s + 1)
  in
  search 0 0
