open Sim
open Packets

type node = { mac : Mac.t; cb : Mac.callbacks }

type t = {
  engine : Engine.t;
  ctl : bool;  (* [Engine.controlled engine] *)
  adj : bool array array;
  nodes : node option array;
}

let hop_delay = Time.ms 1.
(* Broadcast copies arrive staggered so that reply order is a function of
   node ids, which keeps walkthrough scripts deterministic. *)
let stagger = Time.us 100.

let link_failure_delay = Time.ms 10.

let create ~engine n =
  {
    engine;
    ctl = Engine.controlled engine;
    adj = Array.make_matrix n n false;
    nodes = Array.make n None;
  }

let attach t mac cb = t.nodes.(Node_id.to_int (Mac.id mac)) <- Some { mac; cb }

(* [Runner.build] attaches every node before any agent runs. *)
let node t i = Option.get t.nodes.(i)

let connect t a b =
  if a <> b then begin
    t.adj.(a).(b) <- true;
    t.adj.(b).(a) <- true
  end

let disconnect t a b =
  t.adj.(a).(b) <- false;
  t.adj.(b).(a) <- false

let up t i = not (Mac.is_down (node t i).mac)

(* Checked at delivery time: the link may have gone, or the receiver
   down, while the message was in flight. *)
let reachable t i j = t.adj.(i).(j) && up t j

let deliver t ~to_ payload ~from =
  (node t to_).cb.Mac.receive payload ~from:(Node_id.of_int from)

(* A down sender's MAC was flushed: the failure is not reported. *)
let fail t i payload ~next_hop =
  if up t i then (node t i).cb.Mac.link_failure payload ~next_hop

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

(* One hop: a fixed-delay timer, or under a [`Controlled] engine a
   floating event tagged with the node it acts on, which the explorer
   can hold past timers and other traffic. *)
let post t ~delay ~tag label f =
  ignore
    (if t.ctl then Engine.schedule_floating t.engine ~tag ~label:(label ()) f
     else Engine.after t.engine delay f)

(* Like [Mac.send], a down node's sends are dropped. *)
let send t i ~dst payload =
  let hop j () = if reachable t i j then deliver t ~to_:j payload ~from:i in
  let label j () = msg_label payload i j in
  if up t i then
    if Frame.is_broadcast dst then begin
      let k = ref 0 in
      for j = 0 to Array.length t.adj - 1 do
        if t.adj.(i).(j) then begin
          let delay = Time.add hop_delay (Time.mul stagger !k) in
          incr k;
          post t ~delay ~tag:j (label j) (hop j)
        end
      done
    end
    else
      let next = Frame.addressee dst in
      let j = Node_id.to_int next in
      post t ~delay:hop_delay ~tag:j (label j) (fun () ->
          if reachable t i j then deliver t ~to_:j payload ~from:i
          else
            post t ~delay:link_failure_delay ~tag:i
              (fun () -> Printf.sprintf "LINKFAIL %d->%d" i j)
              (fun () -> fail t i payload ~next_hop:next))
