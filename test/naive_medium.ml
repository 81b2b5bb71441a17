(* Brute-force oracles for [Net.Channel]:

   - its fan-out ([Net.Channel.fanout]): the radios a transmission
     touches, found by scanning every radio in attach order instead of
     reading neighbour lists;
   - its carrier sense ([Net.Channel.busy]): recounted from the
     oracle's own record of the fan-outs still in the air, each alive
     for its frame's airtime as [Net.Params] gives it, plus the radio's
     own transmission.

   Positions come from the record mobility processes
   ([Mobility.position]), not from the store's cached planes the channel
   reads, so a stale-cache bug in the channel cannot hide behind the
   same stale value here.  Querying the processes at the current time
   draws the same legs the store would draw later, so arming the oracle
   does not perturb a run (the tests that arm it also check that).

   Radios must be attached in slot order with radio [i] in slot [i]
   and node id [i] — the layout [Runner.build] and the test rigs use. *)

open Sim
open Packets

type t = {
  engine : Engine.t;
  store : Mobility.Pos_store.t;
  link : Net.Link_model.t option;
  params : Net.Params.t;
  channel : Net.Channel.t;
  radios : Net.Channel.radio array;
}

let create ~engine ~store ?link channel radios =
  Array.iteri
    (fun i r ->
      if Node_id.to_int (Net.Channel.radio_id r) <> i then
        invalid_arg "Naive_medium.create: radio i must have node id i")
    radios;
  {
    engine;
    store;
    link;
    params = Net.Channel.params channel;
    channel;
    radios;
  }

let of_sim (sim : Experiment.Runner.sim) =
  create ~engine:sim.engine ~store:sim.store ?link:sim.link sim.channel
    (Array.map Net.Mac.radio sim.macs)

let position t i =
  Mobility.position (Mobility.Pos_store.proc t.store i) (Engine.now t.engine)

(* Every attached radio but [src] within carrier-sense range of it (the
   pair's shadowing gain applied, the partition wall honoured), newest
   attach first. *)
let fanout t src =
  let cs2 = t.params.Net.Params.cs_range_m *. t.params.Net.Params.cs_range_m in
  let now = Engine.now t.engine in
  let sp = position t src in
  let touched = ref [] in
  Array.iteri
    (fun i r ->
      if i <> src && Net.Channel.attached t.channel r then begin
        let p = position t i in
        let d2 = Geom.Vec2.dist2 sp p in
        let hit =
          match t.link with
          | None -> d2 <= cs2
          | Some l ->
              (not
                 (Net.Link_model.blocked l ~now ~x1:sp.Geom.Vec2.x
                    ~x2:p.Geom.Vec2.x))
              &&
              let g = Net.Link_model.gain l src i in
              d2 <= cs2 *. (g *. g)
        in
        if hit then touched := i :: !touched
      end)
    t.radios;
  !touched

(* A transmission the oracle saw start: its source, the radios it
   touched and the instant its airtime ends. *)
type on_air = { src : int; touched : int list; ends : Time.t }

let airtime (frame : Net.Frame.t) =
  match frame.body with
  | Net.Frame.Ack -> Net.Params.ack_airtime
  | Net.Frame.Payload _ ->
      Net.Params.frame_airtime ~bytes:(Net.Frame.encoded_length frame)

(* Check, at the start of every transmission on [channel], that
   [Net.Channel.fanout] equals [fanout] and that every radio's
   [Net.Channel.busy] equals the recount from [in_air], the fan-outs
   (and sources) of the transmissions still in the air; raise [Failure]
   naming the first transmission where they differ.  A transmission
   whose airtime ends exactly now may or may not have ended yet (the
   engine orders same-instant events), so it only bounds the recount: a
   radio it alone keeps busy may read either way.  [checked] counts the
   transmissions checked. *)
let arm ~checked t channel =
  let ints l = String.concat "," (List.map string_of_int l) in
  let n = Array.length t.radios in
  let in_air = ref [] in
  let count = Array.make n 0 and ending = Array.make n 0 in
  let add tally a d =
    List.iter (fun i -> tally.(i) <- tally.(i) + d) (a.src :: a.touched)
  in
  Net.Channel.add_transmit_hook channel (fun src frame ->
      let s = Node_id.to_int src in
      let now = Engine.now t.engine in
      let want = fanout t s in
      let got =
        List.map Node_id.to_int (Net.Channel.fanout channel t.radios.(s))
      in
      if got <> want then
        failwith
          (Printf.sprintf
             "fan-out oracle: transmission %d (t=%s, from node %d): channel \
              touched [%s], brute force [%s]"
             (Net.Channel.transmissions channel)
             (Time.to_string now) s (ints got) (ints want));
      let ended, live =
        List.partition (fun a -> Time.(a.ends < now)) !in_air
      in
      List.iter (fun a -> add count a (-1)) ended;
      in_air := live;
      Array.fill ending 0 n 0;
      List.iter (fun a -> if Time.equal a.ends now then add ending a 1) live;
      Array.iteri
        (fun i r ->
          let busy = Net.Channel.busy channel r in
          let surely = count.(i) - ending.(i) > 0 and maybe = count.(i) > 0 in
          if (surely && not busy) || (busy && not maybe) then
            failwith
              (Printf.sprintf
                 "carrier-sense oracle: transmission %d (t=%s, from node %d): \
                  radio %d reads %s, %d transmissions in the air (%d ending \
                  now)"
                 (Net.Channel.transmissions channel)
                 (Time.to_string now) s i
                 (if busy then "busy" else "idle")
                 count.(i) ending.(i)))
        t.radios;
      let a = { src = s; touched = want; ends = Time.add now (airtime frame) } in
      add count a 1;
      in_air := a :: !in_air;
      incr checked)

let arm_sim ~checked sim =
  arm ~checked (of_sim sim) sim.Experiment.Runner.channel
