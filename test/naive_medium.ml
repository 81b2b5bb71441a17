(* Brute-force oracle for [Net.Channel.fanout]: the radios a transmission
   touches, found by scanning every radio in attach order instead of
   reading neighbour lists.

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
      if i <> src && Net.Channel.attached r then begin
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

(* Check [Net.Channel.fanout] against [fanout] at the start of every
   transmission on [channel]; raise [Failure] naming the first
   transmission where they differ.  [checked] counts the transmissions
   checked. *)
let arm ~checked t channel =
  let ints l = String.concat "," (List.map string_of_int l) in
  Net.Channel.add_transmit_hook channel (fun src _frame ->
      let s = Node_id.to_int src in
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
             (Time.to_string (Engine.now t.engine))
             s (ints got) (ints want));
      incr checked)

let arm_sim ~checked sim =
  arm ~checked (of_sim sim) sim.Experiment.Runner.channel
