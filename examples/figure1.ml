(* The paper's Figure 1 / Section 2.3 walkthrough, executed against the
   real LDR implementation over an idealized link layer (the runner's
   explicit-link medium, [Scenario.graph]).

   Six nodes; destination T.  Initial successor graph (dist/fd):

       E ---- C(3/2) ---- D(1/1) ---- T(0/0)
        \---- B(4/4) --/              (B's successor path runs via C)
        \---- D

   Script (paper, Section 2.3):
   1. E needs a route to T and floods a RREQ.  C answers first (E
      installs dist 4 / fd 4), B's reply with start distance 4 is
      ignored, D's reply with distance 1 improves E to dist 2 / fd 2.
   2. Links E-C and E-D fail.  E re-floods with fd 2.  Neither B (dist 4)
      nor C (dist 3) satisfies the request, and both violate feasible-
      distance ordering, so the T bit gets set.  D could answer (1 < 2)
      but the reset bit forces it to unicast the RREQ to T.  T increments
      its sequence number and replies with distance 0; the reply resets
      feasible distances along D(1/1) -> C(2/2) -> B(3/3) -> E(4/4).

   Run with: dune exec examples/figure1.exe *)

open Packets
open Experiment
module Time = Sim.Time

(* Node ids chosen so that broadcast copies (delivered in id order by the
   link medium) make C answer first, as the paper stipulates. *)
let e = 0
let c = 1
let b = 2
let d = 3
let t_ = 4

let name = function
  | 0 -> "E"
  | 1 -> "C"
  | 2 -> "B"
  | 3 -> "D"
  | 4 -> "T"
  | n -> "n" ^ string_of_int n

let failures = ref 0

let check what cond =
  if cond then Format.printf "  ok   %s@." what
  else begin
    incr failures;
    Format.printf "  FAIL %s@." what
  end

let show_entry dbg node =
  match Ldr.Route_table.find dbg.Ldr.Protocol.table (Node_id.of_int t_) with
  | None -> Format.printf "  %s: no entry for T@." (name node)
  | Some en ->
      Format.printf "  %s: sn=%a dist=%d fd=%d next=%s@." (name node)
        Seqnum.pp en.sn en.dist en.fd
        (match en.next_hop with
        | Some nh -> name (Node_id.to_int nh)
        | None -> "-")

let () =
  (* The plain configuration: the walkthrough predates the Section-4
     optimizations (reduced distance would lower the answering bound and
     change who may reply). *)
  let config = Ldr.Config.plain in
  (* Every node's agent, keeping its debug handle. *)
  let debugs = Array.make 5 None in
  let factory (ctx : Routing.Agent.ctx) =
    let agent, dbg = Ldr.Protocol.factory_with_debug ~config () ctx in
    debugs.(Node_id.to_int ctx.id) <- Some dbg;
    agent
  in
  let sim =
    Runner.build ~factory
      (Scenario.graph (Scenario.Ldr config) ~nodes:5
         ~links:[ (e, b); (e, c); (e, d); (b, c); (c, d); (d, t_) ])
  in
  let dbg i = Option.get debugs.(i) in
  let links = Option.get sim.Runner.links in
  let run ~for_ =
    Sim.Engine.run
      ~until:(Time.add (Sim.Engine.now sim.Runner.engine) for_)
      sim.Runner.engine
  in
  let delivered () = Metrics.delivered sim.Runner.sim_metrics in

  (* Stage the figure's initial tables (the paper: "These numbers may
     occur due to mobility and changing successors"). *)
  let sn0 = Seqnum.initial ~stamp:0 in
  let far = Time.sec 1000. in
  let set node ~dist ~fd ~via =
    let table = (dbg node).Ldr.Protocol.table in
    let tid = Node_id.of_int t_ in
    (match
       Ldr.Route_table.apply_advert table ~dst:tid ~adv_sn:sn0
         ~adv_dist:0 ~via:(Node_id.of_int via) ~lifetime:far
     with
    | `Installed | `Refreshed | `Rejected -> ());
    match Ldr.Route_table.find table tid with
    | None -> assert false
    | Some en ->
        en.sn <- sn0;
        en.dist <- dist;
        en.fd <- fd;
        en.next_hop <- Some (Node_id.of_int via)
  in
  set d ~dist:1 ~fd:1 ~via:t_;
  set c ~dist:3 ~fd:2 ~via:d;
  set b ~dist:4 ~fd:4 ~via:c;

  Format.printf "Initial state (dist/fd toward T):@.";
  List.iter (fun n -> show_entry (dbg n) n) [ b; c; d ];

  (* --- Step 1: E discovers T. --------------------------------------- *)
  Format.printf "@.Step 1: E floods a RREQ for T.@.";
  sim.Runner.inject ~src:e ~dst:t_;
  (* C's reply arrives first; inspect E before B's and D's replies land.
     With 1 ms hop delay and 100 us stagger, C's RREP is back at ~2.0 ms,
     B's at ~2.1 ms, D's at ~2.2 ms. *)
  run ~for_:(Time.us 2050.);
  (match Ldr.Route_table.find (dbg e).Ldr.Protocol.table (Node_id.of_int t_) with
  | Some en ->
      check "after C's reply E has dist 4, fd 4" (en.dist = 4 && en.fd = 4)
  | None -> check "after C's reply E has an entry" false);
  run ~for_:(Time.ms 50.);
  show_entry (dbg e) e;
  (match Ldr.Route_table.find (dbg e).Ldr.Protocol.table (Node_id.of_int t_) with
  | Some en ->
      check "B's reply (start distance 4) was ignored, D's accepted"
        (en.dist = 2 && en.fd = 2 && en.next_hop = Some (Node_id.of_int d))
  | None -> check "E has an entry" false);
  check "data reached T" (delivered () = 1);

  (* --- Step 2: links fail; reset through the destination. ------------ *)
  Format.printf "@.Step 2: links E-C and E-D fail; E re-floods with fd 2.@.";
  Net.Links.disconnect links e c;
  Net.Links.disconnect links e d;
  let t_sn_before = (dbg t_).Ldr.Protocol.own_sn () in
  sim.Runner.inject ~src:e ~dst:t_;
  run ~for_:(Time.sec 5.);
  List.iter (fun n -> show_entry (dbg n) n) [ e; b; c; d ];
  let t_sn_after = (dbg t_).Ldr.Protocol.own_sn () in
  check "T incremented its sequence number (path reset)"
    Seqnum.(t_sn_after > t_sn_before);
  let entry node =
    Option.get
      (Ldr.Route_table.find (dbg node).Ldr.Protocol.table (Node_id.of_int t_))
  in
  let en_d = entry d and en_c = entry c and en_b = entry b and en_e = entry e in
  check "D: dist 1, fd 1 under the new number"
    (en_d.dist = 1 && en_d.fd = 1 && Seqnum.(en_d.sn > sn0));
  check "C: dist 2, fd 2 (paper: keeps its feasible distance at 2)"
    (en_c.dist = 2 && en_c.fd = 2);
  check "B: dist 3, fd 3" (en_b.dist = 3 && en_b.fd = 3);
  check "E: dist 4, fd reset to 4"
    (en_e.dist = 4 && en_e.fd = 4
    && en_e.next_hop = Some (Node_id.of_int b));
  check "second packet reached T over the reset path" (delivered () = 2);
  check "no routing loop in the final successor graph"
    (Routing.Agent.find_cycle (Routing.Agent.walk 5) sim.Runner.agents = None);

  if !failures = 0 then Format.printf "@.Figure 1 walkthrough: OK@."
  else begin
    Format.printf "@.Figure 1 walkthrough: %d check(s) FAILED@." !failures;
    exit 1
  end
