(* The protocol tests' network: [Runner.build] over the explicit-link
   medium ([Scenario.graph], [Net.Links]) with the tests' own agent
   factory, plus a context whose outputs go nowhere for tests that
   poke a single agent directly. *)

open Sim
open Experiment

type t = Runner.sim

(* The factory replaces the scenario protocol's agents; the protocol
   itself only decides whether the radio hands a MAC frames for other
   nodes, which the link medium never does. *)
let create ?(seed = 1) ?scheduler ~factory ~n () =
  Runner.build ?scheduler ~factory
    (Scenario.with_seed seed (Scenario.graph Scenario.ldr ~nodes:n ~links:[]))

let engine (t : t) = t.Runner.engine
let agent (t : t) i = t.Runner.agents.(i)
let links (t : t) = Option.get t.Runner.links
let connect t a b = Net.Links.connect (links t) a b
let disconnect t a b = Net.Links.disconnect (links t) a b

let rec connect_chain t = function
  | a :: (b :: _ as rest) ->
      connect t a b;
      connect_chain t rest
  | [ _ ] | [] -> ()

let metrics (t : t) = t.Runner.sim_metrics

(* Originate one data packet at [src] for [dst] (counted in metrics). *)
let origin (t : t) ~src ~dst = t.Runner.inject ~src ~dst
let delivered t = Metrics.delivered (metrics t)

(* Advance the engine by the given amount of virtual time. *)
let run (t : t) ~for_ =
  Engine.run ~until:(Time.add (Engine.now t.Runner.engine) for_) t.Runner.engine

let find_cycle (t : t) =
  Routing.Agent.find_cycle
    (Routing.Agent.walk (Array.length t.Runner.agents))
    t.Runner.agents

let null_ctx ?(id = 0) engine =
  {
    Routing.Agent.id = Packets.Node_id.of_int id;
    engine;
    rng = Rng.create 42;
    send = (fun ~dst:_ _ -> ());
    deliver = ignore;
    drop_data = (fun _ ~reason:_ -> ());
    event = (fun ?dst:_ _ -> ());
    table_changed = ignore;
    obs = Obs.Bus.create ();
  }
