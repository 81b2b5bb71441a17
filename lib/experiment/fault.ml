open Sim
open Packets

(* A reply the real destination never issued: its number vaults past
   anything in the network, so NDC accepts it and the route installs —
   but the successor's stored invariants cannot dominate the forged
   ones, which is exactly what the monitor checks. *)
let forged_rrep ~stamp ~dst ~origin =
  Ldr_msg.Rrep
    {
      Ldr_msg.dst;
      dst_sn = { Seqnum.stamp; counter = 0 };
      origin;
      rreq_id = 987_654;
      dist = 1;
      lifetime = Time.sec 10.;
      rrep_no_reverse = false;
    }

(* Row-major scan for the first node with an active route: the
   injection site is a deterministic function of the routing state. *)
let first_route (agents : Routing.Agent.t array) =
  let n = Array.length agents in
  let found = ref None in
  (try
     for i = 0 to n - 1 do
       for d = 0 to n - 1 do
         if d <> i then
           match agents.(i).Routing.Agent.successor (Node_id.of_int d) with
           | Some s ->
               found := Some (i, d, s);
               raise Exit
           | None -> ()
       done
     done
   with Exit -> ());
  !found

type injection = {
  injected : bool ref;
  stamp : int;
  mutable victim : int;
  mutable dst : int;
  mutable via : int;
}

let stale_seqno ?(stamp = 1_000_000) (sim : Runner.sim) ~at =
  let inj = { injected = ref false; stamp; victim = -1; dst = -1; via = -1 } in
  let agents = sim.Runner.agents in
  ignore
    (Engine.at sim.Runner.engine at (fun () ->
         match first_route agents with
         | Some (i, d, s) ->
             agents.(i).Routing.Agent.recv
               (Payload.Ldr
                  (forged_rrep ~stamp ~dst:(Node_id.of_int d)
                     ~origin:(Node_id.of_int i)))
               ~from:s;
             inj.injected := true;
             inj.victim <- i;
             inj.dst <- d;
             inj.via <- Node_id.to_int s
         | None -> ()));
  inj
