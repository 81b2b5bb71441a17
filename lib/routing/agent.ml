open Packets

type ctx = {
  id : Node_id.t;
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  send : dst:Net.Frame.dst -> Payload.t -> unit;
  deliver : Data_msg.t -> unit;
  drop_data : Data_msg.t -> reason:string -> unit;
  event : ?dst:Node_id.t -> string -> unit;
  table_changed : unit -> unit;
  obs : Obs.Bus.t;
}

type t = {
  origin_data : Data_msg.t -> unit;
  recv : Payload.t -> from:Node_id.t -> unit;
  overheard : Payload.t -> from:Node_id.t -> dst:Net.Frame.dst -> unit;
  link_failure : Payload.t -> next_hop:Node_id.t -> unit;
  start : unit -> unit;
  successor : Node_id.t -> Node_id.t option;
  own_seqno : unit -> float;
  invariants : Node_id.t -> Obs.Event.inv option;
  route_stats : unit -> int * int * int;
  reset : crash:bool -> unit;
}

type factory = ctx -> t

let null =
  {
    origin_data = ignore;
    recv = (fun _ ~from:_ -> ());
    overheard = (fun _ ~from:_ ~dst:_ -> ());
    link_failure = (fun _ ~next_hop:_ -> ());
    start = ignore;
    successor = (fun _ -> None);
    own_seqno = (fun () -> 0.);
    invariants = (fun _ -> None);
    route_stats = (fun () -> (0, 0, 0));
    reset = (fun ~crash:_ -> ());
  }

(* A node is visited in the current walk iff its mark equals [gen]; a
   new walk bumps [gen] instead of clearing the marks. *)
type walk = { marks : int array; mutable gen : int }

let walk n = { marks = Array.make n 0; gen = 0 }

let first_repeat w agents ~dst s =
  w.gen <- w.gen + 1;
  let rec go x =
    if w.marks.(x) = w.gen then x
    else begin
      w.marks.(x) <- w.gen;
      if x = Node_id.to_int dst then -1
      else
        match agents.(x).successor dst with
        | Some next -> go (Node_id.to_int next)
        | None -> -1
    end
  in
  go s

let cycle agents ~dst x =
  let rec go y acc =
    match agents.(y).successor dst with
    | Some next when Node_id.to_int next <> x ->
        let n = Node_id.to_int next in
        go n (n :: acc)
    | _ -> List.rev acc
  in
  go x [ x ]

let find_cycle w agents =
  let n = Array.length agents in
  let rec search d s =
    if d = n then None
    else if s = n then search (d + 1) 0
    else
      let dst = Node_id.of_int d in
      let x = if s = d then -1 else first_repeat w agents ~dst s in
      if x >= 0 then Some (d, cycle agents ~dst x) else search d (s + 1)
  in
  search 0 0
