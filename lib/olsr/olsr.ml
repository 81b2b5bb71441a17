open Sim
open Packets
module RA = Routing.Agent

let hello_interval = Time.sec 2.
let tc_interval = Time.sec 5.
let neighbor_hold = Time.sec 6.  (* 3 x hello *)
let topology_hold = Time.sec 15.  (* 3 x TC *)
let jitter_max = Time.ms 15.  (* FIFO jitter-queue gap bound *)
let dup_hold = Time.sec 30.

(* ---- MPR selection (RFC 3626 8.3.1 greedy heuristic) ------------------- *)

let select_mprs ~self ~neighbors =
  let neighbor_set =
    List.fold_left
      (fun acc (n, _) -> Node_id.Set.add n acc)
      Node_id.Set.empty neighbors
  in
  (* Strict two-hop neighborhood: reachable through a neighbor, not self,
     not itself a neighbor. *)
  let coverage =
    List.map
      (fun (n, theirs) ->
        let covers =
          List.filter
            (fun x ->
              (not (Node_id.equal x self))
              && not (Node_id.Set.mem x neighbor_set))
            theirs
        in
        (n, Node_id.Set.of_list covers))
      neighbors
  in
  let two_hop =
    List.fold_left
      (fun acc (_, cov) -> Node_id.Set.union acc cov)
      Node_id.Set.empty coverage
  in
  let mprs = ref Node_id.Set.empty in
  let covered = ref Node_id.Set.empty in
  let add n cov =
    mprs := Node_id.Set.add n !mprs;
    covered := Node_id.Set.union !covered cov
  in
  (* Mandatory picks: sole providers of some two-hop node. *)
  Node_id.Set.iter
    (fun x ->
      match
        List.filter (fun (_, cov) -> Node_id.Set.mem x cov) coverage
      with
      | [ (n, cov) ] -> if not (Node_id.Set.mem n !mprs) then add n cov
      | _ -> ())
    two_hop;
  (* Greedy: repeatedly take the neighbor covering the most uncovered
     two-hop nodes (ties to the smaller id, for determinism). *)
  let remaining () = Node_id.Set.diff two_hop !covered in
  let rec loop () =
    let rem = remaining () in
    if not (Node_id.Set.is_empty rem) then begin
      let best = ref None in
      List.iter
        (fun (n, cov) ->
          if not (Node_id.Set.mem n !mprs) then begin
            let gain = Node_id.Set.cardinal (Node_id.Set.inter cov rem) in
            match !best with
            | Some (_, bg, bn)
              when bg > gain || (bg = gain && Node_id.compare bn n < 0) ->
                ()
            | _ -> if gain > 0 then best := Some (cov, gain, n)
          end)
        coverage;
      match !best with
      | None -> () (* uncoverable two-hop nodes (asymmetric info); stop *)
      | Some (cov, _, n) ->
          add n cov;
          loop ()
    end
  in
  loop ();
  !mprs

(* ---- FIFO jitter queue (the paper's OLSR fix) --------------------------- *)

type jitter_queue = {
  jq : (unit -> unit) Queue.t;
  mutable draining : bool;
}

let jq_create () = { jq = Queue.create (); draining = false }

(* ---- Node state --------------------------------------------------------- *)

type link = {
  mutable sym : bool;
  mutable l_expires : Time.t;
  mutable their_sym_neighbors : Node_id.t list;
  mutable chose_me : bool;  (** this neighbor selected us as MPR *)
}

type topo = { mutable ansn : int; mutable advertised : Node_id.t list; mutable t_expires : Time.t }

type state = {
  ctx : RA.ctx;
  links : link Node_id.Table.t;
  topology : topo Node_id.Table.t;  (** keyed by TC originator *)
  dups : unit Routing.Rreq_cache.t;
  mutable mprs : Node_id.Set.t;
  mutable ansn : int;
  mutable msg_seq : int;
  mutable routes : (Node_id.t * int) Node_id.Map.t;  (** dst -> next hop, dist *)
  mutable routes_dirty : bool;
  queue : jitter_queue;
}

let now t = Engine.now t.ctx.engine

let live_link t (l : link) = Time.(l.l_expires > now t)

let sym_neighbors t =
  Node_id.Table.fold
    (fun n l acc -> if l.sym && live_link t l then (n, l) :: acc else acc)
    t.links []

(* ---- Jittered, FIFO-ordered control transmission ------------------------ *)

let rec drain t =
  match Queue.take_opt t.queue.jq with
  | None -> t.queue.draining <- false
  | Some action ->
      let delay = Rng.uniform_time t.ctx.rng jitter_max in
      ignore
        (Engine.after t.ctx.engine delay (fun () ->
             action ();
             drain t))

let send_control t msg =
  Queue.push
    (fun () -> t.ctx.send ~dst:Net.Frame.broadcast (Payload.Olsr msg))
    t.queue.jq;
  if not t.queue.draining then begin
    t.queue.draining <- true;
    drain t
  end

(* ---- Route computation (BFS over neighbor + topology information) ------- *)

let adjacency t =
  let add tbl a b =
    let cur = try Node_id.Table.find tbl a with Not_found -> Node_id.Set.empty in
    Node_id.Table.replace tbl a (Node_id.Set.add b cur)
  in
  let tbl = Node_id.Table.create 64 in
  List.iter
    (fun (n, l) ->
      List.iter
        (fun x ->
          add tbl n x;
          add tbl x n)
        l.their_sym_neighbors)
    (sym_neighbors t);
  Node_id.Table.iter
    (fun origin topo ->
      if Time.(topo.t_expires > now t) then
        List.iter
          (fun x ->
            add tbl origin x;
            add tbl x origin)
          topo.advertised)
    t.topology;
  tbl

let recompute_routes t =
  t.routes_dirty <- false;
  let adj = adjacency t in
  let first_hops =
    List.sort (fun (a, _) (b, _) -> Node_id.compare a b) (sym_neighbors t)
  in
  let routes = ref Node_id.Map.empty in
  let q = Queue.create () in
  List.iter
    (fun (n, _) ->
      routes := Node_id.Map.add n (n, 1) !routes;
      Queue.push n q)
    first_hops;
  while not (Queue.is_empty q) do
    let x = Queue.pop q in
    let via, dist = Node_id.Map.find x !routes in
    let succs =
      match Node_id.Table.find_opt adj x with
      | Some s -> Node_id.Set.elements s
      | None -> []
    in
    List.iter
      (fun y ->
        if
          (not (Node_id.equal y t.ctx.id))
          && not (Node_id.Map.mem y !routes)
        then begin
          routes := Node_id.Map.add y (via, dist + 1) !routes;
          Queue.push y q
        end)
      succs
  done;
  t.routes <- !routes

let route_lookup t dst =
  if t.routes_dirty then recompute_routes t;
  Node_id.Map.find_opt dst t.routes

(* ---- HELLO -------------------------------------------------------------- *)

let recompute_mprs t =
  let neighbors =
    List.map (fun (n, l) -> (n, l.their_sym_neighbors)) (sym_neighbors t)
  in
  t.mprs <- select_mprs ~self:t.ctx.id ~neighbors

let emit_hello t =
  recompute_mprs t;
  let neighbors =
    Node_id.Table.fold
      (fun n l acc ->
        if live_link t l then
          let kind =
            if l.sym && Node_id.Set.mem n t.mprs then Olsr_msg.Mpr
            else if l.sym then Olsr_msg.Sym
            else Olsr_msg.Asym
          in
          (n, kind) :: acc
        else acc)
      t.links []
  in
  send_control t (Olsr_msg.Hello { neighbors })

let handle_hello t (h : Olsr_msg.hello) ~from =
  let l =
    match Node_id.Table.find_opt t.links from with
    | Some l -> l
    | None ->
        let l =
          { sym = false; l_expires = Time.zero; their_sym_neighbors = []; chose_me = false }
        in
        Node_id.Table.replace t.links from l;
        l
  in
  l.l_expires <- Time.add (now t) neighbor_hold;
  let lists_me kind =
    List.exists
      (fun (n, k) -> Node_id.equal n t.ctx.id && k = kind)
      h.neighbors
  in
  (* The link is symmetric once the neighbor reports hearing us. *)
  l.sym <- lists_me Olsr_msg.Sym || lists_me Olsr_msg.Asym || lists_me Olsr_msg.Mpr;
  l.chose_me <- lists_me Olsr_msg.Mpr;
  l.their_sym_neighbors <-
    List.filter_map
      (fun (n, k) ->
        match k with
        | Olsr_msg.Sym | Olsr_msg.Mpr ->
            if Node_id.equal n t.ctx.id then None else Some n
        | Olsr_msg.Asym -> None)
      h.neighbors;
  t.routes_dirty <- true

(* ---- TC ------------------------------------------------------------------ *)

let selectors t =
  List.filter_map
    (fun (n, l) -> if l.chose_me then Some n else None)
    (sym_neighbors t)

let emit_tc t =
  let sel = selectors t in
  if sel <> [] then begin
    t.ansn <- t.ansn + 1;
    t.msg_seq <- t.msg_seq + 1;
    send_control t
      (Olsr_msg.Tc
         {
           origin = t.ctx.id;
           msg_seq = t.msg_seq;
           ttl = 255;
           tc = { tc_origin = t.ctx.id; ansn = t.ansn; advertised = sel };
         })
  end

let handle_tc t ~origin ~msg_seq ~ttl ~(tc : Olsr_msg.tc) ~from =
  if Node_id.equal origin t.ctx.id then ()
  else if Routing.Rreq_cache.mem t.dups ~origin ~rreq_id:msg_seq then ()
  else begin
    Routing.Rreq_cache.add t.dups ~origin ~rreq_id:msg_seq ();
    let from_link = Node_id.Table.find_opt t.links from in
    let from_sym =
      match from_link with Some l -> l.sym && live_link t l | None -> false
    in
    if from_sym then begin
      (match Node_id.Table.find_opt t.topology tc.tc_origin with
      | Some entry ->
          if tc.ansn >= entry.ansn then begin
            entry.ansn <- tc.ansn;
            entry.advertised <- tc.advertised;
            entry.t_expires <- Time.add (now t) topology_hold;
            t.routes_dirty <- true
          end
      | None ->
          Node_id.Table.replace t.topology tc.tc_origin
            {
              ansn = tc.ansn;
              advertised = tc.advertised;
              t_expires = Time.add (now t) topology_hold;
            };
          t.routes_dirty <- true);
      (* MPR flooding: only the sender's chosen relays re-broadcast. *)
      let i_am_relay =
        match from_link with Some l -> l.chose_me | None -> false
      in
      if i_am_relay && ttl > 1 then
        send_control t
          (Olsr_msg.Tc { origin; msg_seq; ttl = ttl - 1; tc })
    end
  end

(* ---- Data plane ----------------------------------------------------------- *)

(* Send the copy [account msg] toward [msg]'s destination: [Data_msg.hop]
   at the origin, [Data_msg.relay] at a relay. *)
let forward_data t msg ~account =
  match route_lookup t msg.Data_msg.dst with
  | Some (nh, _) ->
      t.ctx.send ~dst:(Net.Frame.unicast nh) (Payload.Data (account msg))
  | None -> t.ctx.drop_data msg ~reason:"no-route"

let origin_data t msg =
  if Node_id.equal msg.Data_msg.dst t.ctx.id then t.ctx.deliver msg
  else forward_data t msg ~account:Data_msg.hop

let handle_data t msg =
  if Node_id.equal msg.Data_msg.dst t.ctx.id then t.ctx.deliver msg
  else if msg.Data_msg.ttl <= 1 then t.ctx.drop_data msg ~reason:"ttl-expired"
  else forward_data t msg ~account:Data_msg.relay

let link_failure t payload ~next_hop =
  (* Link-layer feedback accelerates what missed HELLOs would conclude. *)
  (match Node_id.Table.find_opt t.links next_hop with
  | Some l ->
      l.sym <- false;
      l.l_expires <- Time.zero;
      t.routes_dirty <- true;
      t.ctx.table_changed ()
  | None -> ());
  match payload with
  | Payload.Data msg -> (
      (* One immediate re-route attempt over the updated table. *)
      match route_lookup t msg.Data_msg.dst with
      | Some (nh, _) when not (Node_id.equal nh next_hop) ->
          t.ctx.send ~dst:(Net.Frame.unicast nh) (Payload.Data (Data_msg.hop msg))
      | Some _ | None -> t.ctx.drop_data msg ~reason:"link-failure")
  | Payload.Ldr _ | Payload.Aodv _ | Payload.Dsr _ | Payload.Olsr _ -> ()

(* ---- Wiring ---------------------------------------------------------------- *)

let recv t payload ~from =
  match payload with
  | Payload.Data msg -> handle_data t msg
  | Payload.Olsr (Olsr_msg.Hello h) ->
      handle_hello t h ~from;
      t.ctx.table_changed ()
  | Payload.Olsr (Olsr_msg.Tc { origin; msg_seq; ttl; tc }) ->
      handle_tc t ~origin ~msg_seq ~ttl ~tc ~from;
      t.ctx.table_changed ()
  | Payload.Ldr _ | Payload.Aodv _ | Payload.Dsr _ -> ()

let start t () =
  let jitter () = Rng.uniform_time t.ctx.rng (Time.ms 100.) in
  let horizon = Time.sec 1e6 in
  (* Staggered starts decorrelate the nodes' periodic emissions. *)
  Engine.every t.ctx.engine ~jitter
    ~start:(Rng.uniform_time t.ctx.rng hello_interval)
    ~interval:hello_interval ~until:horizon
    (fun () -> emit_hello t);
  Engine.every t.ctx.engine ~jitter
    ~start:(Rng.uniform_time t.ctx.rng tc_interval)
    ~interval:tc_interval ~until:horizon
    (fun () -> emit_tc t)

(* Churn teardown (Agent.reset): drop the whole link-state view.  The
   jitter queue is emptied but [draining] is left alone — an armed drain
   event finds an empty queue and stops.  A crash also resets ANSN and
   the message sequence, as both live in volatile memory. *)
let reset t ~crash =
  Node_id.Table.reset t.links;
  Node_id.Table.reset t.topology;
  Routing.Rreq_cache.clear t.dups;
  t.mprs <- Node_id.Set.empty;
  t.routes <- Node_id.Map.empty;
  t.routes_dirty <- true;
  Queue.clear t.queue.jq;
  t.ctx.table_changed ();
  if crash then begin
    t.ansn <- 0;
    t.msg_seq <- 0
  end

let factory (ctx : RA.ctx) =
  let t =
    {
      ctx;
      links = Node_id.Table.create 32;
      topology = Node_id.Table.create 64;
      dups = Routing.Rreq_cache.create ~engine:ctx.engine ~ttl:dup_hold;
      mprs = Node_id.Set.empty;
      ansn = 0;
      msg_seq = 0;
      routes = Node_id.Map.empty;
      routes_dirty = true;
      queue = jq_create ();
    }
  in
  {
    RA.null with
    origin_data = (fun msg -> origin_data t msg);
    recv = (fun payload ~from -> recv t payload ~from);
    link_failure = (fun payload ~next_hop -> link_failure t payload ~next_hop);
    start = start t;
    successor =
      (fun dst ->
        if Node_id.equal dst ctx.id then None
        else Option.map fst (route_lookup t dst));
    route_stats = (fun () -> (Node_id.Map.cardinal t.routes, 0, 0));
    reset = (fun ~crash -> reset t ~crash);
  }
