open Sim
open Packets
module RA = Routing.Agent

let name = "aodv"

type config = {
  use_hello : bool;
  active_route_timeout : Time.t;
  my_route_timeout : Time.t;
  ring : Routing.Discovery.ring;
  flood_jitter : Time.t;
  data_ttl : int;
}

let default_config =
  {
    use_hello = false;
    active_route_timeout = Time.sec 3.;
    my_route_timeout = Time.sec 6.;
    ring = Routing.Discovery.default;
    flood_jitter = Time.ms 10.;
    data_ttl = Data_msg.default_ttl;
  }

(* RFC 3561 HELLO_INTERVAL and ALLOWED_HELLO_LOSS. *)
let hello_interval = Time.sec 1.
let allowed_hello_loss = 2
let rreq_cache_ttl = Time.sec 6.
let buffer_capacity = 64

type route = {
  mutable sn : int option;  (** known destination sequence number *)
  mutable hops : int;
  mutable next_hop : Node_id.t option;  (** [None] = invalid *)
  mutable expires : Time.t;
}

type state = {
  ctx : RA.ctx;
  cfg : config;
  table : route Node_id.Table.t;
  cache : Node_id.t Routing.Rreq_cache.t;  (** value: reverse hop *)
  mutable own_sn : int;
  discovery : route Routing.Discovery.t Lazy.t;
  last_hello : Time.t Node_id.Table.t;  (** neighbor liveness (hello mode) *)
}

let discovery t = Lazy.force t.discovery

let now t = Engine.now t.ctx.engine

let entry t dst = Node_id.Table.find_opt t.table dst

let is_valid t (r : route) = r.next_hop <> None && Time.(r.expires > now t)

let valid_entry t dst =
  match entry t dst with Some r when is_valid t r -> Some r | _ -> None

let refresh t (r : route) =
  let candidate = Time.add (now t) t.cfg.active_route_timeout in
  if Time.(candidate > r.expires) then r.expires <- candidate

let remaining t (r : route) =
  if Time.(r.expires > now t) then Time.diff r.expires (now t) else Time.zero

let sn_ge a b = match b with None -> true | Some b -> a >= b

(* RFC 3561 route-update rule: accept when the number is newer, or equal
   with a better/replacement path, or nothing was known. *)
let update_route t ~dst ~sn ~hops ~via ~lifetime =
  if Node_id.equal dst t.ctx.id then false
  else begin
    let install (r : route) =
      r.sn <- Some sn;
      r.hops <- hops;
      r.next_hop <- Some via;
      r.expires <- Time.add (now t) lifetime;
      t.ctx.table_changed ();
      true
    in
    match entry t dst with
    | None ->
        let r = { sn = Some sn; hops; next_hop = None; expires = Time.zero } in
        Node_id.Table.replace t.table dst r;
        install r
    | Some r -> (
        match r.sn with
        | Some stored when sn < stored -> false
        | Some stored when sn = stored ->
            if (not (is_valid t r)) || hops < r.hops then install r
            else if r.next_hop = Some via && hops = r.hops then begin
              refresh t r;
              true
            end
            else false
        | Some _ | None -> install r)
  end

(* Reverse routes from RREQs: RFC 6.5 — always overwrite toward a fresher
   origin number or shorter same-number path. *)
let update_reverse t ~origin ~origin_sn ~hops ~via =
  ignore
    (update_route t ~dst:origin ~sn:origin_sn ~hops ~via
       ~lifetime:t.cfg.active_route_timeout)

let send_aodv t ~dst msg = t.ctx.send ~dst (Payload.Aodv msg)

let broadcast_rerr t unreachable =
  if unreachable <> [] then
    send_aodv t ~dst:Net.Frame.Broadcast (Aodv_msg.Rerr { unreachable })

let forward_data t (r : route) msg =
  match r.next_hop with
  | None -> assert false
  | Some nh ->
      refresh t r;
      t.ctx.send ~dst:(Net.Frame.Unicast nh) (Payload.Data (Data_msg.hop msg))

(* ---- Route discovery --------------------------------------------------- *)

let send_rreq t ~dst ~ttl ~rreq_id =
  (* RFC 6.1: originator increments its own sequence number before every
     route discovery. *)
  t.own_sn <- t.own_sn + 1;
  let dst_sn = match entry t dst with Some r -> r.sn | None -> None in
  send_aodv t ~dst:Net.Frame.Broadcast
    (Aodv_msg.Rreq
       {
         Aodv_msg.dst;
         dst_sn;
         rreq_id;
         origin = t.ctx.id;
         origin_sn = t.own_sn;
         hop_count = 0;
         ttl;
       })

(* ---- Data plane -------------------------------------------------------- *)

let origin_data t msg =
  if Node_id.equal msg.Data_msg.dst t.ctx.id then t.ctx.deliver msg
  else
    let msg = { msg with Data_msg.ttl = t.cfg.data_ttl } in
    match valid_entry t msg.Data_msg.dst with
    | Some r -> forward_data t r msg
    | None -> Routing.Discovery.hold (discovery t) msg

let handle_data t msg =
  if Node_id.equal msg.Data_msg.dst t.ctx.id then t.ctx.deliver msg
  else
    match Data_msg.decr_ttl msg with
    | None -> t.ctx.drop_data msg ~reason:"ttl-expired"
    | Some msg -> (
        match valid_entry t msg.Data_msg.dst with
        | Some r -> forward_data t r msg
        | None ->
            t.ctx.drop_data msg ~reason:"no-route";
            let sn =
              match entry t msg.Data_msg.dst with
              | Some { sn = Some s; _ } -> s + 1
              | Some { sn = None; _ } | None -> 1
            in
            broadcast_rerr t [ (msg.Data_msg.dst, sn) ])

(* ---- RREQ / RREP ------------------------------------------------------- *)

let send_rrep t ~to_ rrep =
  t.ctx.event "rrep_init";
  send_aodv t ~dst:(Net.Frame.Unicast to_) (Aodv_msg.Rrep rrep)

let handle_rreq t (r : Aodv_msg.rreq) ~from =
  if Node_id.equal r.origin t.ctx.id then ()
  else if Routing.Rreq_cache.mem t.cache ~origin:r.origin ~rreq_id:r.rreq_id
  then ()
  else begin
    Routing.Rreq_cache.add t.cache ~origin:r.origin ~rreq_id:r.rreq_id from;
    update_reverse t ~origin:r.origin ~origin_sn:r.origin_sn
      ~hops:(r.hop_count + 1) ~via:from;
    if Node_id.equal r.dst t.ctx.id then begin
      (* RFC 6.6.1: the destination bumps its number to at least the
         requested one (and past it when they are equal). *)
      (match r.dst_sn with
      | Some want when want >= t.own_sn -> t.own_sn <- want + 1
      | Some _ | None -> ());
      send_rrep t ~to_:from
        {
          Aodv_msg.dst = t.ctx.id;
          dst_sn = t.own_sn;
          origin = r.origin;
          hop_count = 0;
          lifetime = t.cfg.my_route_timeout;
        }
    end
    else begin
      match valid_entry t r.dst with
      | Some route
        when (match route.sn with
             | Some stored -> sn_ge stored r.dst_sn
             | None -> false) ->
          (* Intermediate reply: stored number is fresh enough. *)
          let stored_sn = Option.get route.sn in
          send_rrep t ~to_:from
            {
              Aodv_msg.dst = r.dst;
              dst_sn = stored_sn;
              origin = r.origin;
              hop_count = route.hops;
              lifetime = remaining t route;
            }
      | Some _ | None ->
          if r.ttl > 1 then begin
            (* RFC 6.5: a forwarding node advertises the freshest number
               it knows for the destination. *)
            let dst_sn =
              match (entry t r.dst, r.dst_sn) with
              | Some { sn = Some stored; _ }, Some want ->
                  Some (Stdlib.max stored want)
              | Some { sn = Some stored; _ }, None -> Some stored
              | _, want -> want
            in
            let relayed =
              {
                r with
                Aodv_msg.hop_count = r.hop_count + 1;
                ttl = r.ttl - 1;
                dst_sn;
              }
            in
            let delay = Rng.uniform_time t.ctx.rng t.cfg.flood_jitter in
            ignore
              (Engine.after t.ctx.engine delay (fun () ->
                   send_aodv t ~dst:Net.Frame.Broadcast (Aodv_msg.Rreq relayed)))
          end
    end
  end

let handle_rrep t (r : Aodv_msg.rrep) ~from =
  let accepted =
    update_route t ~dst:r.dst ~sn:r.dst_sn ~hops:(r.hop_count + 1) ~via:from
      ~lifetime:r.lifetime
  in
  if accepted then t.ctx.event "rrep_usable_recv";
  if
    Routing.Discovery.pending (discovery t) r.dst
    && valid_entry t r.dst <> None
  then Routing.Discovery.settle (discovery t) r.dst;
  if not (Node_id.equal r.origin t.ctx.id) then begin
    (* Forward along the reverse route built by the RREQ. *)
    match valid_entry t r.origin with
    | None -> ()
    | Some rev -> (
        match rev.next_hop with
        | None -> ()
        | Some nh ->
            refresh t rev;
            send_aodv t ~dst:(Net.Frame.Unicast nh)
              (Aodv_msg.Rrep { r with hop_count = r.hop_count + 1 }))
  end

(* ---- Route maintenance ------------------------------------------------- *)

(* Invalidate all routes over a dead link and bump their stored numbers —
   the AODV behaviour that inflates sequence numbers under mobility. *)
let invalidate_via t neighbor =
  Node_id.Table.fold
    (fun dst (r : route) acc ->
      if r.next_hop = Some neighbor then begin
        r.next_hop <- None;
        r.sn <- Some (match r.sn with Some s -> s + 1 | None -> 1);
        (dst, Option.get r.sn) :: acc
      end
      else acc)
    t.table []

let handle_rerr t unreachable ~from =
  let cascaded =
    List.filter_map
      (fun (dst, sn) ->
        match entry t dst with
        | Some r when r.next_hop = Some from ->
            r.next_hop <- None;
            r.sn <- Some (Stdlib.max sn (match r.sn with Some s -> s | None -> 0));
            Some (dst, Option.get r.sn)
        | Some _ | None -> None)
      unreachable
  in
  if cascaded <> [] then begin
    t.ctx.table_changed ();
    broadcast_rerr t cascaded
  end

let link_failure t payload ~next_hop =
  let affected = invalidate_via t next_hop in
  if affected <> [] then t.ctx.table_changed ();
  (match payload with
  | Payload.Data msg ->
      if Node_id.equal msg.Data_msg.src t.ctx.id then
        Routing.Discovery.hold (discovery t) msg
      else t.ctx.drop_data msg ~reason:"link-failure"
  | Payload.Ldr _ | Payload.Aodv _ | Payload.Dsr _ | Payload.Olsr _ -> ());
  broadcast_rerr t affected

(* ---- Hello messages (RFC 3561 6.9) -------------------------------------- *)

let is_hello (r : Aodv_msg.rrep) = Node_id.equal r.dst r.origin

let hello_lifetime = Time.mul hello_interval allowed_hello_loss

let has_active_route t =
  Node_id.Table.fold (fun _ r acc -> acc || is_valid t r) t.table false

let emit_hello t =
  if has_active_route t then
    send_aodv t ~dst:Net.Frame.Broadcast
      (Aodv_msg.Rrep
         {
           dst = t.ctx.id;
           dst_sn = t.own_sn;
           origin = t.ctx.id;
           hop_count = 0;
           lifetime = hello_lifetime;
         })

let handle_hello t (r : Aodv_msg.rrep) ~from =
  Node_id.Table.replace t.last_hello from (now t);
  ignore
    (update_route t ~dst:r.dst ~sn:r.dst_sn ~hops:1 ~via:from
       ~lifetime:r.lifetime);
  (* Keep an existing 1-hop route through this neighbor alive. *)
  match valid_entry t from with Some route -> refresh t route | None -> ()

let check_hello_timeouts t =
  let stale =
    Node_id.Table.fold
      (fun nb last acc ->
        if Time.(Time.add last hello_lifetime < now t) then nb :: acc else acc)
      t.last_hello []
  in
  List.iter
    (fun nb ->
      Node_id.Table.remove t.last_hello nb;
      let affected = invalidate_via t nb in
      if affected <> [] then begin
        t.ctx.table_changed ();
        broadcast_rerr t affected
      end)
    stale

(* ---- Wiring ------------------------------------------------------------ *)

let rec handle_rreqs t rs ~from =
  match rs with
  | [] -> ()
  | r :: rest ->
      handle_rreq t r ~from;
      handle_rreqs t rest ~from

let recv t payload ~from =
  match payload with
  | Payload.Data msg -> handle_data t msg
  | Payload.Aodv (Aodv_msg.Rreq r) -> handle_rreq t r ~from
  | Payload.Aodv (Aodv_msg.Rreq_agg rs) ->
      (* Aggregated flood: each member RREQ is its own computation. *)
      handle_rreqs t rs ~from
  | Payload.Aodv (Aodv_msg.Rrep r) when t.cfg.use_hello && is_hello r ->
      handle_hello t r ~from
  | Payload.Aodv (Aodv_msg.Rrep r) -> handle_rrep t r ~from
  | Payload.Aodv (Aodv_msg.Rerr { unreachable }) ->
      handle_rerr t unreachable ~from
  | Payload.Ldr _ | Payload.Dsr _ | Payload.Olsr _ -> ()

(* Churn teardown (Agent.reset): AODV keeps its sequence number in
   volatile memory, so a crash reboots it at 0 — the classic stale-seqno
   loop stressor (van Glabbeek et al.). *)
let reset t ~crash =
  Routing.Discovery.reset (discovery t) ~crash;
  Node_id.Table.reset t.table;
  Routing.Rreq_cache.clear t.cache;
  Node_id.Table.reset t.last_hello;
  t.ctx.table_changed ();
  if crash then t.own_sn <- 0

let factory ?(config = default_config) () (ctx : RA.ctx) =
  let schedule = Routing.Discovery.ring_attempts config.ring in
  let rec t =
    {
      ctx;
      cfg = config;
      table = Node_id.Table.create 32;
      cache =
        Routing.Rreq_cache.create ~engine:ctx.engine ~ttl:rreq_cache_ttl;
      own_sn = 0;
      discovery =
        lazy
          (Routing.Discovery.create ctx ~capacity:buffer_capacity
             ~max_age:Routing.Discovery.buffer_max_age
             ~schedule:(fun _ -> schedule)
             ~route:(valid_entry t) ~forward:(forward_data t)
             ~send_rreq:(send_rreq t));
      last_hello = Node_id.Table.create 16;
    }
  in
  {
    RA.origin_data = (fun msg -> origin_data t msg);
    recv = (fun payload ~from -> recv t payload ~from);
    overheard = (fun _ ~from:_ ~dst:_ -> ());
    link_failure = (fun payload ~next_hop -> link_failure t payload ~next_hop);
    start =
      (fun () ->
        if config.use_hello then
          Engine.every ctx.engine
            ~jitter:(fun () -> Rng.uniform_time ctx.rng (Time.ms 100.))
            ~start:(Rng.uniform_time ctx.rng hello_interval)
            ~interval:hello_interval ~until:(Time.sec 1e6)
            (fun () ->
              emit_hello t;
              check_hello_timeouts t));
    successor =
      (fun dst ->
        if Node_id.equal dst ctx.id then None
        else
          match valid_entry t dst with
          | Some r -> r.next_hop
          | None -> None);
    own_seqno = (fun () -> float_of_int t.own_sn);
    invariants = (fun _ -> None);
    route_stats = (fun () -> (Node_id.Table.length t.table, 0, 0));
    reset = (fun ~crash -> reset t ~crash);
  }
