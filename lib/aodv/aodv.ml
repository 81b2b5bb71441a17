open Sim
open Packets
module RA = Routing.Agent

type config = { ring : Routing.Discovery.ring; flood_jitter : Time.t }

let default_config =
  { ring = Routing.Discovery.default; flood_jitter = Time.ms 10. }

(* RFC 3561 ACTIVE_ROUTE_TIMEOUT and MY_ROUTE_TIMEOUT. *)
let active_route_timeout = Time.sec 3.
let my_route_timeout = Time.sec 6.
let rreq_cache_ttl = Time.sec 6.

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
}

let discovery t = Lazy.force t.discovery

let now t = Engine.now t.ctx.engine

(* Raises [Not_found]: a lookup allocates no option. *)
let get t dst = Node_id.Table.find t.table dst

let next_is (r : route) n =
  match r.next_hop with Some h -> Node_id.equal h n | None -> false

let is_valid t (r : route) = r.next_hop <> None && Time.(r.expires > now t)

let valid_entry t dst =
  match get t dst with
  | r when is_valid t r -> Some r
  | _ | (exception Not_found) -> None

let known_sn t dst = match get t dst with r -> r.sn | exception Not_found -> None

let refresh t (r : route) =
  let candidate = Time.add (now t) active_route_timeout in
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
    match get t dst with
    | exception Not_found ->
        let r = { sn = Some sn; hops; next_hop = None; expires = Time.zero } in
        Node_id.Table.replace t.table dst r;
        install r
    | r -> (
        match r.sn with
        | Some stored when sn < stored -> false
        | Some stored when sn = stored ->
            if (not (is_valid t r)) || hops < r.hops then install r
            else if next_is r via && hops = r.hops then begin
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
       ~lifetime:active_route_timeout)

let send_aodv t ~dst msg = t.ctx.send ~dst (Payload.Aodv msg)

let broadcast_rerr t unreachable =
  if unreachable <> [] then
    send_aodv t ~dst:Net.Frame.broadcast (Aodv_msg.Rerr { unreachable })

(* Send [msg], already accounted for this hop, along the valid route
   [r]. *)
let send_data t (r : route) msg =
  match r.next_hop with
  | None -> assert false
  | Some nh ->
      refresh t r;
      t.ctx.send ~dst:(Net.Frame.unicast nh) (Payload.Data msg)

let forward_data t r msg = send_data t r (Data_msg.hop msg)

(* ---- Route discovery --------------------------------------------------- *)

let send_rreq t ~dst ~ttl ~rreq_id =
  (* RFC 6.1: originator increments its own sequence number before every
     route discovery. *)
  t.own_sn <- t.own_sn + 1;
  let dst_sn = known_sn t dst in
  send_aodv t ~dst:Net.Frame.broadcast
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

let handle_data t msg =
  if Node_id.equal msg.Data_msg.dst t.ctx.id then t.ctx.deliver msg
  else if msg.Data_msg.ttl <= 1 then t.ctx.drop_data msg ~reason:"ttl-expired"
  else
    match get t msg.Data_msg.dst with
    | r when is_valid t r -> send_data t r (Data_msg.relay msg)
    | _ | (exception Not_found) ->
        t.ctx.drop_data msg ~reason:"no-route";
        let sn =
          match known_sn t msg.Data_msg.dst with Some s -> s + 1 | None -> 1
        in
        broadcast_rerr t [ (msg.Data_msg.dst, sn) ]

(* ---- RREQ / RREP ------------------------------------------------------- *)

let send_rrep t ~to_ rrep =
  t.ctx.event "rrep_init";
  send_aodv t ~dst:(Net.Frame.unicast to_) (Aodv_msg.Rrep rrep)

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
          lifetime = my_route_timeout;
        }
    end
    else begin
      match get t r.dst with
      | route
        when is_valid t route
             && (match route.sn with
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
      | _ | (exception Not_found) ->
          if r.ttl > 1 then begin
            (* RFC 6.5: a forwarding node advertises the freshest number
               it knows for the destination. *)
            let dst_sn =
              match (known_sn t r.dst, r.dst_sn) with
              | Some stored, Some want -> Some (Int.max stored want)
              | Some stored, None -> Some stored
              | None, want -> want
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
                   send_aodv t ~dst:Net.Frame.broadcast (Aodv_msg.Rreq relayed)))
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
    Lazy.is_val t.discovery
    && Routing.Discovery.pending (discovery t) r.dst
    && valid_entry t r.dst <> None
  then Routing.Discovery.settle (discovery t) r.dst;
  if not (Node_id.equal r.origin t.ctx.id) then begin
    (* Forward along the reverse route built by the RREQ. *)
    match get t r.origin with
    | { next_hop = Some nh; _ } as rev when is_valid t rev ->
        refresh t rev;
        send_aodv t ~dst:(Net.Frame.unicast nh)
          (Aodv_msg.Rrep { r with hop_count = r.hop_count + 1 })
    | _ | (exception Not_found) -> ()
  end

(* ---- Route maintenance ------------------------------------------------- *)

(* Invalidate all routes over a dead link and bump their stored numbers —
   the AODV behaviour that inflates sequence numbers under mobility. *)
let invalidate_via t neighbor =
  Node_id.Table.fold
    (fun dst (r : route) acc ->
      if next_is r neighbor then begin
        r.next_hop <- None;
        r.sn <- Some (match r.sn with Some s -> s + 1 | None -> 1);
        (dst, Option.get r.sn) :: acc
      end
      else acc)
    t.table []

(* The entries of a RERR from [from] whose routes ran through it, each
   invalidated here with its number raised to the reported one. *)
let rec cascade t ~from = function
  | [] -> []
  | (dst, sn) :: rest -> (
      match get t dst with
      | r when next_is r from ->
          let sn = Int.max sn (match r.sn with Some s -> s | None -> 0) in
          r.next_hop <- None;
          r.sn <- Some sn;
          (dst, sn) :: cascade t ~from rest
      | _ | (exception Not_found) -> cascade t ~from rest)

let handle_rerr t unreachable ~from =
  let cascaded = cascade t ~from unreachable in
  if cascaded <> [] then begin
    t.ctx.table_changed ();
    broadcast_rerr t cascaded
  end

let link_failure t payload ~next_hop =
  let affected = invalidate_via t next_hop in
  if affected <> [] then t.ctx.table_changed ();
  (match payload with
  | Payload.Data msg -> Routing.Discovery.rescue (discovery t) msg
  | Payload.Ldr _ | Payload.Aodv _ | Payload.Dsr _ | Payload.Olsr _ -> ());
  broadcast_rerr t affected

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
  | Payload.Aodv (Aodv_msg.Rrep r) -> handle_rrep t r ~from
  | Payload.Aodv (Aodv_msg.Rerr { unreachable }) ->
      handle_rerr t unreachable ~from
  | Payload.Ldr _ | Payload.Dsr _ | Payload.Olsr _ -> ()

(* Churn teardown (Agent.reset): AODV keeps its sequence number in
   volatile memory, so a crash reboots it at 0 — the classic stale-seqno
   loop stressor (van Glabbeek et al.). *)
let reset t ~crash =
  if Lazy.is_val t.discovery then Routing.Discovery.reset (discovery t) ~crash;
  Node_id.Table.reset t.table;
  Routing.Rreq_cache.clear t.cache;
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
          (Routing.Discovery.create ctx
             ~capacity:Routing.Discovery.buffer_capacity
             ~max_age:Routing.Discovery.buffer_max_age
             ~schedule:(fun _ -> schedule)
             ~route:(valid_entry t) ~forward:(forward_data t)
             ~send_rreq:(send_rreq t));
    }
  in
  {
    RA.null with
    origin_data = (fun msg -> Routing.Discovery.originate (discovery t) msg);
    recv = (fun payload ~from -> recv t payload ~from);
    link_failure = (fun payload ~next_hop -> link_failure t payload ~next_hop);
    successor =
      (fun dst ->
        if Node_id.equal dst ctx.id then None
        else
          match valid_entry t dst with Some r -> r.next_hop | None -> None);
    own_seqno = (fun () -> float_of_int t.own_sn);
    route_stats = (fun () -> (Node_id.Table.length t.table, 0, 0));
    reset = (fun ~crash -> reset t ~crash);
  }
