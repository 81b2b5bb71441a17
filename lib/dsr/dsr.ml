open Sim
open Packets
module RA = Routing.Agent
module Route_cache = Route_cache

let name = "dsr"

type config = { reply_from_cache : bool }

let default_config = { reply_from_cache = true }

let cache_capacity = 64
let cache_ttl = Time.sec 300.
let nonprop_timeout = Time.ms 100.  (* wait after the TTL-1 request *)
let flood_timeout = Time.ms 500.  (* base timeout, doubled per retry *)
let max_flood_attempts = 4
let flood_jitter = Time.ms 10.
let max_salvage = 3

type state = {
  ctx : RA.ctx;
  cfg : config;
  cache : Route_cache.t;
  seen : unit Routing.Rreq_cache.t;  (** RREQ duplicate table *)
  shortened : unit Routing.Rreq_cache.t;
      (** gratuitous-RREP rate limiting, keyed (source, destination) *)
  discovery : Node_id.t list Routing.Discovery.t Lazy.t;
}

let discovery t = Lazy.force t.discovery

let send_dsr t ~dst msg = t.ctx.send ~dst (Payload.Dsr msg)

(* ---- Sending data over a source route ---------------------------------- *)

let send_data_via t hops (data : Data_msg.t) ~salvage =
  match hops with
  | [] -> t.ctx.deliver data
  | next :: rest ->
      let full_route = t.ctx.id :: hops in
      send_dsr t
        ~dst:(Net.Frame.Unicast next)
        (Dsr_msg.Data
           { sr_remaining = rest; full_route; data = Data_msg.hop data; salvage })

(* ---- Route discovery --------------------------------------------------- *)

(* One non-propagating TTL-1 request, then network-wide floods with
   exponential request backoff. *)
let schedule =
  let flood i =
    {
      Routing.Discovery.ttl = Routing.Discovery.net_diameter;
      timeout = Time.mul flood_timeout (1 lsl i);
    }
  in
  Seq.cons
    { Routing.Discovery.ttl = 1; timeout = nonprop_timeout }
    (Seq.init max_flood_attempts flood)

let send_rreq t ~dst ~ttl ~rreq_id =
  send_dsr t ~dst:Net.Frame.Broadcast
    (Dsr_msg.Rreq { Dsr_msg.origin = t.ctx.id; dst; rreq_id; route = []; ttl })

(* ---- Data plane -------------------------------------------------------- *)

let handle_data t ~sr_remaining ~full_route ~data ~salvage =
  (* Forwarding is purely header-driven; caches also learn the route the
     packet is following. *)
  Route_cache.add_path t.cache full_route;
  match sr_remaining with
  | [] ->
      if Node_id.equal data.Data_msg.dst t.ctx.id then t.ctx.deliver data
      else t.ctx.drop_data data ~reason:"misrouted"
  | next :: rest ->
      send_dsr t
        ~dst:(Net.Frame.Unicast next)
        (Dsr_msg.Data
           { sr_remaining = rest; full_route; data = Data_msg.hop data; salvage })

(* ---- RREQ / RREP ------------------------------------------------------- *)

let reverse_path_to_origin (r : Dsr_msg.rreq) =
  (* Path the reply retraces: last relay first, origin last. *)
  List.rev (r.origin :: r.route)

(* Answer [r] with [full_route], retracing the request's path. *)
let send_rrep t (r : Dsr_msg.rreq) full_route =
  match reverse_path_to_origin r with
  | [] -> assert false (* the path always ends at the origin *)
  | next :: rest ->
      t.ctx.event "rrep_init";
      send_dsr t ~dst:(Net.Frame.Unicast next)
        (Dsr_msg.Rrep
           {
             sr_remaining = rest;
             rrep = { Dsr_msg.origin = r.origin; dst = r.dst; full_route };
           })

(* [List.exists (Node_id.equal self)], without the partial application. *)
let rec on_route self = function
  | [] -> false
  | n :: rest -> Node_id.equal n self || on_route self rest

let handle_rreq t (r : Dsr_msg.rreq) =
  let self = t.ctx.id in
  if Node_id.equal r.origin self then ()
  else if on_route self r.route then ()
  else if Routing.Rreq_cache.mem t.seen ~origin:r.origin ~rreq_id:r.rreq_id
  then ()
  else begin
    Routing.Rreq_cache.add t.seen ~origin:r.origin ~rreq_id:r.rreq_id ();
    (* Links are symmetric, so the accumulated route read backwards is a
       route to the origin. *)
    Route_cache.add_path t.cache (self :: reverse_path_to_origin r);
    if Node_id.equal r.dst self then
      send_rrep t r ((r.origin :: r.route) @ [ self ])
    else begin
      let cached =
        if t.cfg.reply_from_cache then Route_cache.find t.cache ~dst:r.dst
        else None
      in
      match cached with
      | Some hops
        when Route_cache.distinct ((r.origin :: r.route) @ (self :: hops)) ->
          (* Reply from cache: splice our cached suffix onto the
             accumulated prefix, provided the result is loop-free. *)
          send_rrep t r ((r.origin :: r.route) @ (self :: hops))
      | Some _ | None ->
          if r.ttl > 1 then begin
            let relayed =
              { r with Dsr_msg.route = r.route @ [ self ]; ttl = r.ttl - 1 }
            in
            let delay = Rng.uniform_time t.ctx.rng flood_jitter in
            ignore
              (Engine.after t.ctx.engine delay (fun () ->
                   send_dsr t ~dst:Net.Frame.Broadcast (Dsr_msg.Rreq relayed)))
          end
    end
  end

let handle_rrep t ~sr_remaining ~(rrep : Dsr_msg.rrep) =
  Route_cache.add_path t.cache rrep.full_route;
  if Node_id.equal rrep.origin t.ctx.id then begin
    t.ctx.event "rrep_usable_recv";
    Routing.Discovery.settle (discovery t) rrep.dst
  end
  else
    match sr_remaining with
    | [] -> () (* misdelivered *)
    | next :: rest ->
        t.ctx.event "rrep_usable_recv";
        send_dsr t ~dst:(Net.Frame.Unicast next)
          (Dsr_msg.Rrep { sr_remaining = rest; rrep })

(* ---- Route errors and salvaging ---------------------------------------- *)

let handle_rerr t ~sr_remaining ~(rerr : Dsr_msg.rerr) =
  Route_cache.remove_link t.cache rerr.broken_from rerr.broken_to;
  if not (Node_id.equal rerr.err_dst t.ctx.id) then
    match sr_remaining with
    | [] -> ()
    | next :: rest ->
        send_dsr t ~dst:(Net.Frame.Unicast next)
          (Dsr_msg.Rerr { sr_remaining = rest; rerr })

let send_rerr t ~(data : Data_msg.t) ~full_route ~broken_to =
  (* Route the error back over the prefix this packet already crossed. *)
  let rec prefix_before acc = function
    | [] -> None
    | x :: _ when Node_id.equal x t.ctx.id -> Some acc
    | x :: rest -> prefix_before (x :: acc) rest
  in
  match prefix_before [] full_route with
  | None | Some [] -> () (* we are the source; nothing to send *)
  | Some (next :: rest) ->
      let rerr =
        {
          Dsr_msg.err_from = t.ctx.id;
          broken_from = t.ctx.id;
          broken_to;
          err_dst = data.Data_msg.src;
        }
      in
      send_dsr t ~dst:(Net.Frame.Unicast next)
        (Dsr_msg.Rerr { sr_remaining = rest; rerr })

let link_failure t payload ~next_hop =
  Route_cache.remove_link t.cache t.ctx.id next_hop;
  match payload with
  | Payload.Dsr (Dsr_msg.Data { full_route; data; salvage; _ }) -> (
      send_rerr t ~data ~full_route ~broken_to:next_hop;
      (* Salvage: an intermediate node with another cached route may
         re-source-route the packet itself. *)
      match Route_cache.find t.cache ~dst:data.Data_msg.dst with
      | Some hops when salvage < max_salvage ->
          send_data_via t hops data ~salvage:(salvage + 1)
      | Some _ | None -> Routing.Discovery.rescue (discovery t) data)
  | Payload.Dsr _ | Payload.Data _ | Payload.Ldr _ | Payload.Aodv _
  | Payload.Olsr _ ->
      ()

(* ---- Wiring ------------------------------------------------------------ *)

let recv t payload ~from:_ =
  match payload with
  | Payload.Dsr (Dsr_msg.Rreq r) -> handle_rreq t r
  | Payload.Dsr (Dsr_msg.Rrep { sr_remaining; rrep }) ->
      handle_rrep t ~sr_remaining ~rrep
  | Payload.Dsr (Dsr_msg.Rerr { sr_remaining; rerr }) ->
      handle_rerr t ~sr_remaining ~rerr
  | Payload.Dsr (Dsr_msg.Data { sr_remaining; full_route; data; salvage }) ->
      handle_data t ~sr_remaining ~full_route ~data ~salvage
  | Payload.Data _ | Payload.Ldr _ | Payload.Aodv _ | Payload.Olsr _ -> ()

(* Split a route at the first occurrence of [x]: (prefix incl. x, rest). *)
let split_at x route =
  let rec go acc = function
    | [] -> None
    | y :: rest when Node_id.equal y x -> Some (List.rev (y :: acc), rest)
    | y :: rest -> go (y :: acc) rest
  in
  go [] route

(* Automatic route shortening: we overheard [from] transmitting a packet
   whose remaining route reaches us only through intermediate hops — but
   we just proved we hear [from] directly.  Tell the source. *)
let maybe_shorten t ~from ~full_route ~sr_remaining (data : Data_msg.t) =
  if
    on_route t.ctx.id sr_remaining
    && not
         (Routing.Rreq_cache.mem t.shortened ~origin:data.Data_msg.src
            ~rreq_id:(Node_id.to_int data.Data_msg.dst))
  then
    match split_at from full_route with
    | None -> ()
    | Some (prefix, after_from) -> (
        match split_at t.ctx.id after_from with
        | None -> ()
        | Some (skipped_and_self, after_self) ->
            (* Only worth reporting if at least one hop is skipped. *)
            if List.length skipped_and_self >= 2 then begin
              Routing.Rreq_cache.add t.shortened ~origin:data.Data_msg.src
                ~rreq_id:(Node_id.to_int data.Data_msg.dst) ();
              let shortened = prefix @ (t.ctx.id :: after_self) in
              (* Route the gratuitous reply back over the transmitter. *)
              let sr = List.rev prefix in
              match sr with
              | [] -> ()
              | _ ->
                  t.ctx.event "rrep_init";
                  send_dsr t
                    ~dst:(Net.Frame.Unicast (List.hd sr))
                    (Dsr_msg.Rrep
                       {
                         sr_remaining = List.tl sr;
                         rrep =
                           {
                             Dsr_msg.origin = data.Data_msg.src;
                             dst = data.Data_msg.dst;
                             full_route = shortened;
                           };
                       })
            end)

let overheard t payload ~from ~dst:_ =
  (* Promiscuous snooping on source routes. *)
  match payload with
  | Payload.Dsr (Dsr_msg.Data { full_route; sr_remaining; data; _ }) ->
      Route_cache.add_path t.cache full_route;
      maybe_shorten t ~from ~full_route ~sr_remaining data
  | Payload.Dsr (Dsr_msg.Rrep { rrep; _ }) ->
      Route_cache.add_path t.cache rrep.full_route
  | Payload.Dsr _ | Payload.Data _ | Payload.Ldr _ | Payload.Aodv _
  | Payload.Olsr _ ->
      ()

(* Churn teardown (Agent.reset).  DSR keeps no sequence numbers, so
   crash and graceful leave tear down the same volatile state: cached
   source routes, duplicate tables, buffered data, pending
   discoveries.  The RREQ-id counter survives either way. *)
let reset t ~crash:_ =
  Routing.Discovery.reset (discovery t) ~crash:false;
  Route_cache.clear t.cache;
  Routing.Rreq_cache.clear t.seen;
  Routing.Rreq_cache.clear t.shortened

let factory ?(config = default_config) () (ctx : RA.ctx) =
  let rec t =
    {
      ctx;
      cfg = config;
      cache =
        Route_cache.create ~engine:ctx.engine ~owner:ctx.id
          ~capacity:cache_capacity ~ttl:cache_ttl;
      seen = Routing.Rreq_cache.create ~engine:ctx.engine ~ttl:(Time.sec 30.);
      shortened = Routing.Rreq_cache.create ~engine:ctx.engine ~ttl:(Time.sec 1.);
      discovery =
        lazy
          (Routing.Discovery.create ctx
             ~capacity:Routing.Discovery.buffer_capacity
             ~max_age:Routing.Discovery.buffer_max_age
             ~schedule:(fun _ -> schedule)
             ~route:(fun dst -> Route_cache.find t.cache ~dst)
             ~forward:(fun hops msg -> send_data_via t hops msg ~salvage:0)
             ~send_rreq:(send_rreq t));
    }
  in
  {
    RA.null with
    origin_data = (fun msg -> Routing.Discovery.originate (discovery t) msg);
    recv = (fun payload ~from -> recv t payload ~from);
    overheard = (fun payload ~from ~dst -> overheard t payload ~from ~dst);
    link_failure = (fun payload ~next_hop -> link_failure t payload ~next_hop);
    reset = (fun ~crash -> reset t ~crash);
  }
