open Sim
open Packets
module RA = Routing.Agent

let active_route_timeout = Time.sec 3.  (* route freshness window *)
let my_route_timeout = Time.sec 6.  (* lifetime advertised for oneself *)

(* How long engaged-state / duplicate entries persist. *)
let rreq_cache_ttl = Time.sec 6.

let reduced_distance_factor = 0.8  (* in the paper *)
let min_lifetime = Time.scale active_route_timeout (1. /. 3.)
let local_add_ttl = 2

type state = {
  ctx : RA.ctx;
  cfg : Config.t;
  broadcast : Payload.t -> unit;
      (* [ctx.send] to everyone, bound once: the deferred flood relay
         schedules it with its payload, allocating no closure *)
  table : Route_table.t;
  engaged : Node_id.t Routing.Rreq_cache.t;
      (* per computation (origin, rreq_id) this node is engaged in: the
         reverse hop for its replies *)
  mutable forwarded : (Seqnum.t * int) Routing.Rreq_cache.t option;
      (* per engaged computation: the strongest (sn, dist) advertisement
         relayed for it.  Built at the first reply this node relays or
         sends: a node set up allocates nothing for it. *)
  mutable own_sn : Seqnum.t;
  mutable own_increments : int;
  discovery : Route_table.entry Routing.Discovery.t Lazy.t;
      (* Procedure 1 at the computation origin *)
}

let discovery t = Lazy.force t.discovery

let forwarded t =
  match t.forwarded with
  | Some c -> c
  | None ->
      let c =
        Routing.Rreq_cache.create ~engine:t.ctx.engine ~ttl:rreq_cache_ttl
      in
      t.forwarded <- Some c;
      c

let now (t : state) = Engine.now t.ctx.engine
let clock_stamp t = int_of_float (Time.to_sec (now t))

let increment_own t =
  let now_stamp = Int.max (clock_stamp t) (t.own_sn.Seqnum.stamp + 1) in
  t.own_sn <-
    Seqnum.increment ~counter_limit:t.cfg.seqnum_counter_limit ~now_stamp
      t.own_sn;
  t.own_increments <- t.own_increments + 1

(* The reduced-distance optimization: any answering bound no greater than
   the feasible distance is sound; the paper uses floor(0.8 fd), min 1. *)
let reduce t d =
  if t.cfg.opt_reduced_distance && d < Conditions.infinity then
    Int.max 1 (int_of_float (reduced_distance_factor *. float_of_int d))
  else d

(* Can this node's route answer, given the minimum-lifetime rule? *)
let answerable t e =
  Route_table.is_active t.table e
  && not
       (t.cfg.opt_min_lifetime
       && Time.(Route_table.remaining_lifetime t.table e < min_lifetime))

let has_active_route t dst =
  match Route_table.get t.table dst with
  | e -> Route_table.is_active t.table e
  | exception Not_found -> false

(* The number a RERR reports for [dst]: the entry's, if there is one. *)
let sn_of t dst =
  match Route_table.get t.table dst with
  | e -> Some e.Route_table.sn
  | exception Not_found -> None

let send_ldr t ~dst msg = t.ctx.send ~dst (Payload.Ldr msg)

let broadcast_rerr t unreachable =
  if unreachable <> [] then
    send_ldr t ~dst:Net.Frame.broadcast (Ldr_msg.Rerr { unreachable })

(* Learn from the advertisement part of a message; returns whether the
   route is now active. *)
let learn_advert t ~dst ~adv_sn ~adv_dist ~via ~lifetime =
  if Node_id.equal dst t.ctx.id then `Refreshed
  else begin
    let verdict =
      Route_table.apply_advert t.table ~dst ~adv_sn ~adv_dist ~via ~lifetime
    in
    (match verdict with
    | `Installed -> t.ctx.table_changed ()
    | `Refreshed | `Rejected -> ());
    verdict
  end

(* Send [msg], already accounted for this hop, along the active route
   [e]. *)
let send_data t (e : Route_table.entry) msg =
  match e.next_hop with
  | None -> assert false
  | Some nh ->
      Route_table.refresh t.table e ~lifetime:active_route_timeout;
      t.ctx.send ~dst:(Net.Frame.unicast nh) (Payload.Data msg)

(* Origination and rescue: the hop budget is not spent here. *)
let forward_data t e msg = send_data t e (Data_msg.hop msg)

(* ---- Procedure 1: initiate solicitation ------------------------------ *)

(* The RFC 3561 ring; with the optimal-TTL optimization and a known
   distance it starts at TTL = D - FD + LOCAL_ADD_TTL. *)
let ring_schedule t dst =
  let first =
    match Route_table.find t.table dst with
    | Some e when t.cfg.opt_optimal_ttl && e.dist < Conditions.infinity ->
        Int.min Routing.Discovery.net_diameter
          (Int.max Routing.Discovery.ttl_start
             (e.dist - reduce t e.fd + local_add_ttl))
    | Some _ | None -> Routing.Discovery.ttl_start
  in
  Routing.Discovery.ring_attempts t.cfg.ring ~first

let send_rreq t ~dst ~ttl ~rreq_id =
  let dst_sn, fd =
    match Route_table.find t.table dst with
    | None -> (None, Conditions.infinity)
    | Some e -> (Some e.sn, e.fd)
  in
  send_ldr t ~dst:Net.Frame.broadcast
    (Ldr_msg.Rreq
       {
         Ldr_msg.dst;
         dst_sn;
         rreq_id;
         origin = t.ctx.id;
         origin_sn = t.own_sn;
         fd;
         answer_dist = reduce t fd;
         dist = 0;
         ttl;
         reset = false;
         no_reverse = false;
         unicast_probe = false;
       })

(* ---- Data plane ------------------------------------------------------- *)

let handle_data t msg ~from:_ =
  if Node_id.equal msg.Data_msg.dst t.ctx.id then t.ctx.deliver msg
  else if msg.Data_msg.ttl <= 1 then t.ctx.drop_data msg ~reason:"ttl-expired"
  else
    match Route_table.get t.table msg.Data_msg.dst with
    | e when Route_table.is_active t.table e ->
        send_data t e (Data_msg.relay msg)
    | _ | (exception Not_found) ->
        (* Mid-path with no route: shed the packet and warn upstream. *)
        t.ctx.drop_data msg ~reason:"no-route";
        broadcast_rerr t [ (msg.Data_msg.dst, sn_of t msg.Data_msg.dst) ]

(* ---- Procedure 2: relay solicitation (Eqs. 5-8) ----------------------- *)

(* The solicitation this node relays: [r] with this node's stored
   invariants folded in and its measured distance one hop longer, built
   in one allocation. *)
let relayed t (r : Ldr_msg.rreq) ~ttl ~no_reverse ~unicast_probe =
  let dist = r.dist + 1 in
  match Route_table.get t.table r.dst with
  | exception Not_found -> { r with dist; ttl; no_reverse; unicast_probe }
  | e ->
      if Conditions.sn_gt_opt e.sn r.dst_sn then
        (* Eq 5 raises the number, Eq 6 takes our fd, Eq 8 clears T: any
           reply now acts as a path reset. *)
        {
          r with
          dist;
          ttl;
          no_reverse;
          unicast_probe;
          dst_sn = Some e.sn;
          fd = e.fd;
          answer_dist = reduce t e.fd;
          reset = false;
        }
      else if Conditions.sn_eq_opt e.sn r.dst_sn then
        (* Eq 6 running minimum; Eq 8: T set unless we satisfy FDC. *)
        {
          r with
          dist;
          ttl;
          no_reverse;
          unicast_probe;
          fd = Int.min e.fd r.fd;
          answer_dist = Int.min r.answer_dist (reduce t e.fd);
          reset = (if e.fd < r.fd then r.reset else true);
        }
      else
        (* Our number is stale: no constraint on the requested one. *)
        { r with dist; ttl; no_reverse; unicast_probe }

let destination_reply t (r : Ldr_msg.rreq) ~last_hop =
  (* Only the destination may raise its own number (the reset). *)
  if r.reset && not (Conditions.sn_gt_opt t.own_sn r.dst_sn) then
    increment_own t;
  let rrep =
    {
      Ldr_msg.dst = t.ctx.id;
      dst_sn = t.own_sn;
      origin = r.origin;
      rreq_id = r.rreq_id;
      dist = 0;
      lifetime = my_route_timeout;
      rrep_no_reverse = r.no_reverse;
    }
  in
  t.ctx.event ~dst:t.ctx.id "rrep_init";
  send_ldr t ~dst:(Net.Frame.unicast last_hop) (Ldr_msg.Rrep rrep)

let intermediate_reply t (e : Route_table.entry) (r : Ldr_msg.rreq) ~last_hop =
  let rrep =
    {
      Ldr_msg.dst = r.dst;
      dst_sn = e.sn;
      origin = r.origin;
      rreq_id = r.rreq_id;
      dist = e.dist;
      lifetime = Route_table.remaining_lifetime t.table e;
      rrep_no_reverse = r.no_reverse;
    }
  in
  t.ctx.event ~dst:r.dst "rrep_init";
  Routing.Rreq_cache.add (forwarded t) ~origin:r.origin ~rreq_id:r.rreq_id
    (e.sn, e.dist);
  send_ldr t ~dst:(Net.Frame.unicast last_hop) (Ldr_msg.Rrep rrep)

(* Convert the flood into a unicast RREQ that must reach the destination
   (the T-bit reset path), or continue an existing unicast probe. *)
let forward_unicast_probe t (e : Route_table.entry) (r : Ldr_msg.rreq) =
  match e.next_hop with
  | None -> assert false
  | Some nh ->
      let ttl =
        (* Must be able to reach the destination even if the ring search
           would have died out (Section 2.2). *)
        Int.max (r.ttl - 1) (e.dist + local_add_ttl)
      in
      send_ldr t ~dst:(Net.Frame.unicast nh)
        (Ldr_msg.Rreq
           (relayed t r ~ttl ~no_reverse:r.no_reverse ~unicast_probe:true))

let relay_broadcast t (r : Ldr_msg.rreq) ~reverse_ok =
  if r.ttl > 1 then begin
    let payload =
      Payload.Ldr
        (Ldr_msg.Rreq
           (relayed t r ~ttl:(r.ttl - 1)
              ~no_reverse:(r.no_reverse || not reverse_ok)
              ~unicast_probe:r.unicast_probe))
    in
    (* Per-hop rebroadcast jitter decorrelates the flood. *)
    let delay = Rng.uniform_time t.ctx.rng t.cfg.flood_jitter in
    ignore (Engine.after_fn t.ctx.engine delay t.broadcast payload)
  end

let request_as_error t (r : Ldr_msg.rreq) ~from =
  (* Our next hop toward D is asking for D: it must have lost its route,
     or it would have answered (its distance is ours minus one). *)
  match Route_table.get t.table r.dst with
  | e
    when Route_table.is_active t.table e
         && (match e.next_hop with
            | Some nh -> Node_id.equal nh from
            | None -> false)
         && Conditions.sn_ge_opt e.sn r.dst_sn
         && r.answer_dist > e.dist - 1 ->
      Route_table.invalidate t.table r.dst;
      t.ctx.table_changed ()
  | _ | (exception Not_found) -> ()

let handle_rreq t (r : Ldr_msg.rreq) ~from =
  if Node_id.equal r.origin t.ctx.id then ()
  else if Routing.Rreq_cache.mem t.engaged ~origin:r.origin ~rreq_id:r.rreq_id
  then () (* not passive for this computation: silently ignore *)
  else begin
    (* Become engaged; remember the reverse hop for the reply path, and
       forget any reply relayed while engaged in it before. *)
    Routing.Rreq_cache.add t.engaged ~origin:r.origin ~rreq_id:r.rreq_id from;
    (match t.forwarded with
    | Some c ->
        Routing.Rreq_cache.remove c ~origin:r.origin ~rreq_id:r.rreq_id
    | None -> ());
    (* The RREQ doubles as an advertisement for its origin (unless the
       N bit says the reverse chain already broke upstream). *)
    let reverse_ok =
      if r.no_reverse then has_active_route t r.origin
      else begin
        match
          learn_advert t ~dst:r.origin ~adv_sn:r.origin_sn ~adv_dist:r.dist
            ~via:from ~lifetime:active_route_timeout
        with
        | `Installed | `Refreshed -> true
        | `Rejected -> has_active_route t r.origin
      end
    in
    if t.cfg.opt_request_as_error then request_as_error t r ~from;
    if Node_id.equal r.dst t.ctx.id then destination_reply t r ~last_hop:from
    else if r.unicast_probe then begin
      (* D bit: carry the request straight to the destination. *)
      match Route_table.get t.table r.dst with
      | e when r.ttl > 1 && Route_table.is_active t.table e ->
          forward_unicast_probe t e r
      | _ | (exception Not_found) -> ()
    end
    else begin
      match Route_table.get t.table r.dst with
      | e
        when answerable t e
             && Conditions.sdc ~sn:e.sn ~dist:e.dist ~active:true
                  ~req_sn:r.dst_sn ~answer_dist:r.answer_dist ~reset:r.reset
        ->
          intermediate_reply t e r ~last_hop:from
      | e
        when r.reset && answerable t e
             && Conditions.sdc_ignoring_reset ~sn:e.sn ~dist:e.dist
                  ~active:true ~req_sn:r.dst_sn ~answer_dist:r.answer_dist ->
          (* First node able to answer but for the T bit: unicast the
             request to the destination for a path reset (Section 2.2). *)
          forward_unicast_probe t e r
      | _ | (exception Not_found) -> relay_broadcast t r ~reverse_ok
    end
  end

(* ---- Procedures 3-4: accept and relay advertisements ------------------ *)

let n_bit_probe t dst =
  (* The reply said some relay lacked a reverse route to us: raise our own
     number and probe along the forward path so the next advertisements
     for us are accepted everywhere (Section 2.2, D bit). *)
  match Route_table.active t.table dst with
  | None -> ()
  | Some e -> (
      match e.next_hop with
      | None -> ()
      | Some nh ->
          increment_own t;
          let ttl = e.dist + local_add_ttl in
          let rreq_id =
            Routing.Discovery.fresh_rreq_id (discovery t) ~dst ~ttl
          in
          send_ldr t ~dst:(Net.Frame.unicast nh)
            (Ldr_msg.Rreq
               {
                 Ldr_msg.dst;
                 dst_sn = Some e.sn;
                 rreq_id;
                 origin = t.ctx.id;
                 origin_sn = t.own_sn;
                 fd = e.fd;
                 answer_dist = reduce t e.fd;
                 dist = 0;
                 ttl;
                 reset = false;
                 no_reverse = false;
                 unicast_probe = true;
               }))

let handle_rrep t (r : Ldr_msg.rrep) ~from =
  let verdict =
    learn_advert t ~dst:r.dst ~adv_sn:r.dst_sn ~adv_dist:r.dist ~via:from
      ~lifetime:r.lifetime
  in
  let feasible = verdict <> `Rejected in
  if feasible then t.ctx.event ~dst:r.dst "rrep_usable_recv";
  (* Any node whose own computation for this destination is now satisfied
     terminates it — relays can be active for a destination while engaged
     in other computations for it. *)
  if
    Lazy.is_val t.discovery
    && Routing.Discovery.pending (discovery t) r.dst
    && has_active_route t r.dst
  then Routing.Discovery.settle (discovery t) r.dst;
  if Node_id.equal r.origin t.ctx.id then begin
    if feasible && r.rrep_no_reverse then n_bit_probe t r.dst
  end
  else begin
    (* Procedure 4: relay along the computation's reverse path, always
       re-advertising from our own (possibly stronger) invariants. *)
    match
      Routing.Rreq_cache.find t.engaged ~origin:r.origin ~rreq_id:r.rreq_id
    with
    | None -> () (* never engaged, or engagement expired *)
    | Some last_hop -> (
        match Route_table.get t.table r.dst with
        | e when Route_table.is_active t.table e ->
            let forwarded = forwarded t in
            let stronger =
              match
                Routing.Rreq_cache.find forwarded ~origin:r.origin
                  ~rreq_id:r.rreq_id
              with
              | None -> true
              | Some (bsn, bdist) ->
                  t.cfg.opt_multiple_rreps
                  && (Seqnum.(e.sn > bsn)
                     || (Seqnum.equal e.sn bsn && e.dist < bdist))
            in
            if stronger then begin
              Routing.Rreq_cache.add forwarded ~origin:r.origin
                ~rreq_id:r.rreq_id (e.sn, e.dist);
              let r' =
                {
                  r with
                  Ldr_msg.dst_sn = e.sn;
                  dist = e.dist;
                  lifetime = Route_table.remaining_lifetime t.table e;
                }
              in
              send_ldr t ~dst:(Net.Frame.unicast last_hop)
                (Ldr_msg.Rrep r')
            end
        | _ | (exception Not_found) ->
            () (* stronger invariants but no valid route: discard *))
  end

(* ---- Route maintenance ------------------------------------------------ *)

(* The entries of a RERR from [from] whose routes ran through it, each
   invalidated here and re-reported with this node's number. *)
let rec failed_via t ~from = function
  | [] -> []
  | (dst, _sn) :: rest -> (
      match Route_table.fail_route t.table dst ~via:from with
      | `Invalidated -> (dst, sn_of t dst) :: failed_via t ~from rest
      | `Untouched -> failed_via t ~from rest)

let handle_rerr t unreachable ~from =
  let invalidated = failed_via t ~from unreachable in
  if invalidated <> [] then t.ctx.table_changed ();
  broadcast_rerr t invalidated

let rec with_sns t = function
  | [] -> []
  | dst :: rest -> (dst, sn_of t dst) :: with_sns t rest

let link_failure t payload ~next_hop =
  let invalidated = Route_table.invalidate_via t.table next_hop in
  if invalidated <> [] then t.ctx.table_changed ();
  (match payload with
  | Payload.Data msg -> (
      (* Another active route carries the packet on; failing that, the
         origin holds it and rediscovers, relays shed it. *)
      match Route_table.get t.table msg.Data_msg.dst with
      | e when Route_table.is_active t.table e -> forward_data t e msg
      | _ | (exception Not_found) -> Routing.Discovery.rescue (discovery t) msg)
  | Payload.Ldr _ | Payload.Aodv _ | Payload.Dsr _ | Payload.Olsr _ -> ());
  broadcast_rerr t (with_sns t invalidated)

(* ---- Wiring ----------------------------------------------------------- *)

let rec handle_rreqs t rs ~from =
  match rs with
  | [] -> ()
  | r :: rest ->
      handle_rreq t r ~from;
      handle_rreqs t rest ~from

let recv t payload ~from =
  match payload with
  | Payload.Data msg -> handle_data t msg ~from
  | Payload.Ldr (Ldr_msg.Rreq r) -> handle_rreq t r ~from
  | Payload.Ldr (Ldr_msg.Rreq_agg rs) ->
      (* Aggregated flood: each member RREQ is its own computation. *)
      handle_rreqs t rs ~from
  | Payload.Ldr (Ldr_msg.Rrep r) -> handle_rrep t r ~from
  | Payload.Ldr (Ldr_msg.Rerr { unreachable }) ->
      handle_rerr t unreachable ~from
  | Payload.Aodv _ | Payload.Dsr _ | Payload.Olsr _ -> ()

(* Churn teardown (Agent.reset).  A crash additionally loses the node's
   own sequence number — rebooting at [Seqnum.initial] is exactly the
   volatile-seqno scenario where plain seqno protocols loop; LDR's
   clock-stamped numbers recover because the next increment jumps to the
   wall clock (see [increment_own]). *)
let reset t ~crash =
  (* An unbuilt machine holds nothing and has issued no id. *)
  if Lazy.is_val t.discovery then Routing.Discovery.reset (discovery t) ~crash;
  Route_table.clear t.table;
  Routing.Rreq_cache.clear t.engaged;
  t.forwarded <- None;
  t.ctx.table_changed ();
  if crash then begin
    t.own_sn <- Seqnum.initial ~stamp:0;
    t.own_increments <- 0
  end

let make ?(config = Config.default) (ctx : RA.ctx) =
  let rec t =
    {
      ctx;
      cfg = config;
      broadcast = (fun p -> ctx.send ~dst:Net.Frame.broadcast p);
      table =
        Route_table.create ~obs:ctx.obs
          ~owner:(Node_id.to_int ctx.id) ~engine:ctx.engine ();
      engaged =
        Routing.Rreq_cache.create ~engine:ctx.engine ~ttl:rreq_cache_ttl;
      forwarded = None;
      own_sn = Seqnum.initial ~stamp:0;
      own_increments = 0;
      discovery =
        lazy
          (Routing.Discovery.create ctx
             ~capacity:Routing.Discovery.buffer_capacity
             ~max_age:Routing.Discovery.buffer_max_age
             ~schedule:(ring_schedule t)
             ~route:(Route_table.active t.table) ~forward:(forward_data t)
             ~send_rreq:(send_rreq t));
    }
  in
  let agent =
    {
      RA.null with
      origin_data = (fun msg -> Routing.Discovery.originate (discovery t) msg);
      recv = (fun payload ~from -> recv t payload ~from);
      link_failure = (fun payload ~next_hop -> link_failure t payload ~next_hop);
      successor =
        (fun dst ->
          if Node_id.equal dst ctx.id then None
          else Route_table.successor t.table dst);
      own_seqno = (fun () -> float_of_int t.own_increments);
      invariants =
        (fun dst ->
          if Node_id.equal dst ctx.id then
            (* A node is its own destination at distance 0 with its own
               number — what its neighbors' SNC/FDC compare against. *)
            Some { Obs.Event.i_sn = Seqnum.pack t.own_sn; i_dist = 0; i_fd = 0 }
          else
            match Route_table.get t.table dst with
            | e ->
                Some
                  {
                    Obs.Event.i_sn = Seqnum.pack e.sn;
                    i_dist = e.dist;
                    i_fd = e.fd;
                  }
            | exception Not_found -> None);
      route_stats =
        (fun () ->
          let entries = ref 0 and finite = ref 0 and fd_sum = ref 0 in
          Route_table.iter t.table (fun _ e ->
              incr entries;
              if e.Route_table.fd < Conditions.infinity then begin
                incr finite;
                fd_sum := !fd_sum + e.Route_table.fd
              end);
          (!entries, !finite, !fd_sum));
      reset = (fun ~crash -> reset t ~crash);
    }
  in
  (agent, t)

let factory ?config () ctx = fst (make ?config ctx)

type debug = {
  table : Route_table.t;
  own_sn : unit -> Seqnum.t;
  pending_discoveries : unit -> Node_id.t list;
  discovery_built : unit -> bool;
}

let factory_with_debug ?config () ctx =
  let agent, t = make ?config ctx in
  ( agent,
    {
      table = t.table;
      own_sn = (fun () -> t.own_sn);
      pending_discoveries =
        (fun () ->
          if Lazy.is_val t.discovery then
            Routing.Discovery.destinations (discovery t)
          else []);
      discovery_built = (fun () -> Lazy.is_val t.discovery);
    } )
