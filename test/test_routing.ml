(* Tests for the protocol-agnostic routing kit. *)

open Sim
open Packets

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let n = Node_id.of_int

let msg ?(flow = 0) ?(seq = 0) ~src ~dst () =
  Data_msg.fresh ~flow_id:flow ~seq ~src:(n src) ~dst:(n dst)
    ~payload_bytes:512 ~origin_time:Time.zero

(* ---- Rreq_cache -------------------------------------------------------- *)

let cache_add_find () =
  let engine = Engine.create () in
  let c = Routing.Rreq_cache.create ~engine ~ttl:(Time.sec 5.) in
  checkb "absent" false (Routing.Rreq_cache.mem c ~origin:(n 1) ~rreq_id:7);
  Routing.Rreq_cache.add c ~origin:(n 1) ~rreq_id:7 "hop";
  checkb "present" true (Routing.Rreq_cache.mem c ~origin:(n 1) ~rreq_id:7);
  checkb "value" true (Routing.Rreq_cache.find c ~origin:(n 1) ~rreq_id:7 = Some "hop");
  checkb "other id absent" false (Routing.Rreq_cache.mem c ~origin:(n 1) ~rreq_id:8);
  checkb "other origin absent" false (Routing.Rreq_cache.mem c ~origin:(n 2) ~rreq_id:7)

let cache_expiry () =
  let engine = Engine.create () in
  let c = Routing.Rreq_cache.create ~engine ~ttl:(Time.sec 5.) in
  Routing.Rreq_cache.add c ~origin:(n 1) ~rreq_id:1 ();
  ignore
    (Engine.at engine (Time.sec 4.) (fun () ->
         checkb "still live at 4s" true
           (Routing.Rreq_cache.mem c ~origin:(n 1) ~rreq_id:1)));
  ignore
    (Engine.at engine (Time.sec 6.) (fun () ->
         checkb "expired at 6s" false
           (Routing.Rreq_cache.mem c ~origin:(n 1) ~rreq_id:1)));
  Engine.run engine

let cache_refresh_restarts_clock () =
  let engine = Engine.create () in
  let c = Routing.Rreq_cache.create ~engine ~ttl:(Time.sec 5.) in
  Routing.Rreq_cache.add c ~origin:(n 1) ~rreq_id:1 1;
  ignore
    (Engine.at engine (Time.sec 3.) (fun () ->
         Routing.Rreq_cache.add c ~origin:(n 1) ~rreq_id:1 2));
  ignore
    (Engine.at engine (Time.sec 7.) (fun () ->
         checkb "live at 7s after refresh" true
           (Routing.Rreq_cache.find c ~origin:(n 1) ~rreq_id:1 = Some 2)));
  Engine.run engine

let cache_update_in_place () =
  let engine = Engine.create () in
  let c = Routing.Rreq_cache.create ~engine ~ttl:(Time.sec 5.) in
  Routing.Rreq_cache.add c ~origin:(n 1) ~rreq_id:1 10;
  Routing.Rreq_cache.update c ~origin:(n 1) ~rreq_id:1 (fun x -> x + 5);
  checkb "updated" true (Routing.Rreq_cache.find c ~origin:(n 1) ~rreq_id:1 = Some 15);
  (* Updating a missing entry is a no-op. *)
  Routing.Rreq_cache.update c ~origin:(n 9) ~rreq_id:9 (fun x -> x + 1);
  checkb "no phantom" false (Routing.Rreq_cache.mem c ~origin:(n 9) ~rreq_id:9)

let cache_update_ignores_expired () =
  let engine = Engine.create () in
  let c = Routing.Rreq_cache.create ~engine ~ttl:(Time.ms 10.) in
  Routing.Rreq_cache.add c ~origin:(n 1) ~rreq_id:1 10;
  ignore
    (Engine.at engine (Time.sec 1.) (fun () ->
         (* The entry is past its TTL: update must neither apply [f] nor
            resurrect it. *)
         Routing.Rreq_cache.update c ~origin:(n 1) ~rreq_id:1 (fun x -> x + 5);
         checkb "expired entry not updated" true
           (Routing.Rreq_cache.find c ~origin:(n 1) ~rreq_id:1 = None);
         checkb "not resurrected" false
           (Routing.Rreq_cache.mem c ~origin:(n 1) ~rreq_id:1)));
  Engine.run engine

let cache_key_injective_qcheck =
  (* Distinct (origin, rreq_id) pairs over the full wire domain — node
     ids to 2^30, flood counters to 2^32 — must never alias.  The old
     packing ((origin lsl 31) lxor rreq_id) collided as soon as a flood
     counter reached 2^31: e.g. (0, 0) vs (1, 2^31). *)
  let pair =
    QCheck.(
      quad (int_bound ((1 lsl 30) - 1)) (int_bound max_int)
        (int_bound ((1 lsl 30) - 1)) (int_bound max_int))
  in
  QCheck.Test.make ~name:"rreq_cache distinct computations never alias" ~count:500
    pair (fun (o1, r1', o2, r2') ->
      let r1 = r1' land 0xffff_ffff and r2 = r2' land 0xffff_ffff in
      QCheck.assume (not (o1 = o2 && r1 = r2));
      let engine = Engine.create () in
      let c = Routing.Rreq_cache.create ~engine ~ttl:(Time.sec 5.) in
      Routing.Rreq_cache.add c ~origin:(n o1) ~rreq_id:r1 "a";
      (not (Routing.Rreq_cache.mem c ~origin:(n o2) ~rreq_id:r2))
      && Routing.Rreq_cache.find c ~origin:(n o1) ~rreq_id:r1 = Some "a")

let cache_old_packing_collision () =
  (* The concrete collision of the pre-fix packing. *)
  let engine = Engine.create () in
  let c = Routing.Rreq_cache.create ~engine ~ttl:(Time.sec 5.) in
  Routing.Rreq_cache.add c ~origin:(n 0) ~rreq_id:0 "zero";
  checkb "(1, 2^31) is a different computation" false
    (Routing.Rreq_cache.mem c ~origin:(n 1) ~rreq_id:(1 lsl 31))

let cache_purges () =
  let engine = Engine.create () in
  let c = Routing.Rreq_cache.create ~engine ~ttl:(Time.ms 10.) in
  for i = 0 to 99 do
    Routing.Rreq_cache.add c ~origin:(n i) ~rreq_id:i ()
  done;
  ignore
    (Engine.at engine (Time.sec 1.) (fun () ->
         checki "all expired and purged" 0 (Routing.Rreq_cache.length c)));
  Engine.run engine

(* Minor words one call of [f] allocates: a loop of calls, less the same
   loop calling a no-op. *)
let words_per_call f =
  let calls = 1000 in
  let loop g =
    let w0 = Gc.minor_words () in
    for _ = 1 to calls do
      g ()
    done;
    Gc.minor_words () -. w0
  in
  let with_f = loop f in
  let without = loop ignore in
  (with_f -. without) /. float_of_int calls

let check_zero_words name f =
  let w = words_per_call f in
  checkb (Printf.sprintf "%s: 0 words (%.2f)" name w) true (w = 0.)

let cache_allocation_free () =
  let engine = Engine.create () in
  let c = Routing.Rreq_cache.create ~engine ~ttl:(Time.sec 5.) in
  let big = 1 lsl 31 in
  Routing.Rreq_cache.add c ~origin:(n 3) ~rreq_id:big "hop";
  check_zero_words "mem hit" (fun () ->
      ignore (Routing.Rreq_cache.mem c ~origin:(n 3) ~rreq_id:big));
  check_zero_words "mem miss" (fun () ->
      ignore (Routing.Rreq_cache.mem c ~origin:(n 4) ~rreq_id:7));
  check_zero_words "add on an existing key" (fun () ->
      Routing.Rreq_cache.add c ~origin:(n 3) ~rreq_id:big "hop");
  check_zero_words "update" (fun () ->
      Routing.Rreq_cache.update c ~origin:(n 3) ~rreq_id:big Fun.id)

(* Random operation sequences against an association-list model of the
   contract: an entry is live iff its expiry is after now, [add]
   (re)arms the expiry, [update] applies to live entries only and keeps
   the expiry.  The clock steps across the TTL, flood counters reach
   2^31 and beyond, and the key space is small enough for hits,
   refreshes, growth and purges. *)
type cache_op =
  | Add of int * int * int
  | Mem of int * int
  | Find of int * int
  | Update of int * int
  | Clear
  | Length
  | Step of int  (** ms *)

let cache_origins = [| 0; 1; 2; 3; 4; 5; (1 lsl 30) - 1 |]

let cache_ids =
  [| 0; 1; 2; 3; (1 lsl 31) - 1; 1 lsl 31; (1 lsl 31) + 1; (1 lsl 32) - 1 |]

let cache_op_gen =
  let open QCheck.Gen in
  let key =
    pair (oneofa cache_origins) (oneofa cache_ids)
  in
  frequency
    [
      (6, map2 (fun (o, r) v -> Add (o, r, v)) key small_nat);
      (4, map (fun (o, r) -> Mem (o, r)) key);
      (3, map (fun (o, r) -> Find (o, r)) key);
      (2, map (fun (o, r) -> Update (o, r)) key);
      (1, return Clear);
      (1, return Length);
      (3, map (fun ms -> Step ms) (int_bound 15));
    ]

let cache_op_print = function
  | Add (o, r, v) -> Printf.sprintf "add(%d,%d)=%d" o r v
  | Mem (o, r) -> Printf.sprintf "mem(%d,%d)" o r
  | Find (o, r) -> Printf.sprintf "find(%d,%d)" o r
  | Update (o, r) -> Printf.sprintf "update(%d,%d)" o r
  | Clear -> "clear"
  | Length -> "length"
  | Step ms -> Printf.sprintf "step %dms" ms

let cache_model_qcheck =
  let ttl_ms = 10 in
  QCheck.Test.make ~name:"rreq_cache matches an assoc-list model" ~count:300
    (QCheck.make
       ~print:(QCheck.Print.list cache_op_print)
       QCheck.Gen.(list_size (int_range 1 300) cache_op_gen))
    (fun ops ->
      let engine = Engine.create () in
      let c =
        Routing.Rreq_cache.create ~engine ~ttl:(Time.ms (float_of_int ttl_ms))
      in
      let now () = (Engine.now engine :> int) in
      (* (origin, rreq_id) -> (value, expiry ns) *)
      let model = ref [] in
      let live k =
        match List.assoc_opt k !model with
        | Some (v, exp) when exp > now () -> Some v
        | Some _ | None -> None
      in
      let step = function
        | Add (o, r, v) ->
            Routing.Rreq_cache.add c ~origin:(n o) ~rreq_id:r v;
            model :=
              ((o, r), (v, now () + (ttl_ms * 1_000_000)))
              :: List.remove_assoc (o, r) !model;
            true
        | Mem (o, r) ->
            Routing.Rreq_cache.mem c ~origin:(n o) ~rreq_id:r
            = (live (o, r) <> None)
        | Find (o, r) ->
            Routing.Rreq_cache.find c ~origin:(n o) ~rreq_id:r = live (o, r)
        | Update (o, r) ->
            Routing.Rreq_cache.update c ~origin:(n o) ~rreq_id:r (fun v ->
                v + 1);
            (match live (o, r) with
            | Some v ->
                let exp = snd (List.assoc (o, r) !model) in
                model :=
                  ((o, r), (v + 1, exp)) :: List.remove_assoc (o, r) !model
            | None -> ());
            true
        | Clear ->
            Routing.Rreq_cache.clear c;
            model := [];
            true
        | Length ->
            Routing.Rreq_cache.length c
            = List.length (List.filter (fun (k, _) -> live k <> None) !model)
        | Step ms ->
            Engine.run
              ~until:(Time.add (Engine.now engine) (Time.ms (float_of_int ms)))
              engine;
            true
      in
      List.for_all step ops)

(* ---- Duplicate RREQs allocate nothing ---------------------------------- *)

(* The flood's common case: a copy of a solicitation this node already
   engaged in, heard again from another neighbour, must be discarded
   without allocating — for every protocol that floods. *)
let duplicate_rreq_allocation_free () =
  let case name (factory : Routing.Agent.factory) payload =
    let engine = Engine.create () in
    let agent = factory (Routing.Agent.null_ctx ~id:5 engine) in
    agent.recv payload ~from:(n 1);
    check_zero_words name (fun () -> agent.recv payload ~from:(n 2))
  in
  let ldr_rreq =
    Payload.Ldr
      (Ldr_msg.Rreq
         {
           Ldr_msg.dst = n 9;
           dst_sn = None;
           rreq_id = 1 lsl 31;
           origin = n 0;
           origin_sn = Seqnum.initial ~stamp:0;
           fd = Ldr.Conditions.infinity;
           answer_dist = Ldr.Conditions.infinity;
           dist = 1;
           ttl = 5;
           reset = false;
           no_reverse = false;
           unicast_probe = false;
         })
  in
  case "LDR" (Ldr.Protocol.factory ()) ldr_rreq;
  case "LDR-AGG" (Routing.Aggregation.wrap (Ldr.Protocol.factory ())) ldr_rreq;
  case "AODV" (Aodv.factory ())
    (Payload.Aodv
       (Aodv_msg.Rreq
          {
            Aodv_msg.dst = n 9;
            dst_sn = None;
            rreq_id = 1;
            origin = n 0;
            origin_sn = 0;
            hop_count = 1;
            ttl = 5;
          }));
  case "OLSR" Olsr.factory
    (Payload.Olsr
       (Olsr_msg.Tc
          {
            origin = n 0;
            msg_seq = 1;
            ttl = 255;
            tc = { Olsr_msg.tc_origin = n 0; ansn = 0; advertised = [] };
          }))

(* ---- Packet_buffer ------------------------------------------------------ *)

let buffer_push_take () =
  let engine = Engine.create () in
  let drops = ref [] in
  let b =
    Routing.Packet_buffer.create ~engine ~capacity:10 ~max_age:(Time.sec 30.)
      ~on_drop:(fun m ~reason -> drops := (m, reason) :: !drops)
      ()
  in
  Routing.Packet_buffer.push b (msg ~flow:1 ~src:0 ~dst:5 ());
  Routing.Packet_buffer.push b (msg ~flow:2 ~src:0 ~dst:5 ());
  Routing.Packet_buffer.push b (msg ~flow:3 ~src:0 ~dst:6 ());
  checkb "pending for 5" true (Routing.Packet_buffer.pending b (n 5));
  checki "3 total" 3 (Routing.Packet_buffer.length b);
  let got = Routing.Packet_buffer.take b (n 5) in
  checki "two for 5, fifo" 2 (List.length got);
  (match got with
  | [ a; c ] ->
      checki "fifo first" 1 a.Data_msg.flow_id;
      checki "fifo second" 2 c.Data_msg.flow_id
  | _ -> Alcotest.fail "wrong count");
  checkb "5 now empty" false (Routing.Packet_buffer.pending b (n 5));
  checki "one left" 1 (Routing.Packet_buffer.length b);
  checki "no drops" 0 (List.length !drops)

let buffer_timeout () =
  let engine = Engine.create () in
  let drops = ref [] in
  let b =
    Routing.Packet_buffer.create ~engine ~capacity:10 ~max_age:(Time.sec 5.)
      ~on_drop:(fun m ~reason -> drops := (m, reason) :: !drops)
      ()
  in
  Routing.Packet_buffer.push b (msg ~src:0 ~dst:5 ());
  ignore
    (Engine.at engine (Time.sec 10.) (fun () ->
         checkb "expired: nothing pending" false
           (Routing.Packet_buffer.pending b (n 5))));
  Engine.run engine;
  (match !drops with
  | [ (_, reason) ] -> Alcotest.check Alcotest.string "reason" "buffer-timeout" reason
  | _ -> Alcotest.fail "expected one drop")

let buffer_capacity_evicts_oldest () =
  let engine = Engine.create () in
  let drops = ref [] in
  let b =
    Routing.Packet_buffer.create ~engine ~capacity:2 ~max_age:(Time.sec 30.)
      ~on_drop:(fun m ~reason -> drops := (m, reason) :: !drops)
      ()
  in
  (* Distinct push times so age ordering is defined. *)
  ignore (Engine.at engine (Time.ms 1.) (fun () ->
      Routing.Packet_buffer.push b (msg ~flow:1 ~src:0 ~dst:5 ())));
  ignore (Engine.at engine (Time.ms 2.) (fun () ->
      Routing.Packet_buffer.push b (msg ~flow:2 ~src:0 ~dst:6 ())));
  ignore (Engine.at engine (Time.ms 3.) (fun () ->
      Routing.Packet_buffer.push b (msg ~flow:3 ~src:0 ~dst:7 ())));
  Engine.run engine;
  checki "capacity held" 2 (Routing.Packet_buffer.length b);
  (match !drops with
  | [ (m, reason) ] ->
      checki "oldest evicted" 1 m.Data_msg.flow_id;
      Alcotest.check Alcotest.string "reason" "buffer-evicted" reason
  | _ -> Alcotest.fail "expected exactly one eviction")

let buffer_drop_all () =
  let engine = Engine.create () in
  let drops = ref [] in
  let b =
    Routing.Packet_buffer.create ~engine ~capacity:10 ~max_age:(Time.sec 30.)
      ~on_drop:(fun m ~reason -> drops := (m, reason) :: !drops)
      ()
  in
  Routing.Packet_buffer.push b (msg ~flow:1 ~src:0 ~dst:5 ());
  Routing.Packet_buffer.push b (msg ~flow:2 ~src:0 ~dst:5 ());
  Routing.Packet_buffer.drop_all b (n 5) ~reason:"discovery-failed";
  checki "two dropped" 2 (List.length !drops);
  checki "buffer empty" 0 (Routing.Packet_buffer.length b)

let buffer_table_stays_bounded () =
  (* Churn over many distinct destinations, as a long mobile run does.
     Emptied per-destination queues must leave the table: the number of
     tracked destinations stays bounded by the live occupancy, not by the
     number of destinations ever buffered for. *)
  let engine = Engine.create () in
  let b =
    Routing.Packet_buffer.create ~engine ~capacity:4 ~max_age:(Time.sec 30.)
      ~on_drop:(fun _ ~reason:_ -> ())
      ()
  in
  for i = 0 to 199 do
    Routing.Packet_buffer.push b (msg ~flow:i ~src:0 ~dst:(i mod 100) ())
  done;
  checki "occupancy at capacity" 4 (Routing.Packet_buffer.length b);
  checkb "destination table bounded by occupancy" true
    (Routing.Packet_buffer.destinations b <= Routing.Packet_buffer.length b);
  (* Draining with [take] and expiring with [pending] also release their
     table entries. *)
  for d = 0 to 99 do
    ignore (Routing.Packet_buffer.take b (n d))
  done;
  checki "empty after draining" 0 (Routing.Packet_buffer.length b);
  checki "no dead queues retained" 0 (Routing.Packet_buffer.destinations b);
  Routing.Packet_buffer.push b (msg ~flow:1000 ~src:0 ~dst:7 ());
  ignore
    (Engine.at engine (Time.sec 60.) (fun () ->
         checkb "expired: nothing pending" false
           (Routing.Packet_buffer.pending b (n 7));
         checki "expiry releases the table entry" 0
           (Routing.Packet_buffer.destinations b)));
  Engine.run engine

(* ---- Discovery schedule -------------------------------------------------- *)

module D = Routing.Discovery

let ring_schedule () =
  let d = D.default in
  let t1 = D.next_ttl ~prev:None in
  checkb "starts at 1" true (t1 = Some 1);
  let t2 = D.next_ttl ~prev:(Some 1) in
  checkb "grows by 2" true (t2 = Some 3);
  checkb "5 next" true (D.next_ttl ~prev:(Some 3) = Some 5);
  checkb "7 next" true (D.next_ttl ~prev:(Some 5) = Some 7);
  checkb "then diameter" true (D.next_ttl ~prev:(Some 7) = Some D.net_diameter);
  checkb "then exhausted" true (D.next_ttl ~prev:(Some D.net_diameter) = None);
  let ttls ?first () =
    List.of_seq
      (Seq.map (fun (a : D.attempt) -> a.ttl) (D.ring_attempts ?first d))
  in
  (* The ring, then [max_retries] network-wide retries. *)
  checkb "attempts" true (ttls () = [ 1; 3; 5; 7; 35; 35; 35 ]);
  checkb "attempts from an unaligned start" true
    (ttls ~first:4 () = [ 4; 6; 35; 35; 35 ])

let ring_no_extra_threshold_attempt () =
  (* RFC 3561 s6.4: once the next ring would pass TTL_THRESHOLD the
     search goes straight to NET_DIAMETER — no clamped attempt *at* the
     threshold.  Unaligned previous TTLs arise from LDR's optimal-TTL
     starts. *)
  checkb "6 jumps straight to diameter" true
    (D.next_ttl ~prev:(Some 6) = Some D.net_diameter);
  checkb "threshold jumps to diameter" true
    (D.next_ttl ~prev:(Some 7) = Some D.net_diameter);
  checkb "above threshold jumps to diameter" true
    (D.next_ttl ~prev:(Some 12) = Some D.net_diameter);
  (* An in-threshold ring that lands exactly on the threshold is still a
     legitimate attempt. *)
  checkb "5 -> 7 kept" true (D.next_ttl ~prev:(Some 5) = Some 7)

let ring_timeouts_scale () =
  let d = D.default in
  let t1 = D.attempt_timeout d ~ttl:1 in
  let t7 = D.attempt_timeout d ~ttl:7 in
  checkb "longer ttl waits longer" true Time.(t7 > t1);
  (* RING_TRAVERSAL_TIME = 2 * NODE_TRAVERSAL_TIME * (TTL + TIMEOUT_BUFFER),
     RFC 3561 s10 with TIMEOUT_BUFFER = 2. *)
  checkb "2*(ttl+buffer)*traversal" true
    (Time.equal t7 (Time.mul D.node_traversal (2 * (7 + d.timeout_buffer))));
  checkb "buffer keeps the smallest ring patient" true
    (Time.equal t1 (Time.mul D.node_traversal 6))

let ring_from_diameter () =
  let d = D.default in
  let ttls =
    List.of_seq
      (Seq.map
         (fun (a : D.attempt) -> a.ttl)
         (D.ring_attempts ~first:D.net_diameter d))
  in
  checkb "one diameter flood, then the retries" true
    (ttls = List.init (D.max_retries + 1) (fun _ -> D.net_diameter))

(* From any first TTL inside the network the schedule climbs, never
   stops between TTL_THRESHOLD and NET_DIAMETER, ends in exactly
   [max_retries + 1] diameter floods, and times each attempt by its own
   TTL. *)
let ring_attempts_shape_qcheck =
  let d = D.default in
  QCheck.Test.make ~name:"ring attempts shape" ~count:200
    QCheck.(int_range 1 D.net_diameter)
    (fun first ->
      let attempts = List.of_seq (D.ring_attempts ~first d) in
      let ttls = List.map (fun (a : D.attempt) -> a.ttl) attempts in
      let rec climbs = function
        | a :: (b :: _ as rest) -> a <= b && climbs rest
        | _ -> true
      in
      let diameter_floods =
        List.length (List.filter (fun t -> t = D.net_diameter) ttls)
      in
      List.hd ttls = first && climbs ttls
      && diameter_floods = D.max_retries + 1
      && List.for_all
           (fun t -> t <= D.ttl_threshold || t = D.net_diameter || t = first)
           ttls
      && List.for_all
           (fun (a : D.attempt) ->
             Time.equal a.timeout (D.attempt_timeout d ~ttl:a.ttl))
           attempts)

(* ---- Discovery machine ------------------------------------------------- *)

(* One node's discovery machine over a recording context.  Routes are
   next-hop ints in a table the test fills in; RREQs sent, protocol
   events, drops and forwards are logged oldest first. *)
type rig = {
  engine : Engine.t;
  disc : int Routing.Discovery.t;
  routes : (int, int) Hashtbl.t;
  sent : (int * int * int * Time.t) Queue.t;  (** dst, ttl, rreq id, when *)
  events : (string * int option) Queue.t;
  drops : (int * string * Time.t) Queue.t;  (** flow, reason, when *)
  forwarded : (int * int) Queue.t;  (** flow, next hop *)
  schedules : int ref;  (** discoveries started *)
}

let attempt ttl ms = { Routing.Discovery.ttl; timeout = Time.ms ms }
let three_attempts _ = [ attempt 1 100.; attempt 3 200.; attempt 35 400. ]

let rig ?(capacity = 8) ?(max_age = Time.sec 30.) ?(schedule = three_attempts)
    () =
  let engine = Engine.create () in
  let events = Queue.create () and drops = Queue.create () in
  let ctx =
    {
      (Routing.Agent.null_ctx ~id:0 engine) with
      Routing.Agent.event =
        (fun ?dst name -> Queue.push (name, Option.map Node_id.to_int dst) events);
      drop_data =
        (fun m ~reason ->
          Queue.push (m.Data_msg.flow_id, reason, Engine.now engine) drops);
    }
  in
  let routes = Hashtbl.create 4 and sent = Queue.create () in
  let forwarded = Queue.create () and schedules = ref 0 in
  let disc =
    Routing.Discovery.create ctx ~capacity ~max_age
      ~schedule:(fun dst ->
        incr schedules;
        List.to_seq (schedule (Node_id.to_int dst)))
      ~route:(fun dst -> Hashtbl.find_opt routes (Node_id.to_int dst))
      ~forward:(fun hop m -> Queue.push (m.Data_msg.flow_id, hop) forwarded)
      ~send_rreq:(fun ~dst ~ttl ~rreq_id ->
        Queue.push (Node_id.to_int dst, ttl, rreq_id, Engine.now engine) sent)
  in
  { engine; disc; routes; sent; events; drops; forwarded; schedules }

let hold r ~flow ~dst = Routing.Discovery.hold r.disc (msg ~flow ~src:0 ~dst ())
let sent_ttls r = List.of_seq (Seq.map (fun (_, ttl, _, _) -> ttl) (Queue.to_seq r.sent))
let sent_ids r = List.of_seq (Seq.map (fun (_, _, id, _) -> id) (Queue.to_seq r.sent))
let forwards r = List.of_seq (Queue.to_seq r.forwarded)
let drop_reasons r =
  List.of_seq (Seq.map (fun (flow, reason, _) -> (flow, reason)) (Queue.to_seq r.drops))
let pending r dst = Routing.Discovery.pending r.disc (n dst)
let settle r dst = Routing.Discovery.settle r.disc (n dst)
let pairs = Alcotest.(list (pair int int))
let reasons = Alcotest.(list (pair int string))

let machine_hold_starts_discovery () =
  let r = rig () in
  hold r ~flow:1 ~dst:5;
  checkb "first attempt sent at once" true
    (List.of_seq (Queue.to_seq r.sent) = [ (5, 1, 1, Time.zero) ]);
  checkb "pending" true (pending r 5);
  checkb "destinations" true
    (Routing.Discovery.destinations r.disc = [ n 5 ]);
  checkb "rreq_init reported for the destination" true
    (List.of_seq (Queue.to_seq r.events) = [ ("rreq_init", Some 5) ])

let machine_second_hold_joins () =
  let r = rig () in
  hold r ~flow:1 ~dst:5;
  hold r ~flow:2 ~dst:5;
  checki "one RREQ for two packets" 1 (Queue.length r.sent);
  checki "one schedule read" 1 !(r.schedules);
  Hashtbl.replace r.routes 5 9;
  settle r 5;
  Alcotest.check pairs "both held packets forwarded" [ (1, 9); (2, 9) ]
    (forwards r)

let machine_destinations_independent () =
  let r = rig () in
  hold r ~flow:1 ~dst:5;
  hold r ~flow:2 ~dst:6;
  checkb "one RREQ each" true
    (List.of_seq (Seq.map (fun (d, _, id, _) -> (d, id)) (Queue.to_seq r.sent))
    = [ (5, 1); (6, 2) ]);
  checkb "both pending" true
    (List.sort compare (Routing.Discovery.destinations r.disc) = [ n 5; n 6 ])

let machine_follows_schedule () =
  let r = rig () in
  hold r ~flow:1 ~dst:5;
  Engine.run r.engine;
  checkb "ttls in schedule order" true (sent_ttls r = [ 1; 3; 35 ]);
  checkb "each attempt after the last one's timeout" true
    (List.of_seq (Seq.map (fun (_, _, _, at) -> at) (Queue.to_seq r.sent))
    = [ Time.zero; Time.ms 100.; Time.ms 300. ]);
  checkb "no longer pending" false (pending r 5)

let machine_exhaustion_drops () =
  let r = rig () in
  hold r ~flow:1 ~dst:5;
  hold r ~flow:2 ~dst:5;
  Engine.run r.engine;
  Alcotest.check reasons "held packets fail"
    [ (1, "discovery-failed"); (2, "discovery-failed") ]
    (drop_reasons r);
  checkb "dropped when the last attempt times out" true
    (Queue.fold (fun ok (_, _, at) -> ok && Time.equal at (Time.ms 700.)) true
       r.drops);
  checki "nothing forwarded" 0 (Queue.length r.forwarded)

let machine_settle_forwards () =
  let r = rig () in
  hold r ~flow:1 ~dst:5;
  hold r ~flow:2 ~dst:5;
  Hashtbl.replace r.routes 5 9;
  settle r 5;
  Alcotest.check pairs "forwarded oldest first" [ (1, 9); (2, 9) ] (forwards r);
  checkb "not pending" false (pending r 5);
  (* Losing the route afterwards must not revive the ended discovery. *)
  Hashtbl.remove r.routes 5;
  Engine.run r.engine;
  checki "retry timer cancelled" 1 (Queue.length r.sent);
  checki "no drops" 0 (Queue.length r.drops)

let machine_settle_without_route () =
  (* Settling with no usable route ends the discovery but keeps the
     packets held; the next packet starts a fresh discovery, and the
     route it finds carries both. *)
  let r = rig () in
  hold r ~flow:1 ~dst:5;
  settle r 5;
  checkb "not pending" false (pending r 5);
  checki "nothing forwarded" 0 (Queue.length r.forwarded);
  checki "nothing dropped" 0 (Queue.length r.drops);
  Engine.run ~until:(Time.sec 1.) r.engine;
  checki "retry timer cancelled" 1 (Queue.length r.sent);
  hold r ~flow:2 ~dst:5;
  checki "fresh discovery" 2 !(r.schedules);
  checkb "restarts at the first ttl" true (sent_ttls r = [ 1; 1 ]);
  Hashtbl.replace r.routes 5 9;
  settle r 5;
  Alcotest.check pairs "both carried" [ (1, 9); (2, 9) ] (forwards r)

let machine_route_found_at_timeout () =
  (* A route learnt without an explicit settle (e.g. overheard) is
     picked up when the attempt times out: no further flood. *)
  let r = rig () in
  hold r ~flow:1 ~dst:5;
  ignore (Engine.at r.engine (Time.ms 50.) (fun () -> Hashtbl.replace r.routes 5 9));
  Engine.run r.engine;
  checki "no second attempt" 1 (Queue.length r.sent);
  Alcotest.check pairs "forwarded at the timeout" [ (1, 9) ] (forwards r);
  checkb "not pending" false (pending r 5);
  checki "no drops" 0 (Queue.length r.drops)

let machine_rreq_ids_count () =
  let r = rig () in
  hold r ~flow:1 ~dst:5;
  hold r ~flow:2 ~dst:6;
  Engine.run r.engine;
  checkb "ids 1.. in send order" true (sent_ids r = [ 1; 2; 3; 4; 5; 6 ]);
  checkb "one rreq_init per attempt, for its destination" true
    (List.of_seq (Queue.to_seq r.events)
    = List.of_seq
        (Seq.map (fun (d, _, _, _) -> ("rreq_init", Some d)) (Queue.to_seq r.sent)))

let machine_fresh_id_shared () =
  let r = rig () in
  checki "outside a discovery" 1
    (Routing.Discovery.fresh_rreq_id r.disc ~dst:(n 7) ~ttl:4);
  hold r ~flow:1 ~dst:5;
  checkb "discovery continues the count" true (sent_ids r = [ 2 ]);
  checkb "both reported" true
    (List.of_seq (Queue.to_seq r.events)
    = [ ("rreq_init", Some 7); ("rreq_init", Some 5) ]);
  checkb "no discovery for the probe" false (pending r 7)

let machine_reset r ~crash =
  hold r ~flow:1 ~dst:5;
  hold r ~flow:2 ~dst:6;
  Routing.Discovery.reset r.disc ~crash;
  checkb "nothing pending" true (Routing.Discovery.destinations r.disc = []);
  Alcotest.check reasons "held packets dropped node-down"
    [ (1, "node-down"); (2, "node-down") ]
    (List.sort compare (drop_reasons r));
  Engine.run r.engine;
  checki "no attempt after reset" 2 (Queue.length r.sent);
  hold r ~flow:3 ~dst:5;
  checkb "fresh discovery from the first ttl" true
    (sent_ttls r = [ 1; 1; 1 ])

let machine_graceful_reset () =
  let r = rig () in
  machine_reset r ~crash:false;
  checkb "id counter kept" true (sent_ids r = [ 1; 2; 3 ])

let machine_crash_reset () =
  let r = rig () in
  machine_reset r ~crash:true;
  checkb "id counter restarted" true (sent_ids r = [ 1; 2; 1 ])

let machine_empty_schedule () =
  let r = rig ~schedule:(fun _ -> []) () in
  hold r ~flow:1 ~dst:5;
  checki "no RREQ" 0 (Queue.length r.sent);
  Alcotest.check reasons "fails at once" [ (1, "discovery-failed") ]
    (drop_reasons r);
  checkb "not pending" false (pending r 5)

let machine_full_buffer () =
  let r = rig ~capacity:2 () in
  hold r ~flow:1 ~dst:5;
  hold r ~flow:2 ~dst:5;
  hold r ~flow:3 ~dst:5;
  Alcotest.check reasons "oldest evicted" [ (1, "buffer-evicted") ]
    (drop_reasons r);
  Hashtbl.replace r.routes 5 9;
  settle r 5;
  Alcotest.check pairs "the rest forwarded" [ (2, 9); (3, 9) ] (forwards r)

let machine_held_packets_age () =
  (* A packet outlives its holding time while its discovery runs on: it
     is reported as a buffer timeout, not as a discovery failure. *)
  let r =
    rig ~max_age:(Time.ms 500.) ~schedule:(fun _ -> [ attempt 1 1000. ]) ()
  in
  hold r ~flow:1 ~dst:5;
  ignore (Engine.at r.engine (Time.ms 800.) (fun () -> hold r ~flow:2 ~dst:5));
  Engine.run r.engine;
  checki "one discovery" 1 (Queue.length r.sent);
  Alcotest.check reasons "aged, then failed"
    [ (1, "buffer-timeout"); (2, "discovery-failed") ]
    (drop_reasons r)

let machine_settle_one_of_two () =
  let r = rig () in
  hold r ~flow:1 ~dst:5;
  hold r ~flow:2 ~dst:6;
  Hashtbl.replace r.routes 5 9;
  settle r 5;
  Alcotest.check pairs "only the settled destination" [ (1, 9) ] (forwards r);
  checkb "the other still pending" true (pending r 6);
  Engine.run r.engine;
  Alcotest.check reasons "the other runs its schedule out"
    [ (2, "discovery-failed") ] (drop_reasons r);
  checki "1 + 3 attempts" 4 (Queue.length r.sent)

let machine_settle_idle () =
  let r = rig () in
  settle r 5;
  Hashtbl.replace r.routes 5 9;
  settle r 5;
  checki "nothing forwarded" 0 (Queue.length r.forwarded);
  checki "nothing sent" 0 (Queue.length r.sent);
  checkb "nothing pending" false (pending r 5)

let machine_schedule_per_discovery () =
  (* The schedule is read for the destination when its discovery
     starts, so a protocol may start each search where it likes. *)
  let r = rig ~schedule:(fun dst -> [ attempt dst 100. ]) () in
  hold r ~flow:1 ~dst:4;
  hold r ~flow:2 ~dst:9;
  checkb "first ttl per destination" true (sent_ttls r = [ 4; 9 ]);
  Engine.run r.engine;
  hold r ~flow:3 ~dst:4;
  checki "re-read for a new discovery" 3 !(r.schedules);
  checkb "restarted" true (sent_ttls r = [ 4; 9; 4 ])

(* ---- Successor-chain walk ------------------------------------------------- *)

(* Agents whose successor toward every destination is [succ.(i)]
   ([-1]: none). *)
let chain_agents succ =
  Array.map
    (fun s ->
      {
        Routing.Agent.null with
        successor = (fun _ -> if s < 0 then None else Some (n s));
      })
    succ

let ints = Alcotest.(list int)

let walk_two_cycle () =
  let agents = chain_agents [| 1; 0; -1 |] in
  let w = Routing.Agent.walk 3 in
  let dst = n 2 in
  checki "repeats at the start" 0 (Routing.Agent.first_repeat w agents ~dst 0);
  let cyc = Routing.Agent.cycle agents ~dst 0 in
  Alcotest.check ints "witness" [ 0; 1 ] cyc;
  Alcotest.check Alcotest.string "mcheck rendering" "cycle dst=2 via 0->1->0"
    (Mcheck.Explorer.render_vkind (Mcheck.Explorer.Cycle (2, cyc)))

let walk_reaches_destination () =
  let agents = chain_agents [| 1; 2; 3; 0 |] in
  checki "chain ends at the destination" (-1)
    (Routing.Agent.first_repeat (Routing.Agent.walk 4) agents ~dst:(n 3) 0)

let walk_dead_end () =
  let agents = chain_agents [| 1; -1; -1 |] in
  checki "chain ends without a successor" (-1)
    (Routing.Agent.first_repeat (Routing.Agent.walk 3) agents ~dst:(n 2) 0)

let walk_cycle_off_start () =
  (* 0 -> 1 -> 2 -> 3 -> 1: the start node leads into the cycle but is
     not on it. *)
  let agents = chain_agents [| 1; 2; 3; 1; -1 |] in
  let dst = n 4 in
  let x = Routing.Agent.first_repeat (Routing.Agent.walk 5) agents ~dst 0 in
  checki "first repeated node" 1 x;
  Alcotest.check ints "witness starts at the repeat" [ 1; 2; 3 ]
    (Routing.Agent.cycle agents ~dst x)

let walk_scratch_reuse () =
  (* One walk's marks serve every query; stale marks from earlier walks
     never fake a repeat. *)
  let looped = chain_agents [| 1; 2; 3; 1; -1 |]
  and clean = chain_agents [| 1; 2; 3; 4; -1 |] in
  let dst = n 4 in
  let w = Routing.Agent.walk 5 in
  let verdicts () =
    List.map
      (fun (agents, s) -> Routing.Agent.first_repeat w agents ~dst s)
      [ (looped, 0); (clean, 0); (looped, 2); (clean, 1); (clean, 3) ]
  in
  let first = verdicts () in
  Alcotest.check ints "verdicts" [ 1; -1; 2; -1; -1 ] first;
  for _ = 1 to 3 do
    Alcotest.check ints "same verdicts on reuse" first (verdicts ())
  done

(* ---- Agent null ctx ------------------------------------------------------- *)

let null_ctx_works () =
  let engine = Engine.create () in
  let ctx = Routing.Agent.null_ctx ~id:3 engine in
  checki "id" 3 (Node_id.to_int ctx.Routing.Agent.id);
  (* All sinks are callable without effect. *)
  ctx.Routing.Agent.send ~dst:Net.Frame.Broadcast
    (Payload.Data (msg ~src:0 ~dst:1 ()));
  ctx.Routing.Agent.deliver (msg ~src:0 ~dst:1 ());
  ctx.Routing.Agent.event "x";
  ctx.Routing.Agent.table_changed ()

let () =
  Alcotest.run "routing"
    [
      ( "rreq_cache",
        [
          Alcotest.test_case "add/find" `Quick cache_add_find;
          Alcotest.test_case "expiry" `Quick cache_expiry;
          Alcotest.test_case "refresh" `Quick cache_refresh_restarts_clock;
          Alcotest.test_case "update" `Quick cache_update_in_place;
          Alcotest.test_case "update ignores expired" `Quick
            cache_update_ignores_expired;
          Alcotest.test_case "old packing collision" `Quick
            cache_old_packing_collision;
          QCheck_alcotest.to_alcotest cache_key_injective_qcheck;
          Alcotest.test_case "purge" `Quick cache_purges;
          Alcotest.test_case "allocation-free hits" `Quick
            cache_allocation_free;
          QCheck_alcotest.to_alcotest cache_model_qcheck;
        ] );
      ( "flood",
        [
          Alcotest.test_case "duplicate rreq allocates nothing" `Quick
            duplicate_rreq_allocation_free;
        ] );
      ( "packet_buffer",
        [
          Alcotest.test_case "push/take fifo" `Quick buffer_push_take;
          Alcotest.test_case "timeout" `Quick buffer_timeout;
          Alcotest.test_case "capacity eviction" `Quick buffer_capacity_evicts_oldest;
          Alcotest.test_case "drop_all" `Quick buffer_drop_all;
          Alcotest.test_case "table stays bounded" `Quick
            buffer_table_stays_bounded;
        ] );
      ( "discovery",
        [
          Alcotest.test_case "ring schedule" `Quick ring_schedule;
          Alcotest.test_case "no clamped threshold attempt" `Quick
            ring_no_extra_threshold_attempt;
          Alcotest.test_case "timeouts scale" `Quick ring_timeouts_scale;
          Alcotest.test_case "from the diameter" `Quick ring_from_diameter;
          QCheck_alcotest.to_alcotest ring_attempts_shape_qcheck;
        ] );
      ( "walk",
        [
          Alcotest.test_case "two-cycle witness" `Quick walk_two_cycle;
          Alcotest.test_case "reaches the destination" `Quick
            walk_reaches_destination;
          Alcotest.test_case "dead end" `Quick walk_dead_end;
          Alcotest.test_case "cycle off the start node" `Quick
            walk_cycle_off_start;
          Alcotest.test_case "scratch reuse" `Quick walk_scratch_reuse;
        ] );
      ( "disc_machine",
        [
          Alcotest.test_case "hold starts a discovery" `Quick
            machine_hold_starts_discovery;
          Alcotest.test_case "second hold joins" `Quick machine_second_hold_joins;
          Alcotest.test_case "destinations independent" `Quick
            machine_destinations_independent;
          Alcotest.test_case "follows the schedule" `Quick
            machine_follows_schedule;
          Alcotest.test_case "exhaustion drops" `Quick machine_exhaustion_drops;
          Alcotest.test_case "settle forwards" `Quick machine_settle_forwards;
          Alcotest.test_case "settle without a route" `Quick
            machine_settle_without_route;
          Alcotest.test_case "route found at timeout" `Quick
            machine_route_found_at_timeout;
          Alcotest.test_case "rreq ids count" `Quick machine_rreq_ids_count;
          Alcotest.test_case "fresh id shared" `Quick machine_fresh_id_shared;
          Alcotest.test_case "graceful reset" `Quick machine_graceful_reset;
          Alcotest.test_case "crash reset" `Quick machine_crash_reset;
          Alcotest.test_case "empty schedule" `Quick machine_empty_schedule;
          Alcotest.test_case "full buffer" `Quick machine_full_buffer;
          Alcotest.test_case "held packets age" `Quick machine_held_packets_age;
          Alcotest.test_case "settle one of two" `Quick
            machine_settle_one_of_two;
          Alcotest.test_case "settle when idle" `Quick machine_settle_idle;
          Alcotest.test_case "schedule per discovery" `Quick
            machine_schedule_per_discovery;
        ] );
      ("agent", [ Alcotest.test_case "null ctx" `Quick null_ctx_works ]);
    ]
