(* Tests for the LDR protocol: the feasibility conditions, the route
   table (Procedure 3), and full protocol behaviour over the idealized
   test network, including the T-bit path reset and a loop-freedom
   property test under random topology churn. *)

open Sim
open Packets

open Ldr

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let n = Node_id.of_int
let sn stamp counter = { Seqnum.stamp; counter }

(* ---- Conditions (Section 2.1) ------------------------------------------ *)

let ndc_cases () =
  (* Higher number: acceptable regardless of distance. *)
  checkb "newer sn" true
    (Conditions.ndc ~sn:(sn 0 0) ~fd:2 ~adv_sn:(sn 0 1) ~adv_dist:99);
  (* Equal number: distance must beat fd strictly. *)
  checkb "equal sn, shorter than fd" true
    (Conditions.ndc ~sn:(sn 0 0) ~fd:3 ~adv_sn:(sn 0 0) ~adv_dist:2);
  checkb "equal sn, equal to fd" false
    (Conditions.ndc ~sn:(sn 0 0) ~fd:3 ~adv_sn:(sn 0 0) ~adv_dist:3);
  checkb "equal sn, longer" false
    (Conditions.ndc ~sn:(sn 0 0) ~fd:3 ~adv_sn:(sn 0 0) ~adv_dist:5);
  (* Older number: never acceptable. *)
  checkb "older sn" false
    (Conditions.ndc ~sn:(sn 0 5) ~fd:3 ~adv_sn:(sn 0 4) ~adv_dist:0)

let fdc_cases () =
  (* Violation requires equal numbers and fd >= requested fd. *)
  checkb "equal sn, fd >= req" true
    (Conditions.fdc_requires_reset ~sn:(sn 0 0) ~fd:4 ~req_sn:(Some (sn 0 0))
       ~req_fd:2);
  checkb "equal sn, fd < req" false
    (Conditions.fdc_requires_reset ~sn:(sn 0 0) ~fd:1 ~req_sn:(Some (sn 0 0))
       ~req_fd:2);
  checkb "different sn no constraint" false
    (Conditions.fdc_requires_reset ~sn:(sn 0 1) ~fd:4 ~req_sn:(Some (sn 0 0))
       ~req_fd:2);
  checkb "unknown requested sn no constraint" false
    (Conditions.fdc_requires_reset ~sn:(sn 0 0) ~fd:4 ~req_sn:None ~req_fd:2)

let sdc_cases () =
  (* Equal sn: needs active route, distance strictly under the answering
     bound, and no pending reset. *)
  checkb "answerable" true
    (Conditions.sdc ~sn:(sn 0 0) ~dist:1 ~active:true ~req_sn:(Some (sn 0 0))
       ~answer_dist:2 ~reset:false);
  checkb "distance too long" false
    (Conditions.sdc ~sn:(sn 0 0) ~dist:2 ~active:true ~req_sn:(Some (sn 0 0))
       ~answer_dist:2 ~reset:false);
  checkb "inactive route" false
    (Conditions.sdc ~sn:(sn 0 0) ~dist:1 ~active:false ~req_sn:(Some (sn 0 0))
       ~answer_dist:2 ~reset:false);
  checkb "reset inhibits" false
    (Conditions.sdc ~sn:(sn 0 0) ~dist:1 ~active:true ~req_sn:(Some (sn 0 0))
       ~answer_dist:2 ~reset:true);
  (* Higher number answers even through a reset. *)
  checkb "newer sn answers through reset" true
    (Conditions.sdc ~sn:(sn 0 1) ~dist:9 ~active:true ~req_sn:(Some (sn 0 0))
       ~answer_dist:2 ~reset:true);
  (* Requester with no info accepts any active route. *)
  checkb "unknown sn treated as lowest" true
    (Conditions.sdc ~sn:(sn 0 0) ~dist:9 ~active:true ~req_sn:None
       ~answer_dist:Conditions.infinity ~reset:false);
  (* sdc_ignoring_reset identifies the unicast-conversion node. *)
  checkb "ignoring reset" true
    (Conditions.sdc_ignoring_reset ~sn:(sn 0 0) ~dist:1 ~active:true
       ~req_sn:(Some (sn 0 0)) ~answer_dist:2)

(* qcheck: SDC(reset=false) is implied by SDC ignoring reset; FDC and SDC
   for equal sn are mutually exclusive when the route is "perfect". *)
let sdc_fdc_relation_prop =
  let gen = QCheck.(triple (int_bound 20) (int_bound 20) (int_bound 20)) in
  QCheck.Test.make ~name:"fdc violation implies sdc distance may fail" ~count:500 gen
    (fun (d, _fd, req_fd) ->
      (* SDC reads the distance, not the feasible distance. *)
      let req_sn = Some (sn 0 0) in
      let sdc_ok =
        Conditions.sdc ~sn:(sn 0 0) ~dist:d ~active:true ~req_sn
          ~answer_dist:req_fd ~reset:false
      in
      let ignoring =
        Conditions.sdc_ignoring_reset ~sn:(sn 0 0) ~dist:d ~active:true ~req_sn
          ~answer_dist:req_fd
      in
      (* Without a reset bit the two coincide. *)
      sdc_ok = ignoring)

(* ---- Route_table (Procedure 3) ------------------------------------------ *)

let table () =
  let engine = Engine.create () in
  (engine, Route_table.create ~engine ())

let lifetime = Time.sec 100.

let rt_install_and_invariants () =
  let _, t = table () in
  (match Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 0) ~adv_dist:3
           ~via:(n 1) ~lifetime with
  | `Installed -> ()
  | _ -> Alcotest.fail "fresh install");
  match Route_table.find t (n 9) with
  | None -> Alcotest.fail "entry exists"
  | Some e ->
      checki "dist = adv+1" 4 e.dist;
      checki "fd = dist on first install" 4 e.fd;
      checkb "successor" true (e.next_hop = Some (n 1))

let rt_fd_ratchets_down () =
  let _, t = table () in
  ignore (Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 0) ~adv_dist:5 ~via:(n 1) ~lifetime);
  (* Shorter same-number advert accepted; fd follows down. *)
  (match Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 0) ~adv_dist:2 ~via:(n 2) ~lifetime with
  | `Installed -> ()
  | _ -> Alcotest.fail "shorter accepted");
  let e = Option.get (Route_table.find t (n 9)) in
  checki "dist" 3 e.dist;
  checki "fd ratcheted" 3 e.fd;
  (* Longer same-number advert from a third node: rejected (NDC). *)
  (match Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 0) ~adv_dist:4 ~via:(n 3) ~lifetime with
  | `Rejected -> ()
  | _ -> Alcotest.fail "longer rejected");
  checki "fd unchanged" 3 e.fd

let rt_seqnum_resets_fd () =
  let _, t = table () in
  ignore (Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 0) ~adv_dist:1 ~via:(n 1) ~lifetime);
  (* Newer number with longer distance: accepted, fd resets upward. *)
  (match Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 1) ~adv_dist:7 ~via:(n 2) ~lifetime with
  | `Installed -> ()
  | _ -> Alcotest.fail "newer sn accepted");
  let e = Option.get (Route_table.find t (n 9)) in
  checki "dist" 8 e.dist;
  checki "fd reset to new dist" 8 e.fd;
  checkb "new successor" true (e.next_hop = Some (n 2))

let rt_stable_path_rule () =
  let _, t = table () in
  ignore (Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 0) ~adv_dist:4 ~via:(n 1) ~lifetime);
  (* Equal-length NDC-acceptable alternative (adv_dist < fd? 4 < 5 no...).
     Use: current dist 5 fd 5; competitor advert dist 4 => new dist 5, not
     shorter => stable-path keeps successor 1. *)
  (match Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 0) ~adv_dist:4 ~via:(n 2) ~lifetime with
  | `Rejected -> ()
  | _ -> Alcotest.fail "same-length switch refused");
  let e = Option.get (Route_table.find t (n 9)) in
  checkb "kept successor" true (e.next_hop = Some (n 1))

let rt_invalidate_keeps_invariants () =
  let _, t = table () in
  ignore (Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 3) ~adv_dist:2 ~via:(n 1) ~lifetime);
  Route_table.invalidate t (n 9);
  checkb "no successor" true (Route_table.successor t (n 9) = None);
  let e = Option.get (Route_table.find t (n 9)) in
  checkb "sn kept" true (Seqnum.equal e.sn (sn 0 3));
  checki "fd kept" 3 e.fd;
  (* A same-number advert no better than fd is still rejected after
     invalidation — the invariant persists across failures. *)
  match Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 3) ~adv_dist:3 ~via:(n 2) ~lifetime with
  | `Rejected -> ()
  | _ -> Alcotest.fail "post-invalidation feasibility still enforced"

let rt_invalidate_via () =
  let _, t = table () in
  ignore (Route_table.apply_advert t ~dst:(n 8) ~adv_sn:(sn 0 0) ~adv_dist:1 ~via:(n 1) ~lifetime);
  ignore (Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 0) ~adv_dist:2 ~via:(n 1) ~lifetime);
  ignore (Route_table.apply_advert t ~dst:(n 7) ~adv_sn:(sn 0 0) ~adv_dist:2 ~via:(n 2) ~lifetime);
  let dead = Route_table.invalidate_via t (n 1) in
  checki "two routes died" 2 (List.length dead);
  checkb "7 survived" true (Route_table.successor t (n 7) <> None)

(* A RERR from a neighbor kills only the route through it. *)
let rt_fail_route () =
  let _, t = table () in
  ignore (Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 0) ~adv_dist:1 ~via:(n 1) ~lifetime);
  checkb "other neighbor: untouched" true
    (Route_table.fail_route t (n 9) ~via:(n 2) = `Untouched);
  checkb "unknown destination: untouched" true
    (Route_table.fail_route t (n 8) ~via:(n 1) = `Untouched);
  checkb "successor: invalidated" true
    (Route_table.fail_route t (n 9) ~via:(n 1) = `Invalidated);
  checkb "no successor left" true (Route_table.successor t (n 9) = None);
  checkb "already invalid: untouched" true
    (Route_table.fail_route t (n 9) ~via:(n 1) = `Untouched)

let rt_expiry () =
  let engine, t = table () in
  ignore (Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 0) ~adv_dist:1 ~via:(n 1)
            ~lifetime:(Time.sec 3.));
  ignore
    (Engine.at engine (Time.sec 2.) (fun () ->
         checkb "active at 2s" true (Route_table.active t (n 9) <> None);
         (* Refresh pushes expiry out. *)
         Route_table.refresh t (Option.get (Route_table.find t (n 9)))
           ~lifetime:(Time.sec 3.)));
  ignore
    (Engine.at engine (Time.sec 4.) (fun () ->
         checkb "still active after refresh" true (Route_table.active t (n 9) <> None)));
  ignore
    (Engine.at engine (Time.sec 10.) (fun () ->
         checkb "expired eventually" true (Route_table.active t (n 9) = None);
         checkb "successor hides expired" true (Route_table.successor t (n 9) = None)));
  Engine.run engine

(* The remaining lifetime counts down with the clock; a refresh never
   shortens it; an expired entry keeps its invariants. *)
let rt_remaining_lifetime () =
  let engine, t = table () in
  ignore (Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 2) ~adv_dist:1 ~via:(n 1)
            ~lifetime:(Time.sec 3.));
  let e = Option.get (Route_table.find t (n 9)) in
  checkb "full lifetime at install" true
    (Time.equal (Route_table.remaining_lifetime t e) (Time.sec 3.));
  ignore
    (Engine.at engine (Time.sec 2.) (fun () ->
         checkb "one second left" true
           (Time.equal (Route_table.remaining_lifetime t e) (Time.sec 1.));
         Route_table.refresh t e ~lifetime:(Time.ms 500.);
         checkb "shorter refresh ignored" true
           (Time.equal (Route_table.remaining_lifetime t e) (Time.sec 1.))));
  ignore
    (Engine.at engine (Time.sec 5.) (fun () ->
         checkb "none left" true
           (Time.equal (Route_table.remaining_lifetime t e) Time.zero);
         checkb "inactive" false (Route_table.is_active t e);
         checkb "sn kept" true (Seqnum.equal e.sn (sn 0 2));
         checki "fd kept" 2 e.fd));
  Engine.run engine

(* Each dead route is reported once: a second loss of the same neighbor
   finds nothing left to invalidate. *)
let rt_invalidate_via_once () =
  let _, t = table () in
  ignore (Route_table.apply_advert t ~dst:(n 8) ~adv_sn:(sn 0 0) ~adv_dist:1 ~via:(n 1) ~lifetime);
  ignore (Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 0) ~adv_dist:2 ~via:(n 1) ~lifetime);
  Route_table.invalidate t (n 8);
  checkb "only the live route" true
    (List.map Node_id.to_int (Route_table.invalidate_via t (n 1)) = [ 9 ]);
  checkb "nothing twice" true (Route_table.invalidate_via t (n 1) = []);
  checkb "unknown neighbor" true (Route_table.invalidate_via t (n 5) = [])

(* The stable-path rule guards only an active route: once invalidated,
   an equal-length feasible route through another neighbor is taken. *)
let rt_equal_length_after_invalidation () =
  let _, t = table () in
  ignore (Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 0) ~adv_dist:2 ~via:(n 1) ~lifetime);
  Route_table.invalidate t (n 9);
  (match Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 0) ~adv_dist:2 ~via:(n 2) ~lifetime with
  | `Installed -> ()
  | _ -> Alcotest.fail "equal-length route taken");
  checkb "new successor" true (Route_table.successor t (n 9) = Some (n 2));
  checki "fd" 3 (Option.get (Route_table.find t (n 9))).fd

(* Likewise once the route has expired. *)
let rt_expired_route_replaced () =
  let engine, t = table () in
  ignore (Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 0) ~adv_dist:2 ~via:(n 1)
            ~lifetime:(Time.sec 1.));
  ignore
    (Engine.at engine (Time.sec 2.) (fun () ->
         match Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 0) ~adv_dist:2
                 ~via:(n 2) ~lifetime with
         | `Installed ->
             checkb "new successor" true (Route_table.successor t (n 9) = Some (n 2))
         | _ -> Alcotest.fail "route after expiry taken"));
  Engine.run engine

(* Table writes seen on the bus, as (dst, old successor, new successor). *)
let observed_table () =
  let engine = Engine.create () in
  let bus = Obs.Bus.create () in
  let writes = ref [] in
  Obs.Bus.add_sink bus (fun ev ->
      if ev.Obs.Event.kind = Obs.Event.Table_write then
        writes := (ev.a, ev.b, ev.c) :: !writes);
  (Route_table.create ~obs:bus ~owner:5 ~engine (), writes)

(* Every structural write is on the bus; a rejected advert or a repeated
   invalidation writes nothing. *)
let rt_writes_observed () =
  let t, writes = observed_table () in
  ignore (Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 0) ~adv_dist:2 ~via:(n 1) ~lifetime);
  ignore (Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 0) ~adv_dist:2 ~via:(n 2) ~lifetime);
  ignore (Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 0) ~adv_dist:0 ~via:(n 2) ~lifetime);
  Route_table.invalidate t (n 9);
  Route_table.invalidate t (n 9);
  checkb "install, switch, invalidate" true
    (List.rev !writes = [ (9, -1, 1); (9, 1, 2); (9, 2, -1) ])

(* Churn teardown empties the table and reports every live successor
   going away, and nothing for a route already invalid. *)
let rt_clear_observed () =
  let t, writes = observed_table () in
  ignore (Route_table.apply_advert t ~dst:(n 8) ~adv_sn:(sn 0 0) ~adv_dist:1 ~via:(n 1) ~lifetime);
  ignore (Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 0) ~adv_dist:1 ~via:(n 2) ~lifetime);
  Route_table.invalidate t (n 8);
  writes := [];
  Route_table.clear t;
  checkb "one teardown write" true (!writes = [ (9, 2, -1) ]);
  checkb "8 gone" true (Route_table.find t (n 8) = None);
  checkb "9 gone" true (Route_table.find t (n 9) = None)

(* fd is non-increasing for a fixed sequence number under arbitrary
   NDC-accepted advertisement streams (the paper's key invariant). *)
let rt_fd_monotone_prop =
  QCheck.Test.make ~name:"fd non-increasing within a seqnum" ~count:300
    QCheck.(list (pair (int_bound 3) (int_bound 15)))
    (fun adverts ->
      let _, t = table () in
      let ok = ref true in
      let last_fd = ref max_int and last_sn = ref (-1) in
      List.iter
        (fun (counter, dist) ->
          ignore
            (Route_table.apply_advert t ~dst:(n 9) ~adv_sn:(sn 0 counter)
               ~adv_dist:dist ~via:(n (1 + (dist mod 3))) ~lifetime);
          match Route_table.find t (n 9) with
          | None -> ()
          | Some e ->
              if e.sn.Seqnum.counter = !last_sn && e.fd > !last_fd then ok := false;
              if e.fd > e.dist then ok := false;
              last_fd := e.fd;
              last_sn := e.sn.Seqnum.counter)
        adverts;
      !ok)

(* ---- Protocol behaviour over the test network ---------------------------- *)

module TN = Graph_net

let make_net k =
  let net = TN.create ~seed:3 ~factory:(Protocol.factory ()) ~n:k () in
  (TN.engine net, net)

let make_net_debug ?(config = Config.default) k =
  let debugs = Array.make k None in
  let factory (ctx : Routing.Agent.ctx) =
    let agent, dbg = Protocol.factory_with_debug ~config () ctx in
    debugs.(Node_id.to_int ctx.id) <- Some dbg;
    agent
  in
  let net = TN.create ~seed:3 ~factory ~n:k () in
  (TN.engine net, net, fun i -> Option.get debugs.(i))

let discovery_on_chain () =
  let _, net = make_net 5 in
  TN.connect_chain net [ 0; 1; 2; 3; 4 ];
  TN.origin net ~src:0 ~dst:4;
  TN.run net ~for_:(Time.sec 3.);
  checki "delivered across 4 hops" 1 (TN.delivered net);
  checkb "hop metric counted the path" true
    (abs_float (Experiment.Metrics.mean_hops (TN.metrics net) -. 4.) < 1e-9)

let no_route_to_partitioned () =
  let _, net = make_net 4 in
  TN.connect net 0 1;
  (* 2,3 unreachable *)
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 60.);
  checki "nothing delivered" 0 (TN.delivered net);
  (* The buffered packet must have been reported dropped. *)
  let drops = Experiment.Metrics.drops_by_reason (TN.metrics net) in
  checkb "discovery failed drop" true
    (List.mem_assoc "discovery-failed" drops)

let repair_after_failure () =
  let _, net = make_net 5 in
  TN.connect_chain net [ 0; 1; 2 ];
  TN.connect_chain net [ 0; 3; 2 ];
  (* two disjoint paths 0-1-2 / 0-3-2 *)
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 2.);
  checki "first delivery" 1 (TN.delivered net);
  (* Break whichever path was used; the protocol must fail over. *)
  TN.disconnect net 0 1;
  TN.disconnect net 1 2;
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 5.);
  checki "second delivery after repair" 2 (TN.delivered net)

let intermediate_reply () =
  let _, net = make_net 5 in
  TN.connect_chain net [ 0; 1; 2; 3; 4 ];
  (* Prime node 1..4 with routes to 4 by a first discovery from 0. *)
  TN.origin net ~src:0 ~dst:4;
  TN.run net ~for_:(Time.sec 3.);
  let rreps_before = Experiment.Metrics.event_count (TN.metrics net) "rrep_init" in
  checkb "someone replied" true (rreps_before >= 1);
  TN.run net ~for_:(Time.sec 3.);
  checki "delivered" 1 (TN.delivered net)

let seqno_stays_low_without_resets () =
  let _, net, dbg = make_net_debug 5 in
  TN.connect_chain net [ 0; 1; 2; 3; 4 ];
  for _ = 1 to 3 do
    TN.origin net ~src:0 ~dst:4;
    TN.run net ~for_:(Time.sec 2.)
  done;
  checki "all delivered" 3 (TN.delivered net);
  (* No link ever failed, so the destination never needed to reset. *)
  checki "destination seqno untouched" 0
    (Seqnum.increments ((dbg 4).Protocol.own_sn ()))

let t_bit_reset_increments_destination () =
  (* Engineer the Figure-1 situation minimally: drive the origin's fd
     down to 2 via a shortcut, then break the shortcut — the re-flood
     with fd 2 cannot be answered by anyone (node 1's fd violates FDC and
     sets the T bit; node 2's distance fails the answering bound), so the
     request must reset through the destination. *)
  let _, net, dbg = make_net_debug 4 in
  TN.connect_chain net [ 0; 1; 2; 3 ];
  (* Discover once: 0 gets dist 3, fd 3. *)
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 3.);
  checki "first delivered" 1 (TN.delivered net);
  let before = Seqnum.increments ((dbg 3).Protocol.own_sn ()) in
  (* Shortcut 0-2 and kill 0-1 so the rediscovery adopts it: fd drops to
     min(3, 2) = 2. *)
  TN.connect net 0 2;
  TN.disconnect net 0 1;
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 3.);
  let e0 = Option.get (Route_table.find (dbg 0).Protocol.table (n 3)) in
  checki "fd shrank to 2" 2 e0.fd;
  (* Restore 0-1, break the shortcut: the re-flood carries fd 2 and needs
     the T-bit reset through the destination. *)
  TN.connect net 0 1;
  TN.disconnect net 0 2;
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 6.);
  let after = Seqnum.increments ((dbg 3).Protocol.own_sn ()) in
  checkb "delivered all three" true (TN.delivered net = 3);
  checkb "destination incremented for the reset" true (after > before)

let rerr_cascades () =
  let _, net = make_net 5 in
  TN.connect_chain net [ 0; 1; 2; 3; 4 ];
  TN.origin net ~src:0 ~dst:4;
  TN.run net ~for_:(Time.sec 3.);
  checki "delivered" 1 (TN.delivered net);
  (* Break 3-4; send again: node 3 detects on forward, RERRs cascade and
     the source rediscovers (and fails: 4 unreachable now). *)
  TN.disconnect net 3 4;
  TN.origin net ~src:0 ~dst:4;
  TN.run net ~for_:(Time.sec 60.);
  checki "no second delivery" 1 (TN.delivered net);
  let m = TN.metrics net in
  checkb "rerr was sent" true
    (Experiment.Metrics.event_count m "rreq_init" >= 2)

let multiple_rreps_allows_stronger () =
  (* With the optimization on, a later stronger RREP for the same
     computation is relayed, improving the origin's route. *)
  let _, net = make_net 6 in
  (* Diamond: 0-1-2-5 (long) and 2-3... build: 0 connects 1; 1 connects 2
     and 4; 2->5 via 3: paths 0-1-2-3-5 and 0-1-4-5. *)
  TN.connect_chain net [ 0; 1; 2; 3; 5 ];
  TN.connect_chain net [ 1; 4; 5 ];
  TN.origin net ~src:0 ~dst:5;
  TN.run net ~for_:(Time.sec 3.);
  checki "delivered" 1 (TN.delivered net);
  (* 0's route should settle on the short branch eventually. *)
  let succ = (TN.agent net 0).Routing.Agent.successor (n 5) in
  checkb "has successor" true (succ <> None)

let request_as_error_invalidates () =
  (* A asks its own next hop B for D: B hearing the request treats it as
     evidence A lost the route... here we check the reverse direction:
     node 1 uses 2 as next hop toward 3; when 2 (route lost) floods a
     RREQ for 3 with an answering bound exceeding 1's position, node 1
     must invalidate its route through 2 rather than answer. *)
  let config = { Config.default with opt_request_as_error = true } in
  let _, net, dbg = make_net_debug ~config 4 in
  TN.connect_chain net [ 0; 1; 2; 3 ];
  TN.origin net ~src:1 ~dst:3;
  TN.run net ~for_:(Time.sec 2.);
  checki "primed" 1 (TN.delivered net);
  checkb "1 routes via 2" true
    ((TN.agent net 1).Routing.Agent.successor (n 3) = Some (n 2));
  (* Now 2 loses its route to 3 (break 2-3) and rediscovers: its RREQ for
     3 reaches 1. *)
  TN.disconnect net 2 3;
  TN.origin net ~src:2 ~dst:3;
  TN.run net ~for_:(Time.ms 300.);
  let e = Route_table.find (dbg 1).Protocol.table (n 3) in
  checkb "1's route via 2 invalidated" true
    (match e with Some e -> e.next_hop <> Some (n 2) | None -> true)

(* The answering distance an origin asks for in a rediscovery, once its
   feasible distance to the destination is known (fd 10 down an 11-node
   chain): the paper's reduced-distance optimization lowers it to
   floor(0.8 fd) = 8; without it the request carries fd itself.  Node 0's
   [ctx.send] is wrapped to capture its own RREQs. *)
let rediscovery_bound ~config =
  let sent = ref [] in
  let capture (ctx : Routing.Agent.ctx) =
    let send ~dst p =
      (match p with
      | Payload.Ldr (Ldr_msg.Rreq r) when Node_id.equal r.origin ctx.id ->
          sent := r :: !sent
      | _ -> ());
      ctx.send ~dst p
    in
    Protocol.factory ~config () { ctx with send }
  in
  let factory (ctx : Routing.Agent.ctx) =
    if Node_id.to_int ctx.id = 0 then capture ctx
    else Protocol.factory ~config () ctx
  in
  let net = TN.create ~seed:3 ~factory ~n:11 () in
  TN.connect_chain net (List.init 11 Fun.id);
  TN.origin net ~src:0 ~dst:10;
  TN.run net ~for_:(Time.sec 5.);
  checki "first delivered" 1 (TN.delivered net);
  (* Idle past the 3 s active-route timeout: the route expires, its fd
     stays, and the next packet rediscovers. *)
  TN.run net ~for_:(Time.sec 4.);
  sent := [];
  TN.origin net ~src:0 ~dst:10;
  TN.run net ~for_:(Time.sec 5.);
  checki "second delivered" 2 (TN.delivered net);
  match List.rev !sent with
  | [] -> Alcotest.fail "no rediscovery RREQ"
  | r :: _ ->
      checki "requested fd" 10 r.Ldr_msg.fd;
      r.Ldr_msg.answer_dist

let reduced_distance_lowers_bound () =
  checki "floor(0.8 fd) with the optimization" 8
    (rediscovery_bound ~config:Config.default);
  checki "fd without it" 10 (rediscovery_bound ~config:Config.plain)

let buffered_packets_flushed_in_order () =
  let _, net = make_net 3 in
  TN.connect_chain net [ 0; 1; 2 ];
  (* Three packets before any route exists: all must arrive. *)
  TN.origin net ~src:0 ~dst:2;
  TN.origin net ~src:0 ~dst:2;
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 3.);
  checki "all three delivered" 3 (TN.delivered net)

(* Distances count hops: after one discovery down a chain every node
   holds the hop count to both ends, with fd equal to it. *)
let distances_count_hops () =
  let _, net, dbg = make_net_debug 5 in
  TN.connect_chain net [ 0; 1; 2; 3; 4 ];
  TN.origin net ~src:0 ~dst:4;
  TN.run net ~for_:(Time.sec 2.);
  checki "delivered" 1 (TN.delivered net);
  let check_entry i ~dst hops =
    match Route_table.find (dbg i).Protocol.table (n dst) with
    | None -> Alcotest.failf "node %d has no entry for %d" i dst
    | Some e ->
        checki (Printf.sprintf "dist %d->%d" i dst) hops e.dist;
        checki (Printf.sprintf "fd %d->%d" i dst) hops e.fd
  in
  for i = 0 to 3 do check_entry i ~dst:4 (4 - i) done;
  for i = 1 to 4 do check_entry i ~dst:0 i done

(* The destination advertises its own route for the 6 s my-route
   timeout, and the origin's route, installed from that reply, lives
   exactly that long once the traffic stops.  Node 2's [ctx.send] is
   wrapped to capture its replies. *)
let destination_reply_lifetime () =
  let replies = ref [] in
  let capture (ctx : Routing.Agent.ctx) =
    let send ~dst p =
      (match p with
      | Payload.Ldr (Ldr_msg.Rrep r) when Node_id.equal r.dst ctx.id ->
          replies := r :: !replies
      | _ -> ());
      ctx.send ~dst p
    in
    Protocol.factory () { ctx with send }
  in
  let factory (ctx : Routing.Agent.ctx) =
    if Node_id.to_int ctx.id = 2 then capture ctx else Protocol.factory () ctx
  in
  let net = TN.create ~seed:3 ~factory ~n:3 () in
  TN.connect_chain net [ 0; 1; 2 ];
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 5.);
  checki "delivered" 1 (TN.delivered net);
  (match !replies with
  | [ r ] ->
      checkb "my-route timeout" true (Time.equal r.Ldr_msg.lifetime (Time.sec 6.));
      checki "zero distance" 0 r.Ldr_msg.dist
  | l -> Alcotest.failf "%d destination replies" (List.length l));
  checkb "route alive at 5 s" true ((TN.agent net 0).Routing.Agent.successor (n 2) = Some (n 1));
  TN.run net ~for_:(Time.sec 2.);
  checkb "route expired at 7 s" true ((TN.agent net 0).Routing.Agent.successor (n 2) = None)

(* The flagship property: random topologies, random churn, random traffic
   — after every event the successor graph is loop-free. *)
let loop_freedom_prop ~name ~config =
  QCheck.Test.make ~name ~count:25
    QCheck.(int_bound 10_000)
    (fun seed ->
      let k = 8 in
      let net =
        TN.create ~seed ~factory:(Protocol.factory ~config ()) ~n:k ()
      in
      let rng = Rng.create (seed * 7) in
      (* Random initial topology, reasonably dense. *)
      for a = 0 to k - 1 do
        for b = a + 1 to k - 1 do
          if Rng.coin rng 0.4 then TN.connect net a b
        done
      done;
      let ok = ref true in
      for _ = 1 to 60 do
        (* Random event: traffic, link up, or link down. *)
        (match Rng.int rng 4 with
        | 0 | 1 ->
            let s = Rng.int rng k in
            let d = (s + 1 + Rng.int rng (k - 1)) mod k in
            TN.origin net ~src:s ~dst:d
        | 2 ->
            let a = Rng.int rng k and b = Rng.int rng k in
            if a <> b then TN.connect net a b
        | _ ->
            let a = Rng.int rng k and b = Rng.int rng k in
            TN.disconnect net a b);
        TN.run net ~for_:(Time.ms (float_of_int (10 + Rng.int rng 500)));
        if TN.find_cycle net <> None then ok := false
      done;
      !ok)

(* Theorem 2 (ordering criteria), executed: along every successor edge
   A -> B for destination D it always holds that sn_B > sn_A, or
   sn_B = sn_A and fd_B < fd_A.  Strictly stronger than acyclicity. *)
let ordering_criteria_prop =
  QCheck.Test.make ~name:"Theorem 2: (sn, fd) strictly ordered along paths"
    ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let k = 8 in
      let debugs = Array.make k None in
      let factory (ctx : Routing.Agent.ctx) =
        let agent, dbg = Protocol.factory_with_debug () ctx in
        debugs.(Node_id.to_int ctx.id) <- Some dbg;
        agent
      in
      let net = TN.create ~seed ~factory ~n:k () in
      let dbg i = Option.get debugs.(i) in
      let rng = Rng.create (seed + 99) in
      for a = 0 to k - 1 do
        for b = a + 1 to k - 1 do
          if Rng.coin rng 0.4 then TN.connect net a b
        done
      done;
      let ordered () =
        let ok = ref true in
        for a = 0 to k - 1 do
          for d = 0 to k - 1 do
            if a <> d then begin
              let dst = Node_id.of_int d in
              match Route_table.active (dbg a).Protocol.table dst with
              | None -> ()
              | Some ea -> (
                  match ea.Route_table.next_hop with
                  | None -> ()
                  | Some b when Node_id.equal b dst ->
                      (* The destination's own invariants are (own_sn, 0):
                         require own_sn >= sn_A (fd 0 < fd_A always). *)
                      if
                        not
                          (Seqnum.(
                             (dbg (Node_id.to_int b)).Protocol.own_sn ()
                             >= ea.Route_table.sn))
                      then ok := false
                  | Some b -> (
                      match
                        Route_table.find (dbg (Node_id.to_int b)).Protocol.table
                          dst
                      with
                      | None -> ok := false
                      | Some eb ->
                          let sn_gt = Seqnum.(eb.Route_table.sn > ea.Route_table.sn) in
                          let sn_eq =
                            Seqnum.equal eb.Route_table.sn ea.Route_table.sn
                          in
                          if
                            not
                              (sn_gt
                              || (sn_eq && eb.Route_table.fd < ea.Route_table.fd))
                          then ok := false))
            end
          done
        done;
        !ok
      in
      let all_ok = ref true in
      for _ = 1 to 50 do
        (match Rng.int rng 4 with
        | 0 | 1 ->
            let s = Rng.int rng k in
            let d = (s + 1 + Rng.int rng (k - 1)) mod k in
            TN.origin net ~src:s ~dst:d
        | 2 ->
            let a = Rng.int rng k and b = Rng.int rng k in
            if a <> b then TN.connect net a b
        | _ ->
            let a = Rng.int rng k and b = Rng.int rng k in
            TN.disconnect net a b);
        TN.run net ~for_:(Time.ms (float_of_int (10 + Rng.int rng 400)));
        if not (ordered ()) then all_ok := false
      done;
      !all_ok)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ldr"
    [
      ( "conditions",
        [
          Alcotest.test_case "NDC" `Quick ndc_cases;
          Alcotest.test_case "FDC" `Quick fdc_cases;
          Alcotest.test_case "SDC" `Quick sdc_cases;
          qt sdc_fdc_relation_prop;
        ] );
      ( "route_table",
        [
          Alcotest.test_case "install" `Quick rt_install_and_invariants;
          Alcotest.test_case "fd ratchets down" `Quick rt_fd_ratchets_down;
          Alcotest.test_case "seqnum resets fd" `Quick rt_seqnum_resets_fd;
          Alcotest.test_case "stable path rule" `Quick rt_stable_path_rule;
          Alcotest.test_case "invalidation keeps invariants" `Quick
            rt_invalidate_keeps_invariants;
          Alcotest.test_case "invalidate via neighbor" `Quick rt_invalidate_via;
          Alcotest.test_case "fail route" `Quick rt_fail_route;
          Alcotest.test_case "expiry and refresh" `Quick rt_expiry;
          Alcotest.test_case "remaining lifetime" `Quick rt_remaining_lifetime;
          Alcotest.test_case "invalidate via reports once" `Quick rt_invalidate_via_once;
          Alcotest.test_case "equal length after invalidation" `Quick
            rt_equal_length_after_invalidation;
          Alcotest.test_case "expired route replaced" `Quick rt_expired_route_replaced;
          Alcotest.test_case "writes observed" `Quick rt_writes_observed;
          Alcotest.test_case "clear observed" `Quick rt_clear_observed;
          qt rt_fd_monotone_prop;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "discovery on chain" `Quick discovery_on_chain;
          Alcotest.test_case "partitioned destination" `Quick no_route_to_partitioned;
          Alcotest.test_case "repair after failure" `Quick repair_after_failure;
          Alcotest.test_case "intermediate reply" `Quick intermediate_reply;
          Alcotest.test_case "seqno stays low" `Quick seqno_stays_low_without_resets;
          Alcotest.test_case "T-bit reset increments destination" `Quick
            t_bit_reset_increments_destination;
          Alcotest.test_case "rerr cascades" `Quick rerr_cascades;
          Alcotest.test_case "multiple rreps" `Quick multiple_rreps_allows_stronger;
          Alcotest.test_case "request as error" `Quick request_as_error_invalidates;
          Alcotest.test_case "reduced distance config" `Quick reduced_distance_lowers_bound;
          Alcotest.test_case "buffer flush" `Quick buffered_packets_flushed_in_order;
          Alcotest.test_case "data ttl" `Quick
            (Discovery_cases.ttl_guard (Protocol.factory ()));
          Alcotest.test_case "reset mid-discovery" `Quick
            (Discovery_cases.reset_mid_discovery (Protocol.factory ()));
          Alcotest.test_case "origin rescue" `Quick
            (Discovery_cases.origin_rescue (Protocol.factory ()));
          Alcotest.test_case "distances count hops" `Quick distances_count_hops;
          Alcotest.test_case "destination reply lifetime" `Quick
            destination_reply_lifetime;
          qt
            (loop_freedom_prop ~name:"LDR loop-free under random churn"
               ~config:Config.default);
          (* Loop freedom rests on the conditions, not the optimizations. *)
          qt
            (loop_freedom_prop ~name:"plain LDR loop-free under random churn"
               ~config:Config.plain);
          qt ordering_criteria_prop;
        ] );
    ]
