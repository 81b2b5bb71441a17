(* Tests for the multipath (LFI alternate-successor) extension. *)

open Ldr
open Sim
open Packets

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let n = Node_id.of_int
let sn c = { Seqnum.stamp = 0; counter = c }
let lifetime = Time.sec 100.

let mp_table () =
  let engine = Engine.create () in
  (engine, Route_table.create ~multipath:true ~engine ())

let advert t ?(lc = 1) ~dst ~s ~d ~via () =
  Route_table.apply_advert t ~lc ~dst:(n dst) ~adv_sn:(sn s) ~adv_dist:d
    ~via:(n via) ~lifetime

(* ---- Route-table mechanics ---------------------------------------------- *)

let alternate_recorded_and_promoted () =
  let _, t = mp_table () in
  (* Primary via 1 at distance 2. *)
  ignore (advert t ~dst:9 ~s:0 ~d:1 ~via:1 ());
  (* Same-length feasible path via 2: stable-path keeps 1, records 2. *)
  (match advert t ~dst:9 ~s:0 ~d:1 ~via:2 () with
  | `Rejected -> ()
  | _ -> Alcotest.fail "stable-path keeps the primary");
  let e = Option.get (Route_table.find t (n 9)) in
  checki "one alternate" 1 (List.length e.alternates);
  (* The primary's neighbor dies: instant failover. *)
  let invalidated, promoted = Route_table.invalidate_via t (n 1) in
  checki "nothing invalidated" 0 (List.length invalidated);
  checki "one promotion" 1 (List.length promoted);
  checkb "now via 2" true (Route_table.successor t (n 9) = Some (n 2));
  let e = Option.get (Route_table.find t (n 9)) in
  checki "distance through alternate" 2 e.dist;
  checki "fd untouched" 2 e.fd;
  checki "alternate consumed" 0 (List.length e.alternates)

let infeasible_alternate_not_kept () =
  let _, t = mp_table () in
  ignore (advert t ~dst:9 ~s:0 ~d:1 ~via:1 ());
  (* fd = 2: an advert at distance 2 violates LFI (2 < 2 is false) and is
     rejected outright by NDC — no alternate. *)
  (match advert t ~dst:9 ~s:0 ~d:2 ~via:2 () with
  | `Rejected -> ()
  | _ -> Alcotest.fail "ndc rejects");
  let e = Option.get (Route_table.find t (n 9)) in
  checki "no alternate" 0 (List.length e.alternates);
  let invalidated, promoted = Route_table.invalidate_via t (n 1) in
  checki "invalidated" 1 (List.length invalidated);
  checki "no promotion" 0 (List.length promoted)

let fd_shrink_prunes_alternates () =
  let _, t = mp_table () in
  (* Primary at distance 5 (fd 5); alternate at advertised 3. *)
  ignore (advert t ~dst:9 ~s:0 ~d:4 ~via:1 ());
  ignore (advert t ~dst:9 ~s:0 ~d:4 ~via:2 ());
  (* ndc: 4 < fd 5, same length -> alternate *)
  let e = Option.get (Route_table.find t (n 9)) in
  checki "alternate stored" 1 (List.length e.alternates);
  (* A much shorter primary arrives: fd ratchets to 2; the stored
     alternate (advertised 4) is no longer feasible. *)
  ignore (advert t ~dst:9 ~s:0 ~d:1 ~via:3 ());
  let invalidated, promoted = Route_table.invalidate_via t (n 3) in
  checki "stale alternate not promoted" 1 (List.length invalidated);
  checki "no promotion" 0 (List.length promoted)

let seqnum_change_clears_alternates () =
  let _, t = mp_table () in
  ignore (advert t ~dst:9 ~s:0 ~d:3 ~via:1 ());
  ignore (advert t ~dst:9 ~s:0 ~d:3 ~via:2 ());
  (* Newer number: alternates refer to the old one and must go. *)
  ignore (advert t ~dst:9 ~s:1 ~d:6 ~via:3 ());
  let e = Option.get (Route_table.find t (n 9)) in
  checki "alternates cleared" 0 (List.length e.alternates)

let fail_route_semantics () =
  let _, t = mp_table () in
  ignore (advert t ~dst:9 ~s:0 ~d:1 ~via:1 ());
  ignore (advert t ~dst:9 ~s:0 ~d:1 ~via:2 ());
  checkb "untouched for wrong via" true
    (Route_table.fail_route t (n 9) ~via:(n 5) = `Untouched);
  checkb "promoted" true (Route_table.fail_route t (n 9) ~via:(n 1) = `Promoted);
  checkb "then invalidated" true
    (Route_table.fail_route t (n 9) ~via:(n 2) = `Invalidated);
  checkb "absent dst untouched" true
    (Route_table.fail_route t (n 5) ~via:(n 1) = `Untouched)

let best_alternate_is_shortest () =
  let _, t = mp_table () in
  ignore (advert t ~dst:9 ~s:0 ~d:4 ~via:1 ());
  (* fd 5 *)
  ignore (advert t ~dst:9 ~s:0 ~d:4 ~via:2 ());
  (* dist 5 *)
  ignore (advert t ~dst:9 ~s:0 ~d:3 ~via:3 ());
  (* 3 < fd 5: shorter -> becomes primary (dist 4, fd 4); via 2's
     alternate (adv 4) pruned (4 >= fd 4)... re-add a feasible one: *)
  ignore (advert t ~dst:9 ~s:0 ~d:3 ~via:4 ());
  (* adv 3 < fd 4, dist 4 >= dist 4 -> alternate via 4 *)
  let _, promoted = Route_table.invalidate_via t (n 3) in
  checki "promoted" 1 (List.length promoted);
  checkb "via the feasible alternate" true
    (Route_table.successor t (n 9) = Some (n 4))

(* ---- Protocol-level failover --------------------------------------------- *)

module TN = Experiment.Testnet

let mp_config = { Config.default with multipath = true }

let make_net_debug ?(config = mp_config) k =
  let engine = Engine.create ~seed:3 () in
  let debugs = Array.make k None in
  let factories =
    Array.init k (fun i ctx ->
        let agent, dbg = Protocol.factory_with_debug ~config () ctx in
        debugs.(i) <- Some dbg;
        agent)
  in
  let net = Experiment.Testnet.create_custom ~engine ~factories () in
  (engine, net, fun i -> Option.get debugs.(i))

let failover_without_rediscovery () =
  let _, net, dbg = make_net_debug 4 in
  (* Diamond: 0-1-3 and 0-2-3. *)
  TN.connect net 0 1;
  TN.connect net 0 2;
  TN.connect net 1 3;
  TN.connect net 2 3;
  (* Seed both relays with active routes so that 0's flood draws two
     replies (primary + alternate). *)
  TN.origin net ~src:1 ~dst:3;
  TN.origin net ~src:2 ~dst:3;
  TN.run net ~for_:(Time.sec 1.);
  checki "relays seeded" 2 (TN.delivered net);
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 1.);
  checki "origin delivered" 3 (TN.delivered net);
  let e0 = Option.get (Route_table.find (dbg 0).Protocol.table (n 3)) in
  checki "alternate in place" 1 (List.length e0.Route_table.alternates);
  let primary =
    match e0.Route_table.next_hop with Some h -> Node_id.to_int h | None -> -1
  in
  checkb "primary is a relay" true (primary = 1 || primary = 2);
  let rreqs_before = Experiment.Metrics.event_count (TN.metrics net) "rreq_init" in
  (* Cut the primary link: the data packet fails at the MAC, the agent
     promotes the alternate and forwards the same packet on. *)
  TN.disconnect net 0 primary;
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 2.);
  checki "delivered over the alternate" 4 (TN.delivered net);
  checki "no new discovery" rreqs_before
    (Experiment.Metrics.event_count (TN.metrics net) "rreq_init");
  checkb "promotion counted" true
    (Experiment.Metrics.event_count (TN.metrics net) "alternate_promoted" >= 1)

let loop_free_with_multipath =
  QCheck.Test.make ~name:"multipath LDR loop-free under churn" ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let engine = Engine.create ~seed () in
      let k = 8 in
      let net =
        Experiment.Testnet.create ~engine
          ~factory:(Protocol.factory ~config:mp_config ())
          ~n:k ()
      in
      let rng = Rng.create (seed * 3) in
      for a = 0 to k - 1 do
        for b = a + 1 to k - 1 do
          if Rng.coin rng 0.45 then TN.connect net a b
        done
      done;
      let ok = ref true in
      for _ = 1 to 60 do
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

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ldr-multipath"
    [
      ( "route_table",
        [
          Alcotest.test_case "record and promote" `Quick alternate_recorded_and_promoted;
          Alcotest.test_case "infeasible not kept" `Quick infeasible_alternate_not_kept;
          Alcotest.test_case "fd shrink prunes" `Quick fd_shrink_prunes_alternates;
          Alcotest.test_case "seqnum change clears" `Quick seqnum_change_clears_alternates;
          Alcotest.test_case "fail_route semantics" `Quick fail_route_semantics;
          Alcotest.test_case "best alternate" `Quick best_alternate_is_shortest;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "failover without rediscovery" `Quick
            failover_without_rediscovery;
          qt loop_free_with_multipath;
        ] );
    ]
