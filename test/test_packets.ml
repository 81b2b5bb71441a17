(* Tests for node ids, sequence numbers and message formats. *)

open Packets

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let n = Node_id.of_int

(* ---- Node_id -------------------------------------------------------- *)

let node_id_basics () =
  checki "roundtrip" 5 (Node_id.to_int (n 5));
  checkb "equal" true (Node_id.equal (n 3) (n 3));
  checkb "not equal" false (Node_id.equal (n 3) (n 4));
  checkb "ordered" true (Node_id.compare (n 1) (n 2) < 0);
  Alcotest.check Alcotest.string "pp" "n7" (Node_id.to_string (n 7));
  Alcotest.check_raises "negative" (Invalid_argument "Node_id.of_int: negative")
    (fun () -> ignore (Node_id.of_int (-1)))

let node_id_containers () =
  let s = Node_id.Set.of_list [ n 1; n 2; n 2; n 3 ] in
  checki "set dedups" 3 (Node_id.Set.cardinal s);
  let m = Node_id.Map.(empty |> add (n 1) "a" |> add (n 2) "b") in
  Alcotest.check Alcotest.string "map" "b" (Node_id.Map.find (n 2) m);
  let t = Node_id.Table.create 4 in
  Node_id.Table.replace t (n 9) 99;
  checki "table" 99 (Node_id.Table.find t (n 9))

(* ---- Seqnum ---------------------------------------------------------- *)

let seqnum_ordering () =
  let s0 = Seqnum.initial ~stamp:10 in
  let s1 = Seqnum.increment ~now_stamp:10 s0 in
  checkb "increment greater" true Seqnum.(s1 > s0);
  checkb "initial le" true Seqnum.(s0 <= s0);
  let newer_stamp = Seqnum.initial ~stamp:11 in
  checkb "stamp dominates counter" true Seqnum.(newer_stamp > s1);
  checkb "max" true (Seqnum.equal (Seqnum.max s0 s1) s1)

let seqnum_counter_wrap () =
  let s = Seqnum.initial ~stamp:1 in
  let s = Seqnum.increment ~counter_limit:3 ~now_stamp:1 s in
  let s = Seqnum.increment ~counter_limit:3 ~now_stamp:1 s in
  let s = Seqnum.increment ~counter_limit:3 ~now_stamp:1 s in
  checki "counter at limit" 3 s.Seqnum.counter;
  (* Next increment must restamp. *)
  let s' = Seqnum.increment ~counter_limit:3 ~now_stamp:5 s in
  checki "fresh stamp" 5 s'.Seqnum.stamp;
  checki "counter reset" 0 s'.Seqnum.counter;
  checkb "still increasing" true Seqnum.(s' > s)

let seqnum_increments_metric () =
  let s = Seqnum.initial ~stamp:0 in
  let s = Seqnum.increment ~now_stamp:0 s in
  let s = Seqnum.increment ~now_stamp:0 s in
  checki "2 increments" 2 (Seqnum.increments s)

let seqnum_total_order_prop =
  let gen =
    QCheck.map
      (fun (a, b) -> { Seqnum.stamp = a; counter = b })
      QCheck.(pair (int_bound 1000) (int_bound 1000))
  in
  QCheck.Test.make ~name:"seqnum total order" ~count:500 (QCheck.triple gen gen gen)
    (fun (a, b, c) ->
      let trans =
        (not (Seqnum.(a <= b) && Seqnum.(b <= c))) || Seqnum.(a <= c)
      in
      let anti =
        (not (Seqnum.(a <= b) && Seqnum.(b <= a))) || Seqnum.equal a b
      in
      let total = Seqnum.(a <= b) || Seqnum.(b <= a) in
      trans && anti && total)

let seqnum_increment_monotone_prop =
  QCheck.Test.make ~name:"increment strictly increases" ~count:500
    QCheck.(pair (int_bound 100) (int_bound 50))
    (fun (stamp, times) ->
      let s0 = Seqnum.initial ~stamp in
      let rec go s k = if k = 0 then true
        else
          let s' = Seqnum.increment ~now_stamp:(stamp + 1) s in
          Seqnum.(s' > s) && go s' (k - 1)
      in
      go s0 times)

(* ---- Message sizes ---------------------------------------------------- *)

let data_sizes () =
  let msg =
    Data_msg.fresh ~flow_id:1 ~seq:2 ~src:(n 0) ~dst:(n 1) ~payload_bytes:512
      ~origin_time:Sim.Time.zero
  in
  checki "512B + data header" 540 (Wire.Data.encoded_length msg);
  checkb "uid" true (Data_msg.uid msg = (1, 2));
  checki "fresh has full ttl" Data_msg.default_ttl msg.Data_msg.ttl;
  checki "fresh has zero hops" 0 msg.Data_msg.hops;
  checki "hop counts up" 1 (Data_msg.hop msg).Data_msg.hops;
  let relayed = Data_msg.relay { msg with hops = 3 } in
  checki "relay spends one ttl" 63 relayed.Data_msg.ttl;
  checkb "relay counts one hop, other fields equal" true
    (relayed = { msg with ttl = 63; hops = 4 })

let ldr_sizes () =
  let rreq =
    Ldr_msg.Rreq
      {
        dst = n 1;
        dst_sn = None;
        rreq_id = 1;
        origin = n 0;
        origin_sn = Seqnum.initial ~stamp:0;
        fd = 10;
        answer_dist = 8;
        dist = 0;
        ttl = 5;
        reset = false;
        no_reverse = false;
        unicast_probe = false;
      }
  in
  checki "rreq" 44 (Wire.Ldr.encoded_length rreq);
  Alcotest.check Alcotest.string "kind" "RREQ" (Ldr_msg.kind rreq);
  let rrep =
    Ldr_msg.Rrep
      {
        dst = n 1;
        dst_sn = Seqnum.initial ~stamp:0;
        origin = n 0;
        rreq_id = 1;
        dist = 3;
        lifetime = Sim.Time.sec 3.;
        rrep_no_reverse = false;
      }
  in
  checki "rrep" 32 (Wire.Ldr.encoded_length rrep);
  let rerr = Ldr_msg.Rerr { unreachable = [ (n 1, None); (n 2, None) ] } in
  checki "rerr grows with dests" (4 + 24) (Wire.Ldr.encoded_length rerr);
  Alcotest.check Alcotest.string "rerr kind" "RERR" (Ldr_msg.kind rerr)

let aodv_sizes () =
  let rreq =
    Aodv_msg.Rreq
      { dst = n 1; dst_sn = None; rreq_id = 1; origin = n 0; origin_sn = 1;
        hop_count = 0; ttl = 5 }
  in
  checki "rreq rfc3561" 24 (Wire.Aodv.encoded_length rreq);
  let rrep =
    Aodv_msg.Rrep
      { dst = n 1; dst_sn = 3; origin = n 0; hop_count = 2; lifetime = Sim.Time.sec 3. }
  in
  checki "rrep rfc3561" 20 (Wire.Aodv.encoded_length rrep);
  checki "rerr" 12
    (Wire.Aodv.encoded_length (Aodv_msg.Rerr { unreachable = [ (n 1, 2) ] }))

let dsr_sizes () =
  let rreq =
    Dsr_msg.Rreq { origin = n 0; dst = n 5; rreq_id = 1; route = [ n 1; n 2 ]; ttl = 5 }
  in
  checki "rreq grows with route" (16 + 8) (Wire.Dsr.encoded_length rreq);
  let data =
    Dsr_msg.Data
      {
        sr_remaining = [ n 2; n 3 ];
        full_route = [ n 0; n 1; n 2; n 3 ];
        data =
          Data_msg.fresh ~flow_id:0 ~seq:0 ~src:(n 0) ~dst:(n 3)
            ~payload_bytes:512 ~origin_time:Sim.Time.zero;
        salvage = 0;
      }
  in
  (* DSR fixed header + SR option + 4 addresses + data header + payload *)
  checki "source-routed data" (8 + 16 + 540) (Wire.Dsr.encoded_length data);
  Alcotest.check Alcotest.string "data is DATA" "DATA" (Dsr_msg.kind data)

let olsr_sizes () =
  let hello = Olsr_msg.Hello { neighbors = [ (n 1, Olsr_msg.Sym); (n 2, Olsr_msg.Mpr) ] } in
  (* packet + message header + hello header, then one link-code block
     per populated neighbor kind *)
  checki "hello" (20 + 8 + 8) (Wire.Olsr.encoded_length hello);
  let tc =
    Olsr_msg.Tc
      { origin = n 0; msg_seq = 1; ttl = 255;
        tc = { tc_origin = n 0; ansn = 1; advertised = [ n 1; n 2; n 3 ] } }
  in
  checki "tc" (20 + 12) (Wire.Olsr.encoded_length tc);
  Alcotest.check Alcotest.string "tc kind" "TC" (Olsr_msg.kind tc)

let payload_classify () =
  let msg ~flow_id ~seq =
    Data_msg.fresh ~flow_id ~seq ~src:(n 0) ~dst:(n 1) ~payload_bytes:64
      ~origin_time:Sim.Time.zero
  in
  let data = Payload.Data (msg ~flow_id:7 ~seq:3) in
  let dsr_data =
    Payload.Dsr
      (Dsr_msg.Data
         {
           sr_remaining = [];
           full_route = [ n 0; n 1 ];
           data = msg ~flow_id:9 ~seq:4;
           salvage = 0;
         })
  in
  let hello = Payload.Olsr (Olsr_msg.Hello { neighbors = [] }) in
  let check name p ~data ~cls ~flow ~seq =
    checkb (name ^ " is_data") data (Payload.is_data p);
    Alcotest.check Alcotest.string (name ^ " class_name") cls
      (Payload.class_name p);
    checki (name ^ " data_flow") flow (Payload.data_flow p);
    checki (name ^ " data_seq") seq (Payload.data_seq p)
  in
  check "data" data ~data:true ~cls:"DATA" ~flow:7 ~seq:3;
  check "dsr data" dsr_data ~data:true ~cls:"DATA" ~flow:9 ~seq:4;
  check "hello" hello ~data:false ~cls:"HELLO" ~flow:(-1) ~seq:(-1)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "packets"
    [
      ( "node_id",
        [
          Alcotest.test_case "basics" `Quick node_id_basics;
          Alcotest.test_case "containers" `Quick node_id_containers;
        ] );
      ( "seqnum",
        [
          Alcotest.test_case "ordering" `Quick seqnum_ordering;
          Alcotest.test_case "counter wrap restamps" `Quick seqnum_counter_wrap;
          Alcotest.test_case "increments metric" `Quick seqnum_increments_metric;
          qt seqnum_total_order_prop;
          qt seqnum_increment_monotone_prop;
        ] );
      ( "sizes",
        [
          Alcotest.test_case "data" `Quick data_sizes;
          Alcotest.test_case "ldr" `Quick ldr_sizes;
          Alcotest.test_case "aodv" `Quick aodv_sizes;
          Alcotest.test_case "dsr" `Quick dsr_sizes;
          Alcotest.test_case "olsr" `Quick olsr_sizes;
          Alcotest.test_case "payload classify" `Quick payload_classify;
        ] );
    ]
