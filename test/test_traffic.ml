(* Tests for the CBR workload generator. *)

open Sim
open Packets

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let collect ?(seed = 1) ~config ~until () =
  let engine = Engine.create ~seed () in
  let rng = Rng.create seed in
  let packets = ref [] in
  Traffic.setup ~engine ~rng ~num_nodes:20 ~config ~until
    ~emit:(fun ~src msg -> packets := (src, msg, Engine.now engine) :: !packets);
  Engine.run engine;
  List.rev !packets

let base =
  {
    Traffic.num_flows = 5;
    packets_per_sec = 4.;
    payload_bytes = 512;
    mean_flow_duration = Time.sec 20.;
    startup_window = Time.sec 5.;
  }

let emits_packets () =
  let pkts = collect ~config:base ~until:(Time.sec 60.) () in
  checkb "many packets" true (List.length pkts > 500);
  (* 5 slots x 4pps x ~55s in expectation: bounded above. *)
  checkb "not absurdly many" true (List.length pkts < 5 * 4 * 62)

let rate_is_respected () =
  (* Packets within a flow are spaced exactly 1/pps apart. *)
  let pkts = collect ~config:base ~until:(Time.sec 30.) () in
  let by_flow = Hashtbl.create 16 in
  List.iter
    (fun (_, msg, at) ->
      let k = msg.Data_msg.flow_id in
      Hashtbl.replace by_flow k
        (match Hashtbl.find_opt by_flow k with
        | None -> [ at ]
        | Some l -> at :: l))
    pkts;
  Hashtbl.iter
    (fun _ times ->
      let rec gaps = function
        | a :: (b :: _ as rest) ->
            let gap = Time.to_ms (Time.diff a b) in
            checkb "250ms spacing" true (abs_float (gap -. 250.) < 0.001);
            gaps rest
        | _ -> ()
      in
      gaps times)
    by_flow

let uids_unique () =
  let pkts = collect ~config:base ~until:(Time.sec 60.) () in
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun (_, msg, _) ->
      let uid = Data_msg.uid msg in
      checkb "unique uid" false (Hashtbl.mem seen uid);
      Hashtbl.replace seen uid ())
    pkts

let src_dst_distinct () =
  let pkts = collect ~config:base ~until:(Time.sec 60.) () in
  List.iter
    (fun (src, msg, _) ->
      checkb "src matches emit" true (Node_id.equal src msg.Data_msg.src);
      checkb "src <> dst" false (Node_id.equal msg.Data_msg.src msg.Data_msg.dst))
    pkts

let flows_restart () =
  (* With a short mean duration, flow ids climb well past the slot
     count. *)
  let config = { base with Traffic.mean_flow_duration = Time.sec 3. } in
  let pkts = collect ~config ~until:(Time.sec 60.) () in
  let max_flow =
    List.fold_left (fun acc (_, m, _) -> Stdlib.max acc m.Data_msg.flow_id) 0 pkts
  in
  checkb "flows restarted" true (max_flow > 10)

let respects_until () =
  let pkts = collect ~config:base ~until:(Time.sec 10.) () in
  List.iter
    (fun (_, _, at) -> checkb "no emission after until" true Time.(at < Time.sec 10.))
    pkts

let deterministic_per_seed () =
  let a = collect ~seed:9 ~config:base ~until:(Time.sec 30.) () in
  let b = collect ~seed:9 ~config:base ~until:(Time.sec 30.) () in
  checki "same count" (List.length a) (List.length b);
  List.iter2
    (fun (s1, m1, t1) (s2, m2, t2) ->
      checkb "same src" true (Node_id.equal s1 s2);
      checkb "same uid" true (Data_msg.uid m1 = Data_msg.uid m2);
      checkb "same time" true (Time.equal t1 t2))
    a b

let concurrent_flow_count () =
  (* At any instant, at most num_flows flows are active (slots never
     overlap themselves). *)
  let pkts = collect ~config:base ~until:(Time.sec 120.) () in
  (* Count flows active in a mid-run window. *)
  let active = Hashtbl.create 16 in
  List.iter
    (fun (_, m, at) ->
      if Time.(at > Time.sec 60.) && Time.(at < Time.sec 61.) then
        Hashtbl.replace active m.Data_msg.flow_id ())
    pkts;
  checkb "at most 5 concurrent" true (Hashtbl.length active <= 5)

(* A rate whose tick interval is not a positive number of nanoseconds
   would re-arm at one instant forever; setup rejects it up front.  At
   pps 0 the interval is infinite; at 3e9 it rounds to 0 ns (2e9 rounds
   half up to 1 ns, a valid interval). *)
let bad_rate_rejected () =
  let zero_tick =
    Invalid_argument "Traffic.setup: packet interval is not a positive time"
  in
  Alcotest.check_raises "pps 0" zero_tick (fun () ->
      ignore (collect ~config:{ base with packets_per_sec = 0. }
                ~until:(Time.sec 1.) ()));
  Alcotest.check_raises "pps 3e9" zero_tick (fun () ->
      ignore (collect ~config:{ base with packets_per_sec = 3e9 }
                ~until:(Time.sec 1.) ()))

let () =
  Alcotest.run "traffic"
    [
      ( "cbr",
        [
          Alcotest.test_case "emits" `Quick emits_packets;
          Alcotest.test_case "rate" `Quick rate_is_respected;
          Alcotest.test_case "uids unique" `Quick uids_unique;
          Alcotest.test_case "src/dst sane" `Quick src_dst_distinct;
          Alcotest.test_case "flows restart" `Quick flows_restart;
          Alcotest.test_case "until respected" `Quick respects_until;
          Alcotest.test_case "deterministic" `Quick deterministic_per_seed;
          Alcotest.test_case "concurrency bound" `Quick concurrent_flow_count;
          Alcotest.test_case "bad rate rejected" `Quick bad_rate_rejected;
        ] );
    ]
