(* Round-trip, sizing and fuzz tests for the wire codecs.

   Round-trip properties hold on wire-canonical values: lifetimes
   quantized to milliseconds, OLSR HELLO neighbors grouped into
   canonical link-code blocks, DSR [sr_remaining] a suffix of
   [full_route] — exactly the forms the protocol agents produce. *)

open Packets

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let n = Node_id.of_int

(* ---- Generators ------------------------------------------------------ *)

module G = QCheck.Gen

let gen_node = G.map n (G.int_range 0 0xffff)
let gen_u8 = G.int_range 0 255
let gen_u16 = G.int_range 0 0xffff
let gen_u32 = G.int_range 0 0xfffffff

let gen_seqnum =
  G.map
    (fun (stamp, counter) -> { Seqnum.stamp; counter })
    (G.pair (G.int_range 0 100_000) (G.int_range 0 1000))

(* Lifetimes travel as whole milliseconds. *)
let gen_lifetime = G.map (fun ms -> Sim.Time.ms (float_of_int ms)) (G.int_range 0 60_000)

(* Origination times travel as exact nanoseconds. *)
let gen_origin_time = G.map Sim.Time.unsafe_of_ns (G.int_range 0 (1 lsl 50))

let gen_dist =
  G.oneof [ G.int_range 0 1000; G.return Wire.Ldr.infinite_distance ]

let gen_route = G.list_size (G.int_range 0 8) gen_node

let gen_data_msg =
  G.map
    (fun (((flow_id, seq), (src, dst)), ((payload_bytes, origin_time), (ttl, hops))) ->
      { Data_msg.flow_id; seq; src; dst; payload_bytes; origin_time; ttl; hops })
    (G.pair
       (G.pair (G.pair gen_u32 gen_u32) (G.pair gen_node gen_node))
       (G.pair
          (G.pair (G.int_range 0 1500) gen_origin_time)
          (G.pair (G.int_range 1 255) gen_u8)))

let gen_ldr =
  G.oneof
    [
      G.map
        (fun (((dst, dst_sn), ((rreq_id, origin), origin_sn)),
              (((fd, answer_dist), (dist, ttl)), (reset, (no_reverse, unicast_probe)))) ->
          Ldr_msg.Rreq
            { dst; dst_sn; rreq_id; origin; origin_sn; fd; answer_dist; dist;
              ttl; reset; no_reverse; unicast_probe })
        (G.pair
           (G.pair
              (G.pair gen_node (G.option gen_seqnum))
              (G.pair (G.pair gen_u32 gen_node) gen_seqnum))
           (G.pair
              (G.pair (G.pair gen_dist gen_dist) (G.pair gen_dist gen_u8))
              (G.pair G.bool (G.pair G.bool G.bool))));
      G.map
        (fun (((dst, dst_sn), (origin, rreq_id)), ((dist, lifetime), rrep_no_reverse)) ->
          Ldr_msg.Rrep
            { dst; dst_sn; origin; rreq_id; dist; lifetime; rrep_no_reverse })
        (G.pair
           (G.pair (G.pair gen_node gen_seqnum) (G.pair gen_node gen_u32))
           (G.pair (G.pair gen_dist gen_lifetime) G.bool));
      G.map
        (fun unreachable -> Ldr_msg.Rerr { unreachable })
        (G.list_size (G.int_range 1 8) (G.pair gen_node (G.option gen_seqnum)));
    ]

let gen_aodv =
  G.oneof
    [
      G.map
        (fun (((dst, dst_sn), (rreq_id, origin)), ((origin_sn, hop_count), ttl)) ->
          Aodv_msg.Rreq { dst; dst_sn; rreq_id; origin; origin_sn; hop_count; ttl })
        (G.pair
           (G.pair (G.pair gen_node (G.option gen_u32)) (G.pair gen_u32 gen_node))
           (G.pair (G.pair gen_u32 gen_u8) gen_u8));
      G.map
        (fun ((dst, dst_sn), (origin, (hop_count, lifetime))) ->
          Aodv_msg.Rrep { dst; dst_sn; origin; hop_count; lifetime })
        (G.pair (G.pair gen_node gen_u32) (G.pair gen_node (G.pair gen_u8 gen_lifetime)));
      G.map
        (fun unreachable -> Aodv_msg.Rerr { unreachable })
        (G.list_size (G.int_range 1 8) (G.pair gen_node gen_u32));
    ]

(* DSR data keeps [sr_remaining] a suffix of [full_route]; generate the
   full route and a suffix length. *)
let rec suffix l k = if List.length l <= k then l else suffix (List.tl l) k

let gen_dsr =
  G.oneof
    [
      G.map
        (fun (((origin, dst), (rreq_id, route)), ttl) ->
          Dsr_msg.Rreq { origin; dst; rreq_id; route; ttl })
        (G.pair
           (G.pair (G.pair gen_node gen_node) (G.pair gen_u16 gen_route))
           (G.int_range 1 255));
      G.map
        (fun ((sr_remaining, (origin, dst)), full_route) ->
          Dsr_msg.Rrep { sr_remaining; rrep = { origin; dst; full_route } })
        (G.pair (G.pair gen_route (G.pair gen_node gen_node)) gen_route);
      G.map
        (fun ((sr_remaining, (err_from, err_dst)), (broken_from, broken_to)) ->
          Dsr_msg.Rerr
            { sr_remaining; rerr = { err_from; broken_from; broken_to; err_dst } })
        (G.pair
           (G.pair gen_route (G.pair gen_node gen_node))
           (G.pair gen_node gen_node));
      G.map
        (fun (((full_route, k), data), salvage) ->
          Dsr_msg.Data
            { sr_remaining = suffix full_route k; full_route; data; salvage })
        (G.pair
           (G.pair (G.pair gen_route (G.int_range 0 8)) gen_data_msg)
           (G.int_range 0 7));
    ]

(* Wire-canonical HELLOs: neighbors grouped Asym, Sym, Mpr. *)
let gen_olsr =
  G.oneof
    [
      G.map
        (fun (asym, (sym, mpr)) ->
          let tag k = List.map (fun id -> (id, k)) in
          Olsr_msg.Hello
            {
              neighbors =
                tag Olsr_msg.Asym asym @ tag Olsr_msg.Sym sym
                @ tag Olsr_msg.Mpr mpr;
            })
        (G.pair gen_route (G.pair gen_route gen_route));
      G.map
        (fun ((origin, msg_seq), ((ttl, ansn), advertised)) ->
          Olsr_msg.Tc
            { origin; msg_seq; ttl; tc = { tc_origin = origin; ansn; advertised } })
        (G.pair
           (G.pair gen_node gen_u16)
           (G.pair (G.pair (G.int_range 1 255) gen_u16) gen_route));
    ]

let gen_payload =
  G.oneof
    [
      G.map (fun d -> Payload.Data d) gen_data_msg;
      G.map (fun m -> Payload.Ldr m) gen_ldr;
      G.map (fun m -> Payload.Aodv m) gen_aodv;
      G.map (fun m -> Payload.Dsr m) gen_dsr;
      G.map (fun m -> Payload.Olsr m) gen_olsr;
    ]

let gen_frame =
  G.map
    (fun ((src, dst), payload) ->
      let dst =
        match dst with None -> Net.Frame.broadcast | Some d -> Net.Frame.unicast d
      in
      match payload with
      | None -> Net.Frame.Ack { src; dst }
      | Some payload -> Net.Frame.Data { src; dst; payload })
    (G.pair (G.pair gen_node (G.option gen_node)) (G.option gen_payload))

let arb ?print gen = QCheck.make ?print gen

let pp_payload p = Format.asprintf "%a" Payload.pp p
let pp_frame f = Format.asprintf "%a" Net.Frame.pp f

(* ---- Cursor primitives ----------------------------------------------- *)

let writer_reader_basics () =
  let w = Wire.Writer.create () in
  Wire.Writer.u8 w 0xab;
  Wire.Writer.u16 w 0xcdef;
  Wire.Writer.u32 w 0xdeadbeef;
  Wire.Writer.u64 w 0x1122334455667788L;
  Wire.Writer.zeros w 3;
  checki "length" (1 + 2 + 4 + 8 + 3) (Wire.Writer.length w);
  let b = Wire.Writer.contents w in
  checki "contents length" 18 (Bytes.length b);
  let r = Wire.Reader.of_bytes b in
  let get = function Ok v -> v | Error e -> Alcotest.failf "%s" (Wire.error_to_string e) in
  checki "u8" 0xab (get (Wire.Reader.u8 r));
  checki "u16" 0xcdef (get (Wire.Reader.u16 r));
  checki "u32" 0xdeadbeef (get (Wire.Reader.u32 r));
  Alcotest.check Alcotest.int64 "u64" 0x1122334455667788L (get (Wire.Reader.u64 r));
  checki "pos" 15 (Wire.Reader.pos r);
  checki "remaining" 3 (Wire.Reader.remaining r);
  checkb "not at end" true (Result.is_error (Wire.Reader.expect_end r));
  get (Wire.Reader.skip r 3);
  checkb "at end" true (Result.is_ok (Wire.Reader.expect_end r))

let reader_bounds () =
  let r = Wire.Reader.of_bytes (Bytes.make 2 '\xff') in
  (match Wire.Reader.u32 r with
  | Error { Wire.offset; _ } -> checki "short read offset" 0 offset
  | Ok _ -> Alcotest.fail "u32 past end should fail");
  (match Wire.Reader.u8 r with
  | Ok v -> checki "u8 still readable" 0xff v
  | Error e -> Alcotest.failf "%s" (Wire.error_to_string e));
  match Wire.Reader.skip r 5 with
  | Error { Wire.offset; _ } -> checki "skip offset" 1 offset
  | Ok () -> Alcotest.fail "skip past end should fail"

let crc32_vector () =
  (* The classic IEEE 802.3 check value. *)
  let b = Bytes.of_string "123456789" in
  checki "crc32(123456789)" 0xcbf43926 (Wire.Crc32.bytes b ~pos:0 ~len:9)

(* ---- Cross-library constants ----------------------------------------- *)

let constants_agree () =
  checki "LDR infinity" Ldr.Conditions.infinity Wire.Ldr.infinite_distance;
  checki "header + FCS" Wire.Mac.data_overhead
    (Wire.Mac.header_bytes + Wire.Mac.fcs_bytes)

(* ---- Round trips ------------------------------------------------------ *)

let roundtrip_payload =
  QCheck.Test.make ~name:"payload roundtrip & sizing" ~count:500
    (arb ~print:pp_payload gen_payload) (fun p ->
      let b = Wire.Payload.encode p in
      Bytes.length b = Wire.encoded_length p
      && Wire.Payload.decode ~family:(Wire.Payload.family p) b = Ok p)

let roundtrip_frame =
  QCheck.Test.make ~name:"frame roundtrip & sizing" ~count:500
    (arb ~print:pp_frame gen_frame) (fun f ->
      let b = Net.Frame.encode f in
      Bytes.length b = Net.Frame.encoded_length f
      && Net.Frame.decode ~family:(Net.Frame.family f) ~ack_src:(Net.Frame.src f) b
         = Ok f)

(* ---- Fuzzing: decoders are total and the FCS rejects corruption ------- *)

let gen_garbage = G.map Bytes.of_string (G.string_size (G.int_range 0 80))

let no_exn f = match f () with Ok _ | Error _ -> true

let fuzz_random =
  QCheck.Test.make ~name:"random bytes never decode" ~count:1000
    (arb (G.pair gen_garbage (G.int_range 0 6)))
    (fun (b, family) ->
      no_exn (fun () -> Net.Frame.decode ~family ~ack_src:(n 0) b)
      && Net.Frame.decode ~family ~ack_src:(n 0) b |> Result.is_error)

let fuzz_truncated =
  QCheck.Test.make ~name:"truncated frames rejected" ~count:500
    (arb ~print:(fun (f, _) -> pp_frame f) (G.pair gen_frame (G.int_range 0 1000)))
    (fun (f, cut) ->
      let b = Net.Frame.encode f in
      let cut = cut mod Bytes.length b in
      let fam = Net.Frame.family f in
      Net.Frame.decode ~family:fam ~ack_src:(Net.Frame.src f) (Bytes.sub b 0 cut)
      |> Result.is_error)

let fuzz_bitflip =
  QCheck.Test.make ~name:"bit flips fail the FCS" ~count:500
    (arb ~print:(fun (f, _) -> pp_frame f) (G.pair gen_frame (G.int_range 0 100_000)))
    (fun (f, r) ->
      let b = Net.Frame.encode f in
      let bit = r mod (8 * Bytes.length b) in
      let i = bit / 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
      Net.Frame.decode ~family:(Net.Frame.family f) ~ack_src:(Net.Frame.src f) b
      |> Result.is_error)

let fuzz_payload_truncated =
  QCheck.Test.make ~name:"payload decoders are total" ~count:500
    (arb ~print:(fun (p, _) -> pp_payload p) (G.pair gen_payload (G.int_range 0 1000)))
    (fun (p, cut) ->
      let b = Wire.Payload.encode p in
      let fam = Wire.Payload.family p in
      let cut = cut mod Bytes.length b in
      no_exn (fun () -> Wire.Payload.decode ~family:fam (Bytes.sub b 0 cut)))

(* ---- Pcap -------------------------------------------------------------- *)

let sample_frames =
  let data =
    Data_msg.fresh ~flow_id:1 ~seq:7 ~src:(n 2) ~dst:(n 9) ~payload_bytes:512
      ~origin_time:(Sim.Time.ms 5.)
  in
  [
    Net.Frame.Data
      { src = n 2; dst = Net.Frame.unicast (n 3); payload = Payload.Data data };
    Net.Frame.Ack { src = n 3; dst = Net.Frame.unicast (n 2) };
    Net.Frame.Data
      { src = n 4; dst = Net.Frame.broadcast;
        payload =
          Payload.Aodv
            (Aodv_msg.Rreq
               { dst = n 9; dst_sn = None; rreq_id = 1; origin = n 4;
                 origin_sn = 2; hop_count = 0; ttl = 5 }) };
  ]

(* [f] over a capture of [sample_frames], frame [i] sent at [i] ms. *)
let with_capture f =
  let path = Filename.temp_file "manet" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Net.Pcap.open_sink path in
      List.iteri
        (fun i fr -> Net.Pcap.write sink ~time:(Sim.Time.ms (float_of_int i)) fr)
        sample_frames;
      Net.Pcap.close sink;
      f path)

(* Every Tx event [replay] puts on a bus, rendered by [Event.pp], and
   the replay's result. *)
let replayed replay path =
  let bus = Obs.Bus.create () in
  let lines = ref [] in
  Obs.Bus.add_sink bus (fun (ev : Obs.Event.t) ->
      if ev.kind = Obs.Event.Tx then
        lines :=
          Format.asprintf "%a" (Obs.Event.pp ~name:(Obs.Bus.name bus)) ev
          :: !lines);
  let result = replay path bus in
  (List.rev !lines, result)

let pcap_roundtrip () =
  with_capture (fun path ->
      checkb "magic recognized" true (Net.Pcap.is_pcap_file path);
      let bus = Obs.Bus.create () in
      let events = ref [] in
      Obs.Bus.add_sink bus (fun (ev : Obs.Event.t) ->
          events :=
            (ev.kind, ev.time, ev.node, Obs.Bus.name bus ev.a, ev.b, ev.c)
            :: !events);
      let metrics = Experiment.Metrics.attach bus in
      (match Net.Pcap.replay path bus with
      | Error msg -> Alcotest.failf "replay: %s" msg
      | Ok () -> ());
      checki "one event per record" (List.length sample_frames)
        (List.length !events);
      List.iteri
        (fun i (kind, time, node, cls, dst, bytes) ->
          let f = List.nth sample_frames i in
          checkb "a Tx event" true (kind = Obs.Event.Tx);
          checkb "time" true (Sim.Time.equal time (Sim.Time.ms (float_of_int i)));
          checki "source" (Node_id.to_int (Net.Frame.src f)) node;
          Alcotest.(check string) "class" (Net.Frame.class_name f) cls;
          checki "destination" (Net.Frame.dst f :> int) dst;
          checki "on-air length" (Net.Frame.encoded_length f) bytes)
        (List.rev !events);
      Alcotest.(check (list (pair string (pair int int))))
        "class counts"
        [ ("ACK", (1, 14)); ("DATA", (1, 574)); ("RREQ", (1, 58)) ]
        (Experiment.Metrics.tx_classes metrics))

(* [path]'s bytes, rewritten by [f]. *)
let rewrite path f =
  let b = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  Out_channel.with_open_bin path (fun oc -> output_bytes oc (f b))

(* A frame that fails its FCS is bad input, as a malformed JSONL line
   is: the pass still reaches the end of the file, then the replay
   answers one error naming the count and the first such record, and
   [manet_sim trace] prints that line alone and exits 1. *)
let pcap_rejects_corruption () =
  with_capture (fun path ->
      (* Flip a byte inside the last frame's payload: the file still
         parses, but that record's FCS check fails. *)
      rewrite path (fun b ->
          let i = Bytes.length b - 3 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
          b);
      let lines, result = replayed Net.Pcap.replay path in
      checki "the sound records still replayed" 2 (List.length lines);
      let want =
        Printf.sprintf
          "1 undecodable frame(s) in %s; first: record 3: offset 58: frame: \
           FCS mismatch"
          path
      in
      Alcotest.(check (result unit string)) "replay error" (Error want) result;
      let out = Filename.temp_file "manet" ".out" in
      let err = Filename.temp_file "manet" ".err" in
      List.iter
        (fun args ->
          let code =
            Sys.command
              (Printf.sprintf "../bin/manet_sim.exe trace %s %s > %s 2> %s"
                 (Filename.quote path) args (Filename.quote out)
                 (Filename.quote err))
          in
          let read f = In_channel.with_open_bin f In_channel.input_all in
          checki ("trace " ^ args ^ " exits 1") 1 code;
          Alcotest.(check string) ("trace " ^ args ^ " prints nothing") ""
            (read out);
          Alcotest.(check string)
            ("trace " ^ args ^ " prints the error line") (want ^ "\n") (read err))
        [ ""; "--classes" ];
      List.iter Sys.remove [ out; err ])

(* Structural faults stop the pass with the record they are in. *)
let pcap_structural_faults () =
  let check name f want =
    with_capture (fun path ->
        rewrite path f;
        let _, result = replayed Net.Pcap.replay path in
        Alcotest.(check (result unit string)) name
          (Error (path ^ ": " ^ want)) result)
  in
  check "truncated record"
    (fun b -> Bytes.sub b 0 (Bytes.length b - 5))
    "record 3: packet data past end of file";
  check "truncated record header"
    (fun b -> Bytes.sub b 0 (24 + 16 + 20 + 574 + 16 + 20 + 14 + 10))
    "record 3: record header past end of file";
  check "bad magic"
    (fun b -> Bytes.set b 3 '\x4e'; b)
    "global header: bad magic";
  (* One flipped byte in each field [open_sink] fixes. *)
  List.iter
    (fun (at, field) ->
      check ("bad " ^ field)
        (fun b ->
          Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x01));
          b)
        ("global header: bad " ^ field))
    [ (5, "version"); (7, "version"); (11, "thiszone"); (15, "sigfigs");
      (18, "snaplen") ]

(* A capture replays as the Tx part of the same run's JSONL trace:
   every event, rendered, line for line, for one LDR and one LDR-AGG
   run. *)
let pcap_matches_trace () =
  List.iter
    (fun protocol ->
      let trace = Filename.temp_file "manet" ".jsonl" in
      let pcap = Filename.temp_file "manet" ".pcap" in
      let open Experiment in
      ignore
        (Runner.run ~trace_out:trace ~pcap_out:pcap
           (Scenario.paper_50 protocol
           |> Scenario.with_flows 10
           |> Scenario.with_duration (Sim.Time.sec 5.)));
      let name = Scenario.protocol_name protocol in
      let from_trace, r1 = replayed Obs.Reader.replay trace in
      let from_pcap, r2 = replayed Net.Pcap.replay pcap in
      Alcotest.(check (result unit string)) (name ^ ": trace replays") (Ok ()) r1;
      Alcotest.(check (result unit string)) (name ^ ": pcap replays") (Ok ()) r2;
      checkb (name ^ ": frames captured") true (from_pcap <> []);
      Alcotest.(check (list string))
        (name ^ ": pcap = the trace's Tx events") from_trace from_pcap;
      List.iter Sys.remove [ trace; pcap ])
    [ Experiment.Scenario.ldr; Experiment.Scenario.ldr_agg ]

(* Files shorter than the 4-byte magic (the prefix of a real magic
   included) are not pcap, and the trace reader takes over: an empty
   file is an empty trace, stray bytes are a malformed line. *)
let short_files_not_pcap () =
  List.iter
    (fun contents ->
      let path = Filename.temp_file "manet" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out_bin path in
          output_string oc contents;
          close_out oc;
          let n = String.length contents in
          checkb (Printf.sprintf "%d-byte file not pcap" n) false
            (Net.Pcap.is_pcap_file path);
          let bus = Obs.Bus.create () in
          let summary = Obs.Reader.summary bus in
          match Obs.Reader.replay path bus with
          | Ok () ->
              checki (Printf.sprintf "%d-byte file: empty trace" n) 0 n;
              Alcotest.(check (list string))
                "no events" [ "0 events, 0 nodes, 0.000 s span" ] (summary ())
          | Error _ ->
              checkb (Printf.sprintf "%d-byte file: malformed" n) true (n > 0)))
    [ ""; "\xa1\xb2"; "\xa1\xb2\x3c" ]

(* A path that opens but cannot be read (a directory), or one that does
   not open at all, is not pcap: the check answers false rather than
   raising, so the trace reader can report the error. *)
let unreadable_paths_not_pcap () =
  checkb "directory not pcap" false
    (Net.Pcap.is_pcap_file (Filename.get_temp_dir_name ()));
  checkb "missing file not pcap" false
    (Net.Pcap.is_pcap_file
       (Filename.concat (Filename.get_temp_dir_name ()) "manet-no-such-file.pcap"))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "wire"
    [
      ( "cursor",
        [
          Alcotest.test_case "writer/reader basics" `Quick writer_reader_basics;
          Alcotest.test_case "reader bounds" `Quick reader_bounds;
          Alcotest.test_case "crc32 vector" `Quick crc32_vector;
          Alcotest.test_case "constants agree" `Quick constants_agree;
        ] );
      ("roundtrip", [ qt roundtrip_payload; qt roundtrip_frame ]);
      ( "fuzz",
        [
          qt fuzz_random;
          qt fuzz_truncated;
          qt fuzz_bitflip;
          qt fuzz_payload_truncated;
        ] );
      ( "pcap",
        [
          Alcotest.test_case "write/replay roundtrip" `Quick pcap_roundtrip;
          Alcotest.test_case "corrupt frame fails the replay" `Quick
            pcap_rejects_corruption;
          Alcotest.test_case "structural faults stop the replay" `Quick
            pcap_structural_faults;
          Alcotest.test_case "replay equals the trace's Tx events" `Quick
            pcap_matches_trace;
          Alcotest.test_case "short files are not pcap" `Quick short_files_not_pcap;
          Alcotest.test_case "unreadable paths are not pcap" `Quick
            unreadable_paths_not_pcap;
        ] );
    ]
