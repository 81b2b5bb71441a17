(* Model checker: replay determinism, DPOR/state-matching soundness,
   the AODV loop counterexample vs LDR silence over the same bounded
   space, the golden minimized trace, the pinned line-4 space, and
   explicit-link edge cases under the controlled scheduler. *)

open Sim
open Mcheck

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let fx3 = Fixture.aodv_loop_3

(* dune runtest runs in _build/default/test, dune exec in the project
   root — accept either. *)
let fixture_path file =
  let up = Filename.concat (Filename.concat ".." "fixtures/mcheck") file in
  if Sys.file_exists up then up else Filename.concat "fixtures/mcheck" file

(* The headline pair: exhaustive DFS over the same bounded schedule
   space finds the routing loop under AODV and nothing under LDR.
   The bound matches bench/CI (BENCH_mcheck.json). *)

let aodv_finds_loop () =
  let r = Explorer.explore ~max_steps:8 fx3 Explorer.Aodv in
  match r.Explorer.violation with
  | Some { v_kind = Explorer.Cycle (dst, nodes); _ } ->
      checki "loop is for destination 2" 2 dst;
      checkb "cycle is 0<->1" true (List.sort compare nodes = [ 0; 1 ])
  | Some { v_kind = Explorer.Monitor _; _ } ->
      Alcotest.fail "expected a cycle violation, got a monitor one"
  | None -> Alcotest.fail "AODV loop not found in the bounded space"

let ldr_silent_same_space () =
  let r = Explorer.explore ~max_steps:18 ~stop_at_first:false fx3 Explorer.Ldr in
  checkb "space fully explored" true r.Explorer.stats.Explorer.complete;
  checkb "no violation anywhere" true (r.Explorer.violation = None)

(* Stateless replay: a state is its decision prefix, so replaying the
   same prefix twice (two full rebuilds) must land on the same digest.
   A differing digest would mean nondeterministic replay — every
   exploration result would be suspect. *)
let replay_determinism () =
  let r = Explorer.explore ~max_steps:8 fx3 Explorer.Aodv in
  let trace =
    match r.Explorer.violation with
    | Some v -> v.Explorer.v_trace
    | None -> Alcotest.fail "no violation to replay"
  in
  let take n l = List.filteri (fun i _ -> i < n) l in
  for n = 0 to List.length trace do
    let p = take n trace in
    checki
      (Printf.sprintf "digest stable at prefix %d" n)
      (Explorer.digest fx3 Explorer.Aodv p)
      (Explorer.digest fx3 Explorer.Aodv p)
  done;
  (* And the replayed full trace reproduces the violation. *)
  match Explorer.replay fx3 Explorer.Aodv trace with
  | Some (Explorer.Cycle (2, _)) -> ()
  | _ -> Alcotest.fail "replayed trace lost the violation"

(* Pruning soundness smoke: sleep sets + state matching must not hide
   the violation an unpruned search finds.  Bound 6 keeps the unpruned
   space small. *)
let pruned_matches_unpruned () =
  let kind r =
    match r.Explorer.violation with
    | Some { Explorer.v_kind = Explorer.Cycle (d, n); _ } ->
        Some (d, List.sort compare n)
    | Some { v_kind = Explorer.Monitor _; _ } | None -> None
  in
  let pruned = Explorer.explore ~max_steps:6 fx3 Explorer.Aodv in
  let unpruned = Explorer.explore ~max_steps:6 ~dedup:false fx3 Explorer.Aodv in
  checkb "both searches find the same loop" true
    (kind pruned = kind unpruned && kind pruned <> None);
  checkb "state matching actually pruned" true
    (pruned.Explorer.stats.Explorer.states
    <= unpruned.Explorer.stats.Explorer.states)

(* Minimization tightens the bound until the space below is silent, so
   the result is a shortest-depth witness; it must still replay. *)
let minimized_trace_replays () =
  let r = Explorer.explore ~max_steps:8 fx3 Explorer.Aodv in
  let v =
    match r.Explorer.violation with
    | Some v -> v
    | None -> Alcotest.fail "no violation"
  in
  let m = Explorer.minimize fx3 Explorer.Aodv v in
  checkb "minimization never lengthens" true
    (List.length m.Explorer.v_trace <= List.length v.Explorer.v_trace);
  checki "known minimal witness depth" 4 (List.length m.Explorer.v_trace);
  match Explorer.replay fx3 Explorer.Aodv m.Explorer.v_trace with
  | Some (Explorer.Cycle (2, _)) -> ()
  | _ -> Alcotest.fail "minimized trace lost the violation"

(* The checked-in golden trace must replay against current code — a
   protocol change that invalidates the published counterexample fails
   here, loudly. *)
let golden_trace_replays () =
  match Explorer.read_trace ~path:(fixture_path "aodv-loop-3.trace.jsonl") with
  | Error e -> Alcotest.fail ("golden trace unreadable: " ^ e)
  | Ok (name, proto, steps, recorded) -> (
      Alcotest.(check string) "trace names the fixture" "aodv-loop-3" name;
      checkb "trace is for aodv" true (proto = Explorer.Aodv);
      checki "golden witness depth" 4 (List.length steps);
      match (Explorer.replay fx3 proto steps, recorded) with
      | Some (Explorer.Cycle (d, n)), Explorer.Cycle (rd, rn) ->
          checki "same destination" rd d;
          checkb "same cycle" true (List.sort compare n = List.sort compare rn)
      | _ -> Alcotest.fail "golden trace did not reproduce its violation")

(* The prelude must quiesce: at exploration start the only ready event
   is the next script step — no residual discovery traffic leaks into
   the explored window. *)
let prelude_quiesces () =
  match Explorer.debug_ready fx3 Explorer.Aodv [] with
  | [ r ] ->
      Alcotest.(check string)
        "only the link-down script step is ready" "SCRIPT down 0-2"
        r.Controlled_queue.r_label
  | l -> Alcotest.fail (Printf.sprintf "%d events ready" (List.length l))

(* The .topo file and the compiled-in builtin must stay in sync. *)
let topo_file_matches_builtin () =
  match Fixture.load (fixture_path "aodv-loop-3.topo") with
  | Error e -> Alcotest.fail ("fixture unreadable: " ^ e)
  | Ok fx -> checkb ".topo equals builtin" true (fx = fx3)

let topo_parse_errors () =
  let bad s =
    match Fixture.parse ~name:"t" s with Error _ -> true | Ok _ -> false
  in
  checkb "missing nodes" true (bad "link 0 1");
  checkb "link out of range" true (bad "nodes 2\nlink 0 5");
  checkb "self link" true (bad "nodes 2\nlink 1 1");
  checkb "bad action" true (bad "nodes 2\nat 1.0 explode 0 1");
  checkb "hold out of range" true (bad "nodes 2\nhold RREP 0 9 until 1.0");
  checkb "bad hold shape" true (bad "nodes 2\nhold RREP 0 until 1.0");
  match
    Fixture.parse ~name:"t"
      "nodes 3\nlink 0 1\n# comment\nat 0.5 origin 0 1\nhold DATA 0 1 until \
       2.0\nexplore_from 1.5"
  with
  | Error e -> Alcotest.fail e
  | Ok fx ->
      checki "nodes" 3 fx.Fixture.nodes;
      checkb "hold parsed" true
        (fx.Fixture.holds
        = [ { Fixture.h_class = "DATA"; h_src = 0; h_dst = 1; h_until = 2.0 } ]);
      checkb "explore_from parsed" true (fx.Fixture.explore_from = 1.5)

(* The exhaustive line-4 space at the CLI's settings
   ([mcheck -p P -f line-4 --max-steps 14]): its size pins the
   explorer's build, so a change to how the simulation is wired that
   alters the schedule space shows here. *)
let line4_space_pinned () =
  List.iter
    (fun (proto, (states, transitions, sleep, merged, cut)) ->
      let r = Explorer.explore ~max_steps:14 Fixture.line_4 proto in
      let st = r.Explorer.stats in
      let name = Explorer.protocol_name proto in
      checkb (name ^ " complete") true st.Explorer.complete;
      checkb (name ^ " silent") true (r.Explorer.violation = None);
      checki (name ^ " states") states st.Explorer.states;
      checki (name ^ " transitions") transitions st.Explorer.transitions;
      checki (name ^ " sleep pruned") sleep st.Explorer.sleep_skipped;
      checki (name ^ " state merged") merged st.Explorer.state_merged;
      checki (name ^ " depth cut") cut st.Explorer.depth_cut)
    [
      (Explorer.Aodv, (969, 968, 173, 191, 456));
      (Explorer.Ldr, (1303, 1302, 237, 218, 691));
    ]

(* ---- Explicit-link edge cases under the controlled scheduler --------- *)

let ready_with prefix engine =
  List.find_opt
    (fun (r : Controlled_queue.ready) ->
      String.length r.Controlled_queue.r_label >= String.length prefix
      && String.sub r.r_label 0 (String.length prefix) = prefix)
    (Engine.ready_set engine)

(* A link dropping while an RREP is in flight: delivery is re-checked
   at fire time, the packet is lost, and the sender gets MAC-style
   link-failure feedback as its own floating event. *)
let flap_during_inflight_rrep () =
  let net =
    Graph_net.create ~scheduler:`Controlled ~factory:(Aodv.factory ()) ~n:3 ()
  in
  let engine = Graph_net.engine net in
  Graph_net.connect_chain net [ 0; 1; 2 ];
  Graph_net.origin net ~src:0 ~dst:2;
  (* FIFO-drive until the RREP hop 1->0 is in flight. *)
  let rec drive n =
    if n = 0 then Alcotest.fail "no RREP 1->0 appeared"
    else
      match ready_with "RREP 1->0" engine with
      | Some r -> r
      | None ->
          checkb "engine still live" true (Engine.step engine);
          drive (n - 1)
  in
  let rrep = drive 200 in
  Graph_net.disconnect net 0 1;
  ignore (Engine.fire_seq engine rrep.Controlled_queue.r_seq);
  checkb "sender sees link failure" true
    (ready_with "LINKFAIL 1->0" engine <> None);
  (* The feedback fires without tripping anything; the run quiesces. *)
  Engine.run ~until:(Time.sec 30.) engine;
  checki "data never delivered across the cut" 0
    (Graph_net.delivered net)

(* Partition then heal on the 4-node line (the line-4 fixture script):
   random schedules across the flap must never form a loop, under
   either protocol, and after healing the third origination gets
   through on at least one schedule. *)
let partition_heal_line4 () =
  List.iter
    (fun proto ->
      let r =
        Explorer.random_walks ~max_steps:25 ~walks:40 ~seed:7 Fixture.line_4
          proto
      in
      checkb
        (Printf.sprintf "no loop under %s" (Explorer.protocol_name proto))
        true
        (r.Explorer.violation = None))
    [ Explorer.Aodv; Explorer.Ldr ]

let () =
  Alcotest.run "mcheck"
    [
      ( "counterexample",
        [
          Alcotest.test_case "aodv loop found" `Quick aodv_finds_loop;
          Alcotest.test_case "ldr silent over same space" `Quick
            ldr_silent_same_space;
          Alcotest.test_case "minimized trace replays" `Quick
            minimized_trace_replays;
          Alcotest.test_case "golden trace replays" `Quick golden_trace_replays;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "replay determinism" `Quick replay_determinism;
          Alcotest.test_case "pruned matches unpruned" `Quick
            pruned_matches_unpruned;
          Alcotest.test_case "prelude quiesces" `Quick prelude_quiesces;
        ] );
      ( "fixtures",
        [
          Alcotest.test_case "topo file matches builtin" `Quick
            topo_file_matches_builtin;
          Alcotest.test_case "parse errors" `Quick topo_parse_errors;
          Alcotest.test_case "line-4 space pinned" `Quick line4_space_pinned;
        ] );
      ( "links",
        [
          Alcotest.test_case "flap during in-flight rrep" `Quick
            flap_during_inflight_rrep;
          Alcotest.test_case "partition then heal" `Quick partition_heal_line4;
        ] );
    ]
