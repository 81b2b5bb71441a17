open Sim
open Packets
open Experiment

type protocol = Aodv | Ldr

let protocol_of_string = function
  | "aodv" -> Some Aodv
  | "ldr" -> Some Ldr
  | _ -> None

let protocol_name = function Aodv -> "aodv" | Ldr -> "ldr"

type choice = {
  c_seq : int;
  c_tag : int;
  c_time : int;
  c_float : bool;
  c_label : string;
}

type vkind = Cycle of int * int list | Monitor of int
type violation = { v_kind : vkind; v_trace : choice list }

type stats = {
  mutable states : int;
  mutable transitions : int;
  mutable sleep_skipped : int;
  mutable state_merged : int;
  mutable depth_cut : int;
  mutable terminals : int;
  mutable replays : int;
  mutable replayed_events : int;
  mutable max_depth : int;
  mutable violations : int;
  mutable complete : bool;
}

type result = { stats : stats; violation : violation option }

let fresh_stats () =
  {
    states = 0;
    transitions = 0;
    sleep_skipped = 0;
    state_merged = 0;
    depth_cut = 0;
    terminals = 0;
    replays = 0;
    replayed_events = 0;
    max_depth = 0;
    violations = 0;
    complete = true;
  }

(* Jitter off: the fixture's timed skeleton must be the script alone
   plus the protocols' own retry timers, so the schedule space is
   exactly message orderings x timer interleavings. *)
let aodv_config = { Aodv.default_config with Aodv.flood_jitter = Time.zero }

let ldr_config =
  { Ldr.Config.default with Ldr.Config.flood_jitter = Time.zero }

type sys = {
  sim : Runner.sim;
  engine : Engine.t;
  monitor : Obs.Monitor.t;
  walk : Routing.Agent.walk;
  n : int;
}

(* A floating message's hold instant, if a fixture [hold] directive
   matches its label ("CLASS src->dst #hash" — match up to the id
   boundary so "RREP 0->1" does not capture "RREP 0->12"). *)
let hold_until (fx : Fixture.t) (r : Controlled_queue.ready) =
  if not r.Controlled_queue.r_floating then None
  else
    List.find_map
      (fun (h : Fixture.hold) ->
        let p = Printf.sprintf "%s %d->%d" h.Fixture.h_class h.h_src h.h_dst in
        let lp = String.length p and ll = String.length r.r_label in
        if
          ll >= lp
          && String.sub r.r_label 0 lp = p
          && (ll = lp || r.r_label.[lp] = ' ')
        then Some h.h_until
        else None)
      fx.Fixture.holds

(* The deterministic prelude: before [explore_from], fire events in
   (effective time, seq) order — FIFO, i.e. exactly the stock calendar
   schedule — except that held messages' effective time is their hold
   instant.  This mechanically pins down the "reachable state with
   routes established" that published counterexample walkthroughs
   start from; the explorer then branches only over the suffix.  The
   prelude is part of [build], so replay, digests and traces all see
   the identical starting state. *)
let run_prelude engine (fx : Fixture.t) =
  let horizon = (Time.sec fx.Fixture.explore_from :> int) in
  let eff (r : Controlled_queue.ready) =
    match hold_until fx r with
    | Some u -> Stdlib.max r.Controlled_queue.r_time ((Time.sec u :> int))
    | None -> r.Controlled_queue.r_time
  in
  let fuel = ref 100_000 in
  let continue_ = ref true in
  while !continue_ do
    decr fuel;
    if !fuel < 0 then failwith "mcheck: fixture prelude did not quiesce";
    match Engine.ready_set engine with
    | [] -> continue_ := false
    | first :: rest ->
        let best =
          List.fold_left
            (fun b r ->
              if
                eff r < eff b
                || (eff r = eff b
                   && r.Controlled_queue.r_seq < b.Controlled_queue.r_seq)
              then r
              else b)
            first rest
        in
        if eff best >= horizon then continue_ := false
        else begin
          (* Deliver a held message *at* its hold instant: lifetime
             arithmetic must see the delayed delivery time. *)
          Engine.advance_clock engine (Time.unsafe_of_ns (eff best));
          ignore (Engine.fire_seq engine best.Controlled_queue.r_seq)
        end
  done

let build (fx : Fixture.t) proto =
  let protocol =
    match proto with
    | Aodv -> Scenario.Aodv aodv_config
    | Ldr -> Scenario.Ldr ldr_config
  in
  let n = fx.Fixture.nodes in
  let sim =
    Runner.build ~scheduler:`Controlled
      (Scenario.graph protocol ~nodes:n ~links:fx.Fixture.links)
  in
  let monitor = Runner.attach_monitor ~quiet:true sim in
  let engine = sim.Runner.engine and links = Option.get sim.Runner.links in
  List.iter
    (fun { Fixture.at; act } ->
      let label, run =
        match act with
        | Fixture.Origin (s, d) ->
            ( Printf.sprintf "SCRIPT origin %d->%d" s d,
              fun () -> sim.Runner.inject ~src:s ~dst:d )
        | Fixture.Link_down (a, b) ->
            ( Printf.sprintf "SCRIPT down %d-%d" a b,
              fun () -> Net.Links.disconnect links a b )
        | Fixture.Link_up (a, b) ->
            ( Printf.sprintf "SCRIPT up %d-%d" a b,
              fun () -> Net.Links.connect links a b )
      in
      ignore (Engine.at_tagged engine (Time.sec at) ~tag:(-1) ~label run))
    fx.Fixture.script;
  run_prelude engine fx;
  { sim; engine; monitor; walk = Routing.Agent.walk n; n }

let choice_of (r : Controlled_queue.ready) =
  {
    c_seq = r.Controlled_queue.r_seq;
    c_tag = r.r_tag;
    c_time = r.r_time;
    c_float = r.r_floating;
    c_label = r.r_label;
  }

let fire sys (ch : choice) =
  if not (Engine.fire_seq sys.engine ch.c_seq) then
    failwith
      (Printf.sprintf
         "mcheck: replay divergence — event %d (%s) not pending" ch.c_seq
         ch.c_label)

let violation_of sys =
  match Routing.Agent.find_cycle sys.walk sys.sim.Runner.agents with
  | Some (dst, nodes) -> Some (Cycle (dst, nodes))
  | None ->
      let v = Obs.Monitor.violations sys.monitor in
      if v > 0 then Some (Monitor v) else None

(* Two ready events commute iff both are floating message deliveries at
   distinct nodes: neither touches the other's node state, neither
   advances the clock.  Timed events move the shared clock (route
   expiry reads it everywhere), so they are dependent with everything
   and never enter a sleep set. *)
let independent (a : Controlled_queue.ready) (b : Controlled_queue.ready) =
  a.Controlled_queue.r_floating && b.Controlled_queue.r_floating
  && a.r_tag >= 0 && b.r_tag >= 0
  && a.r_tag <> b.r_tag

(* Run-independent identity of a pending event, for memo keys: seq ids
   differ between runs that reached the same state by different
   orders, but (tag, class, payload) do not.  A floating event's
   nominal time is its creation instant — semantically inert (firing
   one never moves the clock, which is already at or past it), so two
   orders that created the same in-flight message at different
   instants still merge.  Timed events keep their time: it decides
   when they fire. *)
let event_key (r : Controlled_queue.ready) =
  if r.Controlled_queue.r_floating then
    Printf.sprintf "F%d|%s" r.Controlled_queue.r_tag r.r_label
  else Printf.sprintf "T%d|%d|%s" r.Controlled_queue.r_tag r.r_time r.r_label

let digest_sys sys =
  let tables = ref [] in
  for i = sys.n - 1 downto 0 do
    let ag = sys.sim.Runner.agents.(i) in
    let succs = ref [] in
    for d = sys.n - 1 downto 0 do
      if d <> i then
        succs :=
          (match ag.Routing.Agent.successor (Node_id.of_int d) with
          | Some s -> Node_id.to_int s
          | None -> -1)
          :: !succs
    done;
    tables :=
      (!succs, ag.Routing.Agent.own_seqno (), ag.Routing.Agent.route_stats ())
      :: !tables
  done;
  let pend =
    List.sort compare (List.map event_key (Engine.pending_set sys.engine))
  in
  Hashtbl.hash_param 500 5000
    ( !tables,
      pend,
      (Engine.now sys.engine :> int),
      Obs.Monitor.violations sys.monitor )

(* sl (sorted) a subset of cur (sorted)? *)
let rec subset sl cur =
  match (sl, cur) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys ->
      if String.equal x y then subset xs ys
      else if String.compare x y > 0 then subset sl ys
      else false

exception Abort

let explore ~max_steps ?(max_states = 2_000_000)
    ?(stop_at_first = true) ?(dedup = true) fx proto =
  let st = fresh_stats () in
  let first = ref None in
  let memo : (int, (string list * int) list) Hashtbl.t =
    Hashtbl.create 4096
  in
  let rec go sys rprefix depth sleep =
    if st.states >= max_states then begin
      st.complete <- false;
      raise Abort
    end;
    st.states <- st.states + 1;
    if depth > st.max_depth then st.max_depth <- depth;
    match violation_of sys with
    | Some kind ->
        st.violations <- st.violations + 1;
        if !first = None then
          first := Some { v_kind = kind; v_trace = List.rev rprefix };
        if stop_at_first then raise Abort
    | None ->
        if depth >= max_steps then begin
          if Engine.ready_set sys.engine = [] then
            st.terminals <- st.terminals + 1
          else st.depth_cut <- st.depth_cut + 1
        end
        else begin
          let merged =
            dedup
            &&
            let cur =
              List.sort String.compare (List.map event_key sleep)
            in
            let dig = digest_sys sys in
            match Hashtbl.find_opt memo dig with
            | Some entries
              when List.exists
                     (fun (sl, d) -> d <= depth && subset sl cur)
                     entries ->
                true
            | Some entries ->
                Hashtbl.replace memo dig ((cur, depth) :: entries);
                false
            | None ->
                Hashtbl.add memo dig [ (cur, depth) ];
                false
          in
          if merged then st.state_merged <- st.state_merged + 1
          else begin
            let enabled = Engine.ready_set sys.engine in
            if enabled = [] then st.terminals <- st.terminals + 1
            else begin
              let sleep = ref sleep in
              (* The current sys can carry exactly one child (fire in
                 place); every further sibling re-executes the prefix. *)
              let in_place = ref (Some sys) in
              List.iter
                (fun (r : Controlled_queue.ready) ->
                  if
                    List.exists
                      (fun (s : Controlled_queue.ready) ->
                        s.Controlled_queue.r_seq = r.Controlled_queue.r_seq)
                      !sleep
                  then st.sleep_skipped <- st.sleep_skipped + 1
                  else begin
                    let ch = choice_of r in
                    let child_sleep =
                      List.filter (fun s -> independent s r) !sleep
                    in
                    let sys' =
                      match !in_place with
                      | Some s ->
                          in_place := None;
                          fire s ch;
                          s
                      | None ->
                          st.replays <- st.replays + 1;
                          st.replayed_events <-
                            st.replayed_events + depth + 1;
                          let s = build fx proto in
                          List.iter (fire s) (List.rev (ch :: rprefix));
                          s
                    in
                    st.transitions <- st.transitions + 1;
                    go sys' (ch :: rprefix) (depth + 1) child_sleep;
                    sleep := r :: !sleep
                  end)
                enabled
            end
          end
        end
  in
  (try go (build fx proto) [] 0 [] with Abort -> ());
  { stats = st; violation = !first }

let random_walks ~max_steps ~walks ~seed fx proto =
  let st = fresh_stats () in
  st.complete <- false;
  let first = ref None in
  let rng = Rng.create seed in
  (try
     for _ = 1 to walks do
       let sys = build fx proto in
       let rprefix = ref [] in
       let depth = ref 0 in
       let stop = ref false in
       while not !stop do
         st.states <- st.states + 1;
         if !depth > st.max_depth then st.max_depth <- !depth;
         match violation_of sys with
         | Some kind ->
             st.violations <- st.violations + 1;
             if !first = None then
               first := Some { v_kind = kind; v_trace = List.rev !rprefix };
             raise Abort
         | None ->
             if !depth >= max_steps then begin
               st.depth_cut <- st.depth_cut + 1;
               stop := true
             end
             else begin
               let enabled = Engine.ready_set sys.engine in
               match enabled with
               | [] ->
                   st.terminals <- st.terminals + 1;
                   stop := true
               | _ ->
                   let k = Rng.int rng (List.length enabled) in
                   let ch = choice_of (List.nth enabled k) in
                   fire sys ch;
                   st.transitions <- st.transitions + 1;
                   rprefix := ch :: !rprefix;
                   incr depth
             end
       done
     done
   with Abort -> ());
  { stats = st; violation = !first }

let minimize fx proto viol =
  let best = ref viol in
  let continue_ = ref true in
  while !continue_ do
    let bound = List.length !best.v_trace - 1 in
    if bound < 1 then continue_ := false
    else
      match (explore ~max_steps:bound ~stop_at_first:true fx proto).violation with
      | Some v -> best := v
      | None -> continue_ := false
  done;
  !best

let replay fx proto trace =
  let sys = build fx proto in
  List.iter
    (fun ch ->
      (* Cross-check recorded metadata before firing: a stale trace
         against changed code fails loudly, not subtly. *)
      (if ch.c_label <> "" then
         let pending = Engine.pending_set sys.engine in
         match
           List.find_opt
             (fun (r : Controlled_queue.ready) ->
               r.Controlled_queue.r_seq = ch.c_seq)
             pending
         with
         | Some r when r.Controlled_queue.r_label = ch.c_label -> ()
         | Some r ->
             failwith
               (Printf.sprintf
                  "mcheck: replay divergence — event %d is %S, trace says %S"
                  ch.c_seq r.Controlled_queue.r_label ch.c_label)
         | None -> ());
      fire sys ch)
    trace;
  violation_of sys

let digest fx proto prefix =
  let sys = build fx proto in
  List.iter (fire sys) prefix;
  digest_sys sys

(* ---- trace files -------------------------------------------------- *)

let render_vkind = function
  | Cycle (dst, nodes) ->
      let cyc =
        match nodes with
        | [] -> "?"
        | hd :: _ ->
            String.concat "->" (List.map string_of_int (nodes @ [ hd ]))
      in
      Printf.sprintf "cycle dst=%d via %s" dst cyc
  | Monitor n -> Printf.sprintf "monitor violations=%d" n

let write_trace ~path (fx : Fixture.t) proto viol =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "{\"k\":\"mcheck\",\"fixture\":\"%s\",\"protocol\":\"%s\",\"steps\":%d}\n"
        (Obs.Jsonl.escape fx.Fixture.name)
        (protocol_name proto)
        (List.length viol.v_trace);
      List.iteri
        (fun i ch ->
          Printf.fprintf oc
            "{\"k\":\"step\",\"i\":%d,\"seq\":%d,\"tag\":%d,\"t\":%d,\"f\":%d,\"s\":\"%s\"}\n"
            i ch.c_seq ch.c_tag ch.c_time
            (if ch.c_float then 1 else 0)
            (Obs.Jsonl.escape ch.c_label))
        viol.v_trace;
      match viol.v_kind with
      | Cycle (dst, nodes) ->
          Printf.fprintf oc
            "{\"k\":\"violation\",\"kind\":\"cycle\",\"dst\":%d,\"cycle\":\"%s\",\"count\":0,\"depth\":%d}\n"
            dst
            (String.concat " " (List.map string_of_int nodes))
            (List.length viol.v_trace)
      | Monitor n ->
          Printf.fprintf oc
            "{\"k\":\"violation\",\"kind\":\"monitor\",\"dst\":-1,\"cycle\":\"\",\"count\":%d,\"depth\":%d}\n"
            n (List.length viol.v_trace))

let field fields name =
  match List.assoc_opt name fields with
  | Some (Obs.Jsonl.Int i) -> Some i
  | _ -> None

let sfield fields name =
  match List.assoc_opt name fields with
  | Some (Obs.Jsonl.Str s) -> Some s
  | _ -> None

let read_trace ~path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error e -> Error e
  | lines -> (
      let header = ref None in
      let steps = ref [] in
      let viol = ref None in
      let err = ref None in
      List.iteri
        (fun lineno line ->
          if !err = None && String.trim line <> "" then
            match Obs.Jsonl.parse_line line with
            | None ->
                err := Some (Printf.sprintf "line %d: bad JSON" (lineno + 1))
            | Some fields -> (
                match sfield fields "k" with
                | Some "mcheck" -> (
                    match
                      (sfield fields "fixture", sfield fields "protocol")
                    with
                    | Some fx, Some p -> (
                        match protocol_of_string p with
                        | Some proto -> header := Some (fx, proto)
                        | None ->
                            err :=
                              Some (Printf.sprintf "unknown protocol %S" p))
                    | _ -> err := Some "header missing fixture/protocol")
                | Some "step" -> (
                    match
                      ( field fields "seq",
                        field fields "tag",
                        field fields "t",
                        field fields "f" )
                    with
                    | Some seq, Some tag, Some t, Some f ->
                        steps :=
                          {
                            c_seq = seq;
                            c_tag = tag;
                            c_time = t;
                            c_float = f <> 0;
                            c_label =
                              Option.value ~default:"" (sfield fields "s");
                          }
                          :: !steps
                    | _ ->
                        err :=
                          Some
                            (Printf.sprintf "line %d: bad step" (lineno + 1)))
                | Some "violation" -> (
                    match sfield fields "kind" with
                    | Some "cycle" ->
                        let dst =
                          Option.value ~default:(-1) (field fields "dst")
                        in
                        let nodes =
                          match sfield fields "cycle" with
                          | Some s ->
                              String.split_on_char ' ' s
                              |> List.filter_map int_of_string_opt
                          | None -> []
                        in
                        viol := Some (Cycle (dst, nodes))
                    | Some "monitor" ->
                        viol :=
                          Some
                            (Monitor
                               (Option.value ~default:1
                                  (field fields "count")))
                    | _ -> err := Some "bad violation line")
                | _ ->
                    err :=
                      Some (Printf.sprintf "line %d: unknown k" (lineno + 1))))
        lines;
      match (!err, !header, !viol) with
      | Some e, _, _ -> Error e
      | None, None, _ -> Error "missing mcheck header line"
      | None, _, None -> Error "missing violation line"
      | None, Some (fx, proto), Some v -> Ok (fx, proto, List.rev !steps, v))

let debug_ready fx proto prefix =
  let sys = build fx proto in
  List.iter (fire sys) prefix;
  Engine.ready_set sys.engine
