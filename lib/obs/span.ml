(* Offline span reconstruction and rendering.  Emission is spread
   across net/routing/experiment (each layer calls [Bus.span] with a
   Stage code); this module is the single place that knows how the
   stage stream stitches back into per-packet critical paths. *)

module Stage = struct
  let originate = 0
  let buf_enter = 1
  let buf_exit = 2
  let mac_enq = 3
  let mac_deq = 4
  let mac_try = 5
  let mac_end = 6
  let mac_fail = 7
  let mac_drop = 8
  let ring = 9
  let agg = 10
  let name = Event.span_stage_name
end

type hop = {
  h_node : int;
  h_next : int;
  mutable h_enq : int;
  mutable h_deq : int;
  mutable h_first_try : int;
  mutable h_last_try : int;
  mutable h_end : int;
  mutable h_attempts : int;
  mutable h_failed : bool;
}

type path = {
  p_flow : int;
  p_seq : int;
  mutable p_src : int;
  mutable p_dst : int;
  mutable p_bytes : int;
  mutable p_originated : int;
  mutable p_delivered : int;
  mutable p_deliver_hops : int;
  mutable p_buffer_ns : int;
  mutable p_hops : hop list;
  mutable p_dropped : bool;
  mutable p_drop_reason : int;
}

type t = { paths : path list; ring_attempts : int; agg_members : int }

let new_hop ~node ~next ~enq =
  {
    h_node = node;
    h_next = next;
    h_enq = enq;
    h_deq = -1;
    h_first_try = -1;
    h_last_try = -1;
    h_end = -1;
    h_attempts = 0;
    h_failed = false;
  }

let reconstruct bus =
  let paths = Hashtbl.create 256 in
  (* A node holds at most one in-flight frame per packet, so the open
     MAC hop is keyed by (flow, seq, node).  Hops from different path
     positions interleave in time (the downstream node enqueues before
     the upstream ACK closes the previous hop), which is why a single
     "current hop" cursor would mis-stitch. *)
  let open_hops = Hashtbl.create 256 in
  let buf_open = Hashtbl.create 64 in
  let ring_attempts = ref 0 in
  let agg_members = ref 0 in
  let get flow seq =
    let key = (flow, seq) in
    match Hashtbl.find_opt paths key with
    | Some p -> p
    | None ->
        let p =
          {
            p_flow = flow;
            p_seq = seq;
            p_src = -1;
            p_dst = -1;
            p_bytes = -1;
            p_originated = -1;
            p_delivered = -1;
            p_deliver_hops = -1;
            p_buffer_ns = 0;
            p_hops = [];
            p_dropped = false;
            p_drop_reason = -1;
          }
        in
        Hashtbl.add paths key p;
        p
  in
  Bus.add_sink bus (fun (ev : Event.t) ->
      let now = (ev.time :> int) in
      match ev.kind with
      | Event.Span ->
          if ev.a = Stage.ring then incr ring_attempts
          else if ev.a = Stage.agg then incr agg_members
          else begin
            let p = get ev.b ev.c in
            let hkey = (ev.b, ev.c, ev.node) in
            if ev.a = Stage.originate then begin
              p.p_src <- ev.node;
              p.p_dst <- ev.d;
              p.p_bytes <- ev.e;
              p.p_originated <- now
            end
            else if ev.a = Stage.buf_enter then
              Hashtbl.replace buf_open (ev.b, ev.c) now
            else if ev.a = Stage.buf_exit then begin
              match Hashtbl.find_opt buf_open (ev.b, ev.c) with
              | Some entered ->
                  p.p_buffer_ns <- p.p_buffer_ns + (now - entered);
                  Hashtbl.remove buf_open (ev.b, ev.c)
              | None -> ()
            end
            else if ev.a = Stage.mac_enq then begin
              (* A still-open hop at this node means the frame was
                 re-queued (e.g. after a route repair): keep the stale
                 hop in the path and start a fresh one. *)
              Hashtbl.remove open_hops hkey;
              let h = new_hop ~node:ev.node ~next:ev.d ~enq:now in
              Hashtbl.replace open_hops hkey h;
              p.p_hops <- h :: p.p_hops
            end
            else if ev.a = Stage.mac_drop then begin
              let h = new_hop ~node:ev.node ~next:ev.d ~enq:(-1) in
              h.h_failed <- true;
              p.p_hops <- h :: p.p_hops
            end
            else begin
              match Hashtbl.find_opt open_hops hkey with
              | None -> ()
              | Some h ->
                  if ev.a = Stage.mac_deq then begin
                    if h.h_deq < 0 then h.h_deq <- now
                  end
                  else if ev.a = Stage.mac_try then begin
                    if h.h_first_try < 0 then h.h_first_try <- now;
                    h.h_last_try <- now;
                    h.h_attempts <- ev.e
                  end
                  else if ev.a = Stage.mac_end then begin
                    h.h_end <- now;
                    h.h_attempts <- ev.e;
                    Hashtbl.remove open_hops hkey
                  end
                  else if ev.a = Stage.mac_fail then begin
                    h.h_failed <- true;
                    h.h_attempts <- ev.e;
                    Hashtbl.remove open_hops hkey
                  end
            end
          end
      | Event.Deliver ->
          let p = get ev.a ev.b in
          p.p_delivered <- now;
          p.p_deliver_hops <- ev.d;
          if p.p_src < 0 then p.p_src <- ev.c
      | Event.Data_drop ->
          let p = get ev.b ev.c in
          p.p_dropped <- true;
          p.p_drop_reason <- ev.a;
          if p.p_src < 0 then p.p_src <- ev.d;
          if p.p_dst < 0 then p.p_dst <- ev.e
      | _ -> ());
  fun () ->
    let ps = Hashtbl.fold (fun _ p acc -> p :: acc) paths [] in
    let ps =
      List.sort
        (fun a b ->
          if a.p_flow <> b.p_flow then compare a.p_flow b.p_flow
          else compare a.p_seq b.p_seq)
        ps
    in
    List.iter (fun p -> p.p_hops <- List.rev p.p_hops) ps;
    { paths = ps; ring_attempts = !ring_attempts; agg_members = !agg_members }

let is_complete p =
  p.p_originated >= 0 && p.p_delivered >= 0
  && p.p_deliver_hops >= 0
  &&
  let attempted =
    List.fold_left
      (fun n h -> if h.h_enq >= 0 && h.h_first_try >= 0 then n + 1 else n)
      0 p.p_hops
  in
  attempted >= p.p_deliver_hops

(* ---- Stage timing decomposition --------------------------------------- *)

(* Per delivered path, in ns.  queue = ifq head-of-line wait,
   access = contention/backoff between dequeue and the last attempt's
   start, air = last attempt start to ACK.  Hops whose mac_end was
   clipped by the horizon (the final hop's ACK lands after Deliver)
   contribute no air time, so the stage sum can fall slightly short of
   the total; conversely MAC retries of an eventually-acked frame keep
   the whole retry window inside access.  The decomposition is a
   breakdown aid, not an identity. *)
let stage_sums p =
  let queue = ref 0 and access = ref 0 and air = ref 0 in
  List.iter
    (fun h ->
      if h.h_enq >= 0 && h.h_deq >= 0 then begin
        queue := !queue + (h.h_deq - h.h_enq);
        if h.h_last_try >= 0 then begin
          access := !access + (h.h_last_try - h.h_deq);
          if h.h_end >= 0 then air := !air + (h.h_end - h.h_last_try)
        end
      end)
    p.p_hops;
  (p.p_buffer_ns, !queue, !access, !air)

let ms ns = float_of_int ns /. 1e6

let pct hdr q = ms (Stats.Hdr.quantile hdr q)

let report ?flow ~name t =
  let total = List.length t.paths in
  let delivered = List.filter (fun p -> p.p_delivered >= 0) t.paths in
  let n_delivered = List.length delivered in
  let n_complete = List.length (List.filter is_complete delivered) in
  let n_dropped =
    List.length (List.filter (fun p -> p.p_dropped) t.paths)
  in
  let lines = ref [] in
  let out fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  out "spans: %d paths (%d delivered, %d dropped, %d in flight)" total
    n_delivered n_dropped
    (total - n_delivered - n_dropped);
  out "delivered paths complete: %d/%d (%.1f%%)" n_complete n_delivered
    (if n_delivered = 0 then 100.
     else 100. *. float_of_int n_complete /. float_of_int n_delivered);
  out "discovery: %d ring attempts, %d aggregated rreqs" t.ring_attempts
    t.agg_members;
  if n_delivered > 0 then begin
    (* Stage breakdown over all delivered paths. *)
    let h_buffer = Stats.Hdr.create () in
    let h_queue = Stats.Hdr.create () in
    let h_access = Stats.Hdr.create () in
    let h_air = Stats.Hdr.create () in
    let h_total = Stats.Hdr.create () in
    List.iter
      (fun p ->
        let b, q, a, r = stage_sums p in
        Stats.Hdr.add h_buffer b;
        Stats.Hdr.add h_queue q;
        Stats.Hdr.add h_access a;
        Stats.Hdr.add h_air r;
        if p.p_originated >= 0 then
          Stats.Hdr.add h_total (p.p_delivered - p.p_originated))
      delivered;
    out "";
    out "stage latency over delivered paths (ms):";
    out "  %-8s %9s %9s %9s %9s" "stage" "p50" "p95" "p99" "max";
    List.iter
      (fun (label, h) ->
        out "  %-8s %9.3f %9.3f %9.3f %9.3f" label (pct h 0.5) (pct h 0.95)
          (pct h 0.99)
          (ms (Stats.Hdr.max_value h)))
      [
        ("buffer", h_buffer);
        ("queue", h_queue);
        ("access", h_access);
        ("air", h_air);
        ("total", h_total);
      ];
    (* Per-flow waterfall: average stage shares as a bar, totals from a
       per-flow histogram. *)
    let flows = Hashtbl.create 16 in
    List.iter
      (fun p ->
        let fl =
          match Hashtbl.find_opt flows p.p_flow with
          | Some fl -> fl
          | None ->
              let fl = (Stats.Hdr.create (), ref 0, ref [ 0; 0; 0; 0 ]) in
              Hashtbl.replace flows p.p_flow fl;
              fl
        in
        let h, n, sums = fl in
        if p.p_delivered >= 0 && p.p_originated >= 0 then begin
          Stats.Hdr.add h (p.p_delivered - p.p_originated);
          incr n;
          let b, q, a, r = stage_sums p in
          match !sums with
          | [ sb; sq; sa; sr ] -> sums := [ sb + b; sq + q; sa + a; sr + r ]
          | _ -> assert false
        end)
      t.paths;
    out "";
    out "per-flow waterfall (stage shares of delivered latency):";
    let flow_ids =
      Hashtbl.fold (fun id _ acc -> id :: acc) flows [] |> List.sort compare
    in
    List.iter
      (fun id ->
        let h, n, sums = Hashtbl.find flows id in
        let pkts =
          List.length (List.filter (fun p -> p.p_flow = id) t.paths)
        in
        if !n = 0 then out "  flow %-3d %4d pkts, none delivered" id pkts
        else begin
          let b, q, a, r =
            match !sums with
            | [ sb; sq; sa; sr ] -> (sb, sq, sa, sr)
            | _ -> assert false
          in
          let covered = b + q + a + r in
          let width = 32 in
          let bar = Bytes.make width '.' in
          let pos = ref 0 in
          List.iter
            (fun (ch, v) ->
              if covered > 0 then begin
                let cells = v * width / covered in
                for _ = 1 to cells do
                  if !pos < width then begin
                    Bytes.set bar !pos ch;
                    incr pos
                  end
                done
              end)
            [ ('b', b); ('q', q); ('a', a); ('r', r) ];
          out "  flow %-3d %4d pkts %4d dlvd |%s| p50 %8.3f p95 %8.3f p99 %8.3f"
            id pkts !n (Bytes.to_string bar) (pct h 0.5) (pct h 0.95)
            (pct h 0.99)
        end)
      flow_ids
  end;
  (match flow with
  | None -> ()
  | Some fl ->
      out "";
      out "flow %d packets (ms):" fl;
      out "  %-6s %10s %8s %8s %8s %8s %5s %9s  %s" "seq" "origin_s" "buffer"
        "queue" "access" "air" "hops" "total" "state";
      List.iter
        (fun p ->
          if p.p_flow = fl then begin
            let b, q, a, r = stage_sums p in
            let state =
              if p.p_delivered >= 0 then
                if is_complete p then "complete" else "partial"
              else if p.p_dropped then
                Printf.sprintf "drop:%s" (name p.p_drop_reason)
              else "in-flight"
            in
            let total_ms =
              if p.p_delivered >= 0 && p.p_originated >= 0 then
                ms (p.p_delivered - p.p_originated)
              else 0.
            in
            out "  %-6d %10.4f %8.3f %8.3f %8.3f %8.3f %5d %9.3f  %s" p.p_seq
              (float_of_int p.p_originated /. 1e9)
              (ms b) (ms q) (ms a) (ms r)
              (List.length p.p_hops)
              total_ms state
          end)
        t.paths);
  List.rev !lines
