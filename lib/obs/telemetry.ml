(* Runtime telemetry collector.  Gathering is the caller's job (the
   runner knows its engine, channel, MACs and agents); this module owns
   the JSONL format and the rate bookkeeping. *)

type gauges = {
  inflight : int;
  ifq : int;
  originated : int;
  delivered : int;
  control_tx : int;
  rt_mean : float;
  fd_mean : float;
}

type t = {
  oc : out_channel;
  started : float; (* wall clock at create *)
  mutable prev_wall : float;
  mutable prev_fired : int; (* from the last sample *)
  mutable prev_t : Sim.Time.t; (* virtual time of the last sample *)
  mutable prev_ctl : int;
  mutable prev_scan : int * int; (* calendar (entries examined, pops) *)
}

let create path =
  {
    oc = open_out path;
    started = Unix.gettimeofday ();
    prev_wall = Unix.gettimeofday ();
    prev_fired = 0;
    prev_t = Sim.Time.zero;
    prev_ctl = 0;
    prev_scan = (0, 0);
  }

(* [Gc.quick_stat]'s [minor_words] advances only when a minor
   collection completes, so a sample taken between two collections
   would miss what was allocated since the last one; [Gc.minor_words]
   also counts the current minor heap. *)
let gc_words () = (Gc.minor_words (), (Gc.quick_stat ()).Gc.promoted_words)

let rate dt prev cur = if dt <= 0. then 0. else float_of_int (cur - prev) /. dt

let record t e ~grid g =
  let wall = Unix.gettimeofday () in
  let dt = wall -. t.prev_wall in
  let s = Sim.Engine.stats e in
  let now = Sim.Engine.now e in
  let buf = Buffer.create 256 in
  Buffer.add_char buf '{';
  Printf.bprintf buf "\"t\":%d,\"wall_s\":%.6f" (now :> int)
    (wall -. t.started);
  Printf.bprintf buf ",\"events_per_s\":%.1f" (rate dt t.prev_fired s.fired);
  Printf.bprintf buf ",\"pending\":%d,\"fired\":%d" s.pending s.fired;
  (* Simulation gauges: delivery so far, and the control rate over the
     virtual time since the previous sample. *)
  let ratio =
    if g.originated = 0 then 1.
    else float_of_int g.delivered /. float_of_int g.originated
  in
  let ctl_rate =
    rate (Sim.Time.to_sec (Sim.Time.diff now t.prev_t)) t.prev_ctl g.control_tx
  in
  Printf.bprintf buf
    ",\"inflight\":%d,\"ifq\":%d,\"originated\":%d,\"delivered\":%d,\
     \"ratio\":%.4f,\"ctl_rate\":%.1f,\"rt_mean\":%.2f,\"fd_mean\":%.2f"
    g.inflight g.ifq g.originated g.delivered ratio ctl_rate g.rt_mean
    g.fd_mean;
  let examined, pops = Sim.Engine.calendar_scan e in
  let prev_examined, prev_pops = t.prev_scan in
  let scan =
    if pops = prev_pops then 0.
    else
      float_of_int (examined - prev_examined) /. float_of_int (pops - prev_pops)
  in
  Printf.bprintf buf
    ",\"cal_buckets\":%d,\"cal_occupancy\":%.3f,\"cal_scan\":%.3f"
    (Sim.Engine.calendar_buckets e)
    (Sim.Engine.calendar_occupancy e)
    scan;
  let cells, occupied, max_occ = grid in
  Printf.bprintf buf
    ",\"grid_cells\":%d,\"grid_occupied\":%d,\"grid_max_occupancy\":%d"
    cells occupied max_occ;
  let minor, promoted = gc_words () in
  Printf.bprintf buf ",\"gc_minor_words\":%.0f,\"gc_promoted_words\":%.0f"
    minor promoted;
  Buffer.add_char buf '}';
  Buffer.add_char buf '\n';
  Buffer.output_buffer t.oc buf;
  flush t.oc;
  t.prev_wall <- wall;
  t.prev_fired <- s.fired;
  t.prev_t <- now;
  t.prev_ctl <- g.control_tx;
  t.prev_scan <- (examined, pops)

let close t = close_out t.oc
