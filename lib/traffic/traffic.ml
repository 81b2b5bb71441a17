open Sim
open Packets

type config = { num_flows : int; packets_per_sec : float }

let default_config = { num_flows = 10; packets_per_sec = 4. }

let payload_bytes = 512
let mean_flow_duration = 100.  (* seconds, exponentially distributed *)
let startup_window = Time.sec 10.  (* flow starts are staggered over it *)

(* One slot = an endless succession of flows.  The slot record carries
   the current flow's state and is re-armed by two pre-bound callbacks
   — one per packet tick, one per flow restart — via [Engine.at_fn], so
   steady-state traffic generation schedules without allocating
   closures.  RNG draw order (flow id, src/dst pair, duration) and
   event scheduling order (packet tick before restart) match the
   original closure-based generator exactly; same-instant determinism
   depends on it. *)
type slot = {
  engine : Engine.t;
  rng : Rng.t;
  until : Time.t;
  num_nodes : int;
  emit : src:Node_id.t -> Data_msg.t -> unit;
  interval : Time.t;
  next_flow_id : int ref;  (* shared across slots *)
  mutable s_flow_id : int;
  mutable s_src : Node_id.t;
  mutable s_dst : Node_id.t;
  mutable s_seq : int;
  mutable s_stop : Time.t;
  mutable s_at : Time.t;  (* next packet tick *)
}

let pick_pair s =
  let src = Rng.int s.rng s.num_nodes in
  let rec pick_dst () =
    let d = Rng.int s.rng s.num_nodes in
    if d = src then pick_dst () else d
  in
  (Node_id.of_int src, Node_id.of_int (pick_dst ()))

let rec start_flow s start =
  if Time.(start < s.until) then begin
    s.s_flow_id <- !(s.next_flow_id);
    incr s.next_flow_id;
    let src, dst = pick_pair s in
    s.s_src <- src;
    s.s_dst <- dst;
    let duration = Time.sec (Rng.exponential s.rng mean_flow_duration) in
    s.s_stop <- Time.min s.until (Time.add start duration);
    s.s_seq <- 0;
    emit_packet s start;
    (* The slot restarts as soon as this flow ends. *)
    ignore (Engine.at_fn s.engine s.s_stop restart s)
  end

and emit_packet s at =
  if Time.(at < s.s_stop) then begin
    s.s_at <- at;
    ignore (Engine.at_fn s.engine at packet_tick s)
  end

and packet_tick s =
  let at = s.s_at in
  let msg =
    Data_msg.fresh ~flow_id:s.s_flow_id ~seq:s.s_seq ~src:s.s_src ~dst:s.s_dst
      ~payload_bytes ~origin_time:at
  in
  s.s_seq <- s.s_seq + 1;
  s.emit ~src:s.s_src msg;
  emit_packet s (Time.add at s.interval)

and restart s = start_flow s s.s_stop

let setup ~engine ~rng ~num_nodes ~config ~until ~emit =
  if num_nodes < 2 then invalid_arg "Traffic.setup: need at least two nodes";
  let next_flow_id = ref 0 in
  (* A zero tick would re-arm at the same instant forever; a zero,
     negative or NaN rate has no interval at all. *)
  let interval =
    match Time.sec (1. /. config.packets_per_sec) with
    | i when Time.(i > Time.zero) -> i
    | _ | (exception Invalid_argument _) ->
        invalid_arg "Traffic.setup: packet interval is not a positive time"
  in
  for _ = 1 to config.num_flows do
    let s =
      {
        engine;
        rng;
        until;
        num_nodes;
        emit;
        interval;
        next_flow_id;
        s_flow_id = 0;
        s_src = Node_id.of_int 0;
        s_dst = Node_id.of_int 0;
        s_seq = 0;
        s_stop = Time.zero;
        s_at = Time.zero;
      }
    in
    start_flow s (Rng.uniform_time rng startup_window)
  done
