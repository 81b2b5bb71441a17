type scheduler = [ `Calendar | `Controlled ]

(* The calendar queue runs every simulation.  The controlled set is the
   model checker's: introspectable pending events the explorer picks
   from, whose default pop is the global (time, seq) minimum.  That
   makes it the calendar's reference as well — a recorded calendar run
   replays through it event for event ([replay_trace]). *)
type sched = Cal of Calendar_queue.t | Ctl of Controlled_queue.t

(* A recorded scheduler workload: the exact sequence of schedule /
   cancel / pop operations a run performed, in execution order.  A
   replay drives a fresh engine through it with no-op callbacks, which
   times the engine hot path on the real op mix and checks that the
   replaying scheduler fires the same events in the same order.

   One byte of kind plus one int per op: 's' carries the absolute
   schedule time, 'c' the index of the 's' op it cancels, 'p' the index
   of the 's' op whose event fired.  Both targets are resolved at record
   time through a per-slot (op index, generation) side table, so stale
   cancels — handles whose event already fired — are recorded too and
   replay as the no-ops they were. *)
module Trace = struct
  type t = {
    mutable kinds : Bytes.t;
    mutable vals : int array;
    mutable len : int;
    mutable pops : int;
    (* slot index -> (op index, generation) of its latest schedule *)
    mutable slot_op : int array;
    mutable slot_gen : int array;
  }

  let create () =
    {
      kinds = Bytes.create 4096;
      vals = Array.make 4096 0;
      len = 0;
      pops = 0;
      slot_op = Array.make 256 (-1);
      slot_gen = Array.make 256 (-1);
    }

  let push tr k v =
    if tr.len = Array.length tr.vals then begin
      let cap = 2 * tr.len in
      let kinds' = Bytes.create cap and vals' = Array.make cap 0 in
      Bytes.blit tr.kinds 0 kinds' 0 tr.len;
      Array.blit tr.vals 0 vals' 0 tr.len;
      tr.kinds <- kinds';
      tr.vals <- vals'
    end;
    Bytes.unsafe_set tr.kinds tr.len k;
    tr.vals.(tr.len) <- v;
    tr.len <- tr.len + 1

  let record_sched tr h time =
    push tr 's' time;
    let idx = h land Calendar_queue.handle_idx_mask in
    let gen = h lsr Calendar_queue.handle_idx_bits in
    if idx >= Array.length tr.slot_op then begin
      let cap = ref (2 * Array.length tr.slot_op) in
      while idx >= !cap do cap := 2 * !cap done;
      let op' = Array.make !cap (-1) and gen' = Array.make !cap (-1) in
      Array.blit tr.slot_op 0 op' 0 (Array.length tr.slot_op);
      Array.blit tr.slot_gen 0 gen' 0 (Array.length tr.slot_gen);
      tr.slot_op <- op';
      tr.slot_gen <- gen'
    end;
    tr.slot_op.(idx) <- tr.len - 1;
    tr.slot_gen.(idx) <- gen

  let record_cancel tr h =
    let idx = h land Calendar_queue.handle_idx_mask in
    if
      idx < Array.length tr.slot_op
      && tr.slot_gen.(idx) = h lsr Calendar_queue.handle_idx_bits
    then push tr 'c' tr.slot_op.(idx)

  (* A staged slot is unlinked but not yet freed, so its side-table
     entry still names the schedule op that filled it. *)
  let record_pop tr slot =
    push tr 'p' tr.slot_op.(slot);
    tr.pops <- tr.pops + 1

  let length tr = tr.len
  let pops tr = tr.pops
end

type t = {
  sched : sched;
  mutable clock : Time.t;
  mutable fired : int;
  mutable trace : Trace.t option;
}

(* Calendar handles are generation-packed slot handles, never 0;
   controlled handles are the queue's sequence id plus one.  An engine
   only ever sees its own queue's handles, and 0 is "no timer" for
   both. *)
type handle = int

let none = 0
let is_none h = h = 0

let create ?(scheduler = `Calendar) () =
  let sched =
    match scheduler with
    | `Calendar -> Cal (Calendar_queue.create ())
    | `Controlled -> Ctl (Controlled_queue.create ())
  in
  { sched; clock = Time.zero; fired = 0; trace = None }

(* Recording starts on a fresh engine, so every popped slot was
   scheduled under the recorder and maps back to its op. *)
let record_trace t =
  match t.sched with
  | Ctl _ -> invalid_arg "Engine.record_trace: only calendar engines can record"
  | Cal q ->
      if t.fired > 0 || not (Calendar_queue.is_empty q) then
        invalid_arg "Engine.record_trace: the engine has already scheduled";
      let tr = Trace.create () in
      t.trace <- Some tr;
      tr

let controlled t = match t.sched with Ctl _ -> true | Cal _ -> false
let now t = t.clock

let check_past t time =
  if Time.(time < t.clock) then
    invalid_arg
      (Printf.sprintf "Engine.at: scheduling in the past (%s < %s)"
         (Time.to_string time) (Time.to_string t.clock))

let traced t h (time : Time.t) =
  (match t.trace with
  | None -> ()
  | Some tr -> Trace.record_sched tr h (time :> int));
  h

let at t time action =
  check_past t time;
  match t.sched with
  | Cal q -> traced t (Calendar_queue.schedule q time action) time
  | Ctl q -> Controlled_queue.schedule q ~time:(time :> int) action + 1

let after t d action = at t (Time.add t.clock d) action

let at_tagged t time ~tag ~label action =
  check_past t time;
  match t.sched with
  | Cal q -> traced t (Calendar_queue.schedule q time action) time
  | Ctl q ->
      Controlled_queue.schedule q ~tag ~label ~time:(time :> int) action + 1

let schedule_floating t ?(tag = -1) ?(label = "") action =
  match t.sched with
  | Cal _ ->
      (* Without a choosing explorer a floating event is just an event at
         the current instant. *)
      at t t.clock action
  | Ctl q ->
      Controlled_queue.schedule q ~floating:true ~tag ~label
        ~time:(t.clock :> int) action
      + 1

(* Closure-free path for the high-frequency event classes (MAC timers,
   channel end-of-transmission, traffic ticks): the callback is a
   pre-bound top-level function and [arg] its state record, stored in
   the pooled event slot — nothing allocated per event. *)
let at_fn (type a) t time (fn : a -> unit) (arg : a) =
  check_past t time;
  match t.sched with
  | Cal q ->
      traced t
        (Calendar_queue.schedule_raw q time
           (Obj.magic fn : Obj.t -> unit)
           (Obj.repr arg))
        time
  | Ctl q ->
      (* mcheck runs are tiny; the closure allocation is irrelevant. *)
      Controlled_queue.schedule q ~time:(time :> int) (fun () -> fn arg) + 1

let after_fn t d fn arg = at_fn t (Time.add t.clock d) fn arg

let cancel t h =
  if h <> none then
    match t.sched with
    | Cal q ->
        (match t.trace with
        | None -> ()
        | Some tr -> Trace.record_cancel tr h);
        Calendar_queue.cancel q h
    | Ctl q -> Controlled_queue.cancel q (h - 1)

(* Periodic firings carry their state in one record armed with [at_fn],
   instead of a fresh closure pair per firing. *)
type periodic = {
  p_engine : t;
  p_jitter : unit -> Time.t;
  p_interval : Time.t;
  p_until : Time.t;
  p_action : unit -> unit;
  mutable p_next : Time.t;
}

let rec arm_periodic p =
  if Time.(p.p_next < p.p_until) then begin
    (* The cadence is jitter-free ([start], [start + interval], ...);
       the jitter only offsets each firing.  A jittered firing that
       lands at or past the horizon is skipped, not fired late. *)
    let fire = Time.add p.p_next (p.p_jitter ()) in
    if Time.(fire < p.p_until) then
      ignore (at_fn p.p_engine fire fire_periodic p)
    else begin
      p.p_next <- Time.add p.p_next p.p_interval;
      arm_periodic p
    end
  end

and fire_periodic p =
  p.p_action ();
  p.p_next <- Time.add p.p_next p.p_interval;
  arm_periodic p

let every t ?(jitter = fun () -> Time.zero) ~start ~interval ~until action =
  if Time.(interval <= Time.zero) then
    invalid_arg "Engine.every: interval must be positive";
  arm_periodic
    {
      p_engine = t;
      p_jitter = jitter;
      p_interval = interval;
      p_until = until;
      p_action = action;
      p_next = start;
    }

(* Fire the event [Calendar_queue.pop_staged] just staged. *)
let fire_staged t q =
  t.clock <- Calendar_queue.staged_time q;
  t.fired <- t.fired + 1;
  (match t.trace with
  | None -> ()
  | Some tr -> Trace.record_pop tr (Calendar_queue.staged_slot q));
  Calendar_queue.run_staged q

(* Fire a popped controlled event.  A floating event's nominal time can
   be behind the clock (it was created earlier and held); the clock only
   moves forward. *)
let fire_ctl t (time, action) =
  let time = Time.unsafe_of_ns time in
  if Time.(time > t.clock) then t.clock <- time;
  t.fired <- t.fired + 1;
  action ()

let step t =
  match t.sched with
  | Cal q ->
      Calendar_queue.pop_staged q max_int
      && begin
           fire_staged t q;
           true
         end
  | Ctl q -> (
      match Controlled_queue.pop_min q () with
      | None -> false
      | Some ev ->
          fire_ctl t ev;
          true)

let controlled_queue t fn =
  match t.sched with
  | Ctl q -> q
  | Cal _ ->
      invalid_arg
        (Printf.sprintf "Engine.%s: requires the controlled scheduler" fn)

let ready_set t = Controlled_queue.ready (controlled_queue t "ready_set")
let pending_set t = Controlled_queue.pending (controlled_queue t "pending_set")

let fire_seq t seq =
  match Controlled_queue.take (controlled_queue t "fire_seq") seq with
  | None -> false
  | Some ev ->
      fire_ctl t ev;
      true

let advance_clock t time =
  match t.sched with
  | Ctl _ -> if Time.(time > t.clock) then t.clock <- time
  | Cal _ ->
      invalid_arg "Engine.advance_clock: requires the controlled scheduler"

let run ?until ?max_events t =
  let limit =
    match until with None -> max_int | Some l -> (l : Time.t :> int)
  in
  let budget = match max_events with None -> max_int | Some m -> m in
  (match t.sched with
  | Cal q ->
      while t.fired < budget && Calendar_queue.pop_staged q limit do
        fire_staged t q
      done
  | Ctl q ->
      let running = ref true in
      while !running && t.fired < budget do
        match Controlled_queue.pop_min q ~limit () with
        | Some ev -> fire_ctl t ev
        | None -> running := false
      done);
  (* Advance the clock to the horizon — idle virtual time passes too, so
     repeated bounded runs observe consistent timestamps.  Not when the
     event budget stopped us with work still pending at or before the
     horizon: fast-forwarding then would move the clock backwards on the
     next [step]. *)
  match until with
  | Some horizon when Time.(t.clock < horizon) ->
      let next =
        match t.sched with
        | Cal q -> Calendar_queue.next_time_ns q
        | Ctl q -> Controlled_queue.next_time_ns q
      in
      if next > limit then t.clock <- horizon
  | Some _ | None -> ()

let events_processed t = t.fired

type stats = { pending : int; fired : int }

let stats t =
  let pending =
    match t.sched with
    | Cal q -> Calendar_queue.live_count q
    | Ctl q -> Controlled_queue.live_count q
  in
  { pending; fired = t.fired }

let calendar_buckets t =
  match t.sched with Ctl _ -> 0 | Cal q -> Calendar_queue.num_buckets q

let calendar_occupancy t =
  match t.sched with
  | Ctl _ -> 0.
  | Cal q ->
      float_of_int (Calendar_queue.near_count q)
      /. float_of_int (Calendar_queue.num_buckets q)

let calendar_scan t =
  match t.sched with
  | Ctl _ -> (0, 0)
  | Cal q -> (Calendar_queue.entries_examined q, Calendar_queue.pops q)

(* Replay a recorded workload through a fresh engine with no-op
   callbacks that note which schedule op fired.  Schedule times are
   absolute and were recorded at or after the then-current clock, and
   pops happen at the same interleaving points, so the replayed clock
   never overtakes a recorded schedule time.  Every pop must fire the
   op the recording fired: that pins the replaying scheduler's order,
   same-instant ties included, to the calendar's. *)
let replay_trace ~scheduler (tr : Trace.t) =
  let e = create ~scheduler () in
  let handles = Array.make (Stdlib.max 1 tr.Trace.len) none in
  let kinds = tr.Trace.kinds and vals = tr.Trace.vals in
  let fired_op = ref (-1) in
  let note k = fired_op := k in
  for k = 0 to tr.Trace.len - 1 do
    match Bytes.unsafe_get kinds k with
    | 's' -> handles.(k) <- at_fn e (Time.unsafe_of_ns vals.(k)) note k
    | 'c' -> cancel e handles.(vals.(k))
    | _ ->
        fired_op := -1;
        if not (step e && !fired_op = vals.(k)) then
          failwith
            (Printf.sprintf
               "Engine.replay_trace (%s): op %d: recorded pop of schedule \
                op %d, replay fired %s"
               (match scheduler with
               | `Calendar -> "calendar"
               | `Controlled -> "controlled")
               k vals.(k)
               (if !fired_op < 0 then "nothing"
                else "schedule op " ^ string_of_int !fired_op))
  done;
  e.fired
