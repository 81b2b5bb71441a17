type scheduler = [ `Heap | `Calendar | `Controlled ]

(* The heap stays as the reference scheduler behind a flag (as the
   naive channel does for the store-backed one): differential tests drive
   both and demand event-for-event identical outcomes.  The controlled
   set is the model checker's: introspectable pending events the
   explorer picks from, with the default pop identical to calendar
   order. *)
type sched =
  | Heap of Event_queue.t
  | Cal of Calendar_queue.t
  | Ctl of Controlled_queue.t

(* A recorded scheduler workload: the exact sequence of schedule /
   cancel / pop operations a run performed, in execution order.  The
   engine benchmark captures one from a scenario and replays it through
   each scheduler in isolation, timing the engine hot path on the real
   op mix — timing the full simulation instead would bury the scheduler
   under the (shared, identical) protocol and channel work.

   One byte of kind plus one int per op: 's' carries the absolute
   schedule time, 'p' the pop time, 'c' the index of the 's' op it
   cancels.  Cancel targets are resolved at record time through a
   per-slot (op index, generation) side table, so stale cancels —
   handles whose event already fired — are recorded too and replay as
   the no-ops they were. *)
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

  let record_sched tr kind h time =
    push tr kind time;
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

  let record_pop tr time =
    push tr 'p' time;
    tr.pops <- tr.pops + 1

  let length tr = tr.len
  let pops tr = tr.pops
end

type t = {
  sched : sched;
  rng : Rng.t;
  mutable clock : Time.t;
  mutable fired : int;
  mutable trace : Trace.t option;
}

(* A handle is an immediate int (calendar: generation-packed slot
   handle, never 0) or a heap handle record.  Storing both behind
   [Obj.t] keeps the common case unboxed without a per-schedule variant
   allocation; [cancel] tells them apart by the engine's own mode, and
   [none] — the immediate 0 — is a valid "no timer" default for either. *)
type handle = Obj.t

let none : handle = Obj.repr 0
let is_none (h : handle) = h == Obj.repr 0

let create ?(seed = 1) ?(scheduler = `Calendar) () =
  let sched =
    match scheduler with
    | `Heap -> Heap (Event_queue.create ())
    | `Calendar -> Cal (Calendar_queue.create ())
    | `Controlled -> Ctl (Controlled_queue.create ())
  in
  { sched; rng = Rng.create seed; clock = Time.zero; fired = 0; trace = None }

let record_trace t =
  match t.sched with
  | Heap _ | Ctl _ ->
      invalid_arg "Engine.record_trace: only calendar engines can record"
  | Cal _ ->
      let tr = Trace.create () in
      t.trace <- Some tr;
      tr

let scheduler t =
  match t.sched with Heap _ -> `Heap | Cal _ -> `Calendar | Ctl _ -> `Controlled

let controlled t = match t.sched with Ctl _ -> true | Heap _ | Cal _ -> false
let now t = t.clock
let rng t = t.rng

let check_past t time =
  if Time.(time < t.clock) then
    invalid_arg
      (Printf.sprintf "Engine.at: scheduling in the past (%s < %s)"
         (Time.to_string time) (Time.to_string t.clock))

let traced_handle t kind (h : int) (time : Time.t) =
  (match t.trace with
  | None -> ()
  | Some tr -> Trace.record_sched tr kind h (time :> int));
  Obj.repr h

(* Controlled handles pack the queue's sequence id as [seq + 1] so seq 0
   stays distinguishable from [none]. *)
let ctl_handle (seq : int) : handle = Obj.repr (seq + 1)

let at t time action =
  check_past t time;
  match t.sched with
  | Heap q -> Obj.repr (Event_queue.schedule q time action)
  | Cal q -> traced_handle t 'S' (Calendar_queue.schedule q time action) time
  | Ctl q -> ctl_handle (Controlled_queue.schedule q ~time:(time :> int) action)

let after t d action = at t (Time.add t.clock d) action

let at_tagged t time ~tag ~label action =
  check_past t time;
  match t.sched with
  | Heap q -> Obj.repr (Event_queue.schedule q time action)
  | Cal q -> traced_handle t 'S' (Calendar_queue.schedule q time action) time
  | Ctl q ->
      ctl_handle
        (Controlled_queue.schedule q ~tag ~label ~time:(time :> int) action)

let schedule_floating t ?(tag = -1) ?(label = "") action =
  match t.sched with
  | Heap _ | Cal _ ->
      (* Without a choosing explorer a floating event is just an event at
         the current instant. *)
      at t t.clock action
  | Ctl q ->
      ctl_handle
        (Controlled_queue.schedule q ~floating:true ~tag ~label
           ~time:(t.clock :> int) action)

(* Closure-free path for the high-frequency event classes (MAC timers,
   channel end-of-transmission, traffic ticks): the callback is a
   pre-bound top-level function and [arg] its state record, stored in
   the pooled event slot — nothing allocated per event.  In heap mode
   the pair is wrapped into a closure, preserving the allocating
   baseline the benchmark compares against. *)
let at_fn (type a) t time (fn : a -> unit) (arg : a) =
  check_past t time;
  match t.sched with
  | Heap q -> Obj.repr (Event_queue.schedule q time (fun () -> fn arg))
  | Cal q ->
      traced_handle t 's'
        (Calendar_queue.schedule_raw q time
           (Obj.magic fn : Obj.t -> unit)
           (Obj.repr arg))
        time
  | Ctl q ->
      (* mcheck runs are tiny; the closure allocation is irrelevant. *)
      ctl_handle
        (Controlled_queue.schedule q ~time:(time :> int) (fun () -> fn arg))

let after_fn t d fn arg = at_fn t (Time.add t.clock d) fn arg

let cancel t (h : handle) =
  if not (is_none h) then
    match t.sched with
    | Heap _ -> Event_queue.cancel (Obj.obj h : Event_queue.handle)
    | Cal q ->
        (match t.trace with
        | None -> ()
        | Some tr -> Trace.record_cancel tr (Obj.obj h : int));
        Calendar_queue.cancel q (Obj.obj h : int)
    | Ctl q -> Controlled_queue.cancel q ((Obj.obj h : int) - 1)

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
  | Heap q -> (
      match Event_queue.pop q with
      | None -> false
      | Some (time, action) ->
          t.clock <- time;
          t.fired <- t.fired + 1;
          action ();
          true)
  | Cal q ->
      if Calendar_queue.pop_staged q max_int then begin
        t.clock <- Calendar_queue.staged_time q;
        t.fired <- t.fired + 1;
        (match t.trace with
        | None -> ()
        | Some tr -> Trace.record_pop tr (t.clock :> int));
        Calendar_queue.run_staged q;
        true
      end
      else false
  | Ctl q -> (
      match Controlled_queue.pop_min q () with
      | None -> false
      | Some ev ->
          fire_ctl t ev;
          true)

let ready_set t =
  match t.sched with
  | Ctl q -> Controlled_queue.ready q
  | Heap _ | Cal _ ->
      invalid_arg "Engine.ready_set: requires the controlled scheduler"

let pending_set t =
  match t.sched with
  | Ctl q -> Controlled_queue.pending q
  | Heap _ | Cal _ ->
      invalid_arg "Engine.pending_set: requires the controlled scheduler"

let fire_seq t seq =
  match t.sched with
  | Ctl q -> (
      match Controlled_queue.take q seq with
      | None -> false
      | Some ev ->
          fire_ctl t ev;
          true)
  | Heap _ | Cal _ ->
      invalid_arg "Engine.fire_seq: requires the controlled scheduler"

let advance_clock t time =
  match t.sched with
  | Ctl _ -> if Time.(time > t.clock) then t.clock <- time
  | Heap _ | Cal _ ->
      invalid_arg "Engine.advance_clock: requires the controlled scheduler"

let run ?until ?max_events t =
  (match t.sched with
  | Heap q ->
      let budget_ok () =
        match max_events with None -> true | Some m -> t.fired < m
      in
      let next () =
        match until with
        | None -> Event_queue.pop q
        | Some limit -> Event_queue.pop_until q limit
      in
      let running = ref true in
      while !running && budget_ok () do
        match next () with
        | None -> running := false
        | Some (time, action) ->
            t.clock <- time;
            t.fired <- t.fired + 1;
            action ()
      done
  | Cal q ->
      let limit =
        match until with None -> max_int | Some l -> (l :> int)
      in
      let budget = match max_events with None -> max_int | Some m -> m in
      let running = ref true in
      while !running && t.fired < budget do
        if Calendar_queue.pop_staged q limit then begin
          t.clock <- Calendar_queue.staged_time q;
          t.fired <- t.fired + 1;
          (match t.trace with
          | None -> ()
          | Some tr -> Trace.record_pop tr (t.clock :> int));
          Calendar_queue.run_staged q
        end
        else running := false
      done
  | Ctl q ->
      let limit = match until with None -> max_int | Some l -> (l :> int) in
      let budget = match max_events with None -> max_int | Some m -> m in
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
  | Some limit when Time.(t.clock < limit) ->
      let pending_before_horizon =
        match t.sched with
        | Heap q -> (
            match Event_queue.next_time q with
            | Some next -> Time.(next <= limit)
            | None -> false)
        | Cal q -> Calendar_queue.next_time_ns q <= (limit :> int)
        | Ctl q -> Controlled_queue.next_time_ns q <= (limit :> int)
      in
      if not pending_before_horizon then t.clock <- limit
  | Some _ | None -> ()

let events_processed t = t.fired

let next_time_ns t =
  match t.sched with
  | Heap q -> (
      match Event_queue.next_time q with
      | Some time -> (time :> int)
      | None -> max_int)
  | Cal q -> Calendar_queue.next_time_ns q
  | Ctl q -> Controlled_queue.next_time_ns q

type stats = { pending : int; fired : int }

let stats t =
  let pending =
    match t.sched with
    | Heap q -> Event_queue.live_count q
    | Cal q -> Calendar_queue.live_count q
    | Ctl q -> Controlled_queue.live_count q
  in
  { pending; fired = t.fired }

let calendar_buckets t =
  match t.sched with
  | Heap _ | Ctl _ -> 0
  | Cal q -> Calendar_queue.num_buckets q

let calendar_occupancy t =
  match t.sched with
  | Heap _ | Ctl _ -> 0.
  | Cal q ->
      let buckets = Calendar_queue.num_buckets q in
      if buckets = 0 then 0.
      else float_of_int (Calendar_queue.live_count q) /. float_of_int buckets

(* Replay a recorded workload through a fresh engine with no-op
   callbacks: pure scheduler cost, on the public scheduling API each
   mode actually pays (the heap path wraps its closure, the calendar
   path stores the pre-bound pair).  Schedule times are absolute and
   were recorded at or after the then-current clock, and pops happen at
   the same interleaving points, so the replayed clock never overtakes
   a recorded schedule time. *)
let replay_nop (_ : Obj.t) = ()
let replay_nop_unit () = ()

let replay_trace ~scheduler (tr : Trace.t) =
  let e = create ~scheduler () in
  let handles = Array.make (Stdlib.max 1 tr.Trace.len) none in
  let kinds = tr.Trace.kinds and vals = tr.Trace.vals in
  for k = 0 to tr.Trace.len - 1 do
    match Bytes.unsafe_get kinds k with
    | 's' ->
        (* Closure-free path: heap mode wraps, calendar stores the pair. *)
        handles.(k) <-
          at_fn e (Time.unsafe_of_ns vals.(k)) replay_nop (Obj.repr 0)
    | 'S' ->
        (* Closure path: both modes store the caller's closure as-is. *)
        handles.(k) <- at e (Time.unsafe_of_ns vals.(k)) replay_nop_unit
    | 'c' -> cancel e handles.(vals.(k))
    | _ -> ignore (step e)
  done;
  e.fired
