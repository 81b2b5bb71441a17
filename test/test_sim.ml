(* Tests for the simulation substrate: Time, Rng, Event_queue, Engine. *)

open Sim

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---- Time ---------------------------------------------------------- *)

let time_roundtrip () =
  check (Alcotest.float 1e-9) "sec roundtrip" 1.5 (Time.to_sec (Time.sec 1.5));
  check (Alcotest.float 1e-6) "ms roundtrip" 2.25 (Time.to_ms (Time.ms 2.25));
  check (Alcotest.float 1e-3) "us roundtrip" 7.5 (Time.to_us (Time.us 7.5));
  check Alcotest.int64 "ns exact" 42L (Time.to_ns (Time.ns 42L))

let time_arithmetic () =
  let a = Time.ms 3. and b = Time.ms 1. in
  check Alcotest.int64 "add" (Time.to_ns (Time.ms 4.))
    (Time.to_ns (Time.add a b));
  check Alcotest.int64 "diff" (Time.to_ns (Time.ms 2.))
    (Time.to_ns (Time.diff a b));
  check Alcotest.int64 "mul" (Time.to_ns (Time.ms 9.))
    (Time.to_ns (Time.mul a 3));
  check Alcotest.int64 "div" (Time.to_ns (Time.ms 1.))
    (Time.to_ns (Time.div a 3));
  check Alcotest.int64 "scale" (Time.to_ns (Time.ms 1.5))
    (Time.to_ns (Time.scale a 0.5))

let time_invalid () =
  Alcotest.check_raises "negative ns" (Invalid_argument "Time.ns: negative")
    (fun () -> ignore (Time.ns (-1L)));
  Alcotest.check_raises "negative diff"
    (Invalid_argument "Time.diff: negative result") (fun () ->
      ignore (Time.diff (Time.ms 1.) (Time.ms 2.)));
  let non_finite = Invalid_argument "Time: non-finite duration" in
  Alcotest.check_raises "sec infinity" non_finite (fun () ->
      ignore (Time.sec infinity));
  Alcotest.check_raises "sec nan" non_finite (fun () -> ignore (Time.sec nan))

let time_compare () =
  checkb "lt" true Time.(Time.ms 1. < Time.ms 2.);
  checkb "le eq" true Time.(Time.ms 1. <= Time.ms 1.);
  checkb "gt" true Time.(Time.sec 1. > Time.ms 999.);
  checkb "min" true (Time.equal (Time.min (Time.ms 1.) (Time.ms 2.)) (Time.ms 1.));
  checkb "max" true (Time.equal (Time.max (Time.ms 1.) (Time.ms 2.)) (Time.ms 2.))

let time_pp () =
  check Alcotest.string "ns" "500ns" (Time.to_string (Time.ns 500L));
  check Alcotest.string "us" "1.500us" (Time.to_string (Time.us 1.5));
  check Alcotest.string "ms" "2.000ms" (Time.to_string (Time.ms 2.));
  check Alcotest.string "s" "3.000s" (Time.to_string (Time.sec 3.))

(* ---- Rng ------------------------------------------------------------ *)

let rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr same
  done;
  checkb "different seeds diverge" true (!same = 0)

let rng_int_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Rng.int r 17 in
    checkb "in [0,17)" true (x >= 0 && x < 17)
  done

let rng_int_in_bounds () =
  let r = Rng.create 8 in
  for _ = 1 to 1_000 do
    let x = Rng.int_in r (-5) 5 in
    checkb "in [-5,5]" true (x >= -5 && x <= 5)
  done

let rng_float_bounds () =
  let r = Rng.create 9 in
  for _ = 1 to 10_000 do
    let x = Rng.float r 3.5 in
    checkb "in [0,3.5)" true (x >= 0. && x < 3.5)
  done

let rng_uniformity () =
  (* Chi-square-ish sanity: 10 buckets, 10k draws, each within 30% of
     expectation. *)
  let r = Rng.create 123 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let b = Rng.int r 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter (fun c -> checkb "bucket near 1000" true (c > 700 && c < 1300)) buckets

let rng_exponential_mean () =
  let r = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let x = Rng.exponential r 100. in
    checkb "positive" true (x > 0.);
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean near 100" true (mean > 95. && mean < 105.)

let rng_coin_probability () =
  let r = Rng.create 12 in
  let heads = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.coin r 0.3 then incr heads
  done;
  checkb "p=0.3 within 3 sigma" true (!heads > 2850 && !heads < 3150)

let rng_split_independence () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  (* The child's stream must not simply mirror the parent's. *)
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 parent) (Rng.bits64 child) then incr matches
  done;
  checkb "split streams differ" true (!matches = 0)

let rng_shuffle_permutes () =
  let r = Rng.create 99 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "same multiset" (Array.init 50 Fun.id) sorted

let rng_pick_member () =
  let r = Rng.create 3 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let x = Rng.pick r arr in
    checkb "member" true (Array.exists (( = ) x) arr)
  done

let rng_invalid () =
  let r = Rng.create 1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.int_in: empty range")
    (fun () -> ignore (Rng.int_in r 3 2))

(* ---- Event queue ---------------------------------------------------- *)

let queue_orders_by_time () =
  let q = Event_queue.create () in
  let order = ref [] in
  let note x () = order := x :: !order in
  ignore (Event_queue.schedule q (Time.ms 3.) (note 3));
  ignore (Event_queue.schedule q (Time.ms 1.) (note 1));
  ignore (Event_queue.schedule q (Time.ms 2.) (note 2));
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, f) ->
        f ();
        drain ()
    | None -> ()
  in
  drain ();
  check (Alcotest.list Alcotest.int) "time order" [ 1; 2; 3 ] (List.rev !order)

let queue_fifo_at_same_time () =
  let q = Event_queue.create () in
  let order = ref [] in
  for i = 1 to 20 do
    ignore (Event_queue.schedule q (Time.ms 1.) (fun () -> order := i :: !order))
  done;
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, f) ->
        f ();
        drain ()
    | None -> ()
  in
  drain ();
  check (Alcotest.list Alcotest.int) "insertion order"
    (List.init 20 (fun i -> i + 1))
    (List.rev !order)

let queue_cancel () =
  let q = Event_queue.create () in
  let fired = ref false in
  let h = Event_queue.schedule q (Time.ms 1.) (fun () -> fired := true) in
  Event_queue.cancel h;
  checkb "cancelled flag" true (Event_queue.is_cancelled h);
  checkb "empty after cancel" true (Event_queue.is_empty q);
  checkb "never fired" false !fired

let queue_cancel_among_others () =
  let q = Event_queue.create () in
  let seen = ref [] in
  let note x () = seen := x :: !seen in
  let _a = Event_queue.schedule q (Time.ms 1.) (note 1) in
  let b = Event_queue.schedule q (Time.ms 2.) (note 2) in
  let _c = Event_queue.schedule q (Time.ms 3.) (note 3) in
  Event_queue.cancel b;
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, f) ->
        f ();
        drain ()
    | None -> ()
  in
  drain ();
  check (Alcotest.list Alcotest.int) "b skipped" [ 1; 3 ] (List.rev !seen)

let queue_next_time () =
  let q = Event_queue.create () in
  checkb "empty" true (Event_queue.next_time q = None);
  ignore (Event_queue.schedule q (Time.ms 5.) ignore);
  (match Event_queue.next_time q with
  | Some t -> checkb "is 5ms" true (Time.equal t (Time.ms 5.))
  | None -> Alcotest.fail "expected an event");
  ignore (Event_queue.schedule q (Time.ms 2.) ignore);
  match Event_queue.next_time q with
  | Some t -> checkb "is 2ms now" true (Time.equal t (Time.ms 2.))
  | None -> Alcotest.fail "expected an event"

let queue_grows () =
  let q = Event_queue.create () in
  for i = 1 to 1000 do
    ignore (Event_queue.schedule q (Time.ms (float_of_int (1000 - i))) ignore)
  done;
  checki "live" 1000 (Event_queue.live_count q);
  (* Pops come out sorted despite reverse insertion. *)
  let rec drain last n =
    match Event_queue.pop q with
    | None -> n
    | Some (t, _) ->
        checkb "monotone" true Time.(t >= last);
        drain t (n + 1)
  in
  checki "all popped" 1000 (drain Time.zero 0)

(* qcheck: heap pops are sorted for arbitrary schedules. *)
let queue_sorted_prop =
  QCheck.Test.make ~name:"event_queue pops sorted" ~count:200
    QCheck.(list (int_bound 1_000_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter
        (fun ms -> ignore (Event_queue.schedule q (Time.us (float_of_int ms)) ignore))
        times;
      let rec drain last =
        match Event_queue.pop q with
        | None -> true
        | Some (t, _) -> Time.(t >= last) && drain t
      in
      drain Time.zero)

(* ---- Event_queue shrink ---------------------------------------------- *)

let queue_shrinks () =
  let q = Event_queue.create () in
  for i = 0 to 999 do
    ignore (Event_queue.schedule q (Time.us (float_of_int i)) ignore)
  done;
  checkb "grew past 1000" true (Event_queue.capacity q >= 1024);
  for _ = 1 to 990 do
    ignore (Event_queue.pop q)
  done;
  (* Halving chases occupancy down to the floor. *)
  checki "shrank to floor" 64 (Event_queue.capacity q);
  checki "survivors intact" 10 (Event_queue.live_count q)

(* ---- Calendar_queue --------------------------------------------------- *)

let calendar_orders_and_fifo () =
  let q = Calendar_queue.create () in
  let order = ref [] in
  let note i () = order := i :: !order in
  ignore (Calendar_queue.schedule q (Time.ms 3.) (note 3));
  ignore (Calendar_queue.schedule q (Time.ms 1.) (note 1));
  ignore (Calendar_queue.schedule q (Time.ms 1.) (note 11));
  ignore (Calendar_queue.schedule q (Time.ms 2.) (note 2));
  while Calendar_queue.pop_staged q max_int do
    Calendar_queue.run_staged q
  done;
  Alcotest.(check (list int)) "time order, FIFO ties" [ 1; 11; 2; 3 ]
    (List.rev !order)

let calendar_cancel_is_physical () =
  let q = Calendar_queue.create () in
  let h1 = Calendar_queue.schedule q (Time.ms 1.) ignore in
  let _h2 = Calendar_queue.schedule q (Time.ms 2.) ignore in
  checki "two live" 2 (Calendar_queue.live_count q);
  Calendar_queue.cancel q h1;
  checki "slot freed immediately" 1 (Calendar_queue.live_count q);
  Calendar_queue.cancel q h1;
  checki "double cancel no-op" 1 (Calendar_queue.live_count q);
  (* Cancel-heavy churn recycles slots instead of growing the pool —
     the MAC's ACK-timer pattern. *)
  let cap = Calendar_queue.capacity q in
  for i = 0 to 9_999 do
    let h = Calendar_queue.schedule q (Time.ms (float_of_int i)) ignore in
    Calendar_queue.cancel q h
  done;
  checki "pool did not grow" cap (Calendar_queue.capacity q);
  checki "churn left one event" 1 (Calendar_queue.live_count q)

let calendar_stale_handle_safe () =
  let q = Calendar_queue.create () in
  let h_old = Calendar_queue.schedule q (Time.ms 1.) ignore in
  checkb "popped" true (Calendar_queue.pop_staged q max_int);
  Calendar_queue.run_staged q;
  (* The next schedule recycles the fired slot; the old handle must not
     be able to kill its new occupant. *)
  ignore (Calendar_queue.schedule q (Time.ms 2.) ignore);
  Calendar_queue.cancel q h_old;
  checki "recycled slot untouched" 1 (Calendar_queue.live_count q)

let calendar_overflow_tier () =
  let q = Calendar_queue.create () in
  (* Events far beyond any initial year land in the overflow tier and
     still drain in global order. *)
  ignore (Calendar_queue.schedule q (Time.us 1.) ignore);
  ignore (Calendar_queue.schedule q (Time.sec 3600.) ignore);
  ignore (Calendar_queue.schedule q (Time.us 2.) ignore);
  ignore (Calendar_queue.schedule q (Time.sec 1800.) ignore);
  let ts = ref [] in
  while Calendar_queue.pop_staged q max_int do
    ts := Time.to_us (Calendar_queue.staged_time q) :: !ts;
    Calendar_queue.run_staged q
  done;
  Alcotest.(check (list (float 1e-6)))
    "sorted across tiers"
    [ 1.; 2.; 1_800_000_000.; 3_600_000_000. ]
    (List.rev !ts);
  (* Cancelling an overflow event also frees its slot immediately. *)
  let _near = Calendar_queue.schedule q (Time.us 1.) ignore in
  let far = Calendar_queue.schedule q (Time.sec 7200.) ignore in
  Calendar_queue.cancel q far;
  checki "overflow slot freed" 1 (Calendar_queue.live_count q)

let calendar_below_base () =
  let q = Calendar_queue.create () in
  (* First event anchors the calendar at 10 s; a later schedule at 1 s
     forces a re-anchor instead of a negative bucket. *)
  ignore (Calendar_queue.schedule q (Time.sec 10.) ignore);
  ignore (Calendar_queue.schedule q (Time.sec 1.) ignore);
  checkb "popped" true (Calendar_queue.pop_staged q max_int);
  Alcotest.(check (float 1e-9)) "earlier event first" 1.
    (Time.to_sec (Calendar_queue.staged_time q));
  Calendar_queue.run_staged q;
  checkb "popped" true (Calendar_queue.pop_staged q max_int);
  Alcotest.(check (float 1e-9)) "anchor event second" 10.
    (Time.to_sec (Calendar_queue.staged_time q))

(* Large random workload: resizes up and down, overflow migration,
   same-time ties — the drain must come out in (time, schedule-order). *)
let calendar_drains_sorted () =
  let q = Calendar_queue.create () in
  let rng = Rng.create 42 in
  let n = 10_000 in
  let times =
    Array.init n (fun _ ->
        if Rng.int rng 20 = 0 then Time.sec (float_of_int (Rng.int rng 3600))
        else Time.us (float_of_int (Rng.int rng 2_000)))
  in
  let popped = ref [] in
  Array.iteri
    (fun i tm ->
      ignore (Calendar_queue.schedule q tm (fun () -> popped := i :: !popped)))
    times;
  while Calendar_queue.pop_staged q max_int do
    Calendar_queue.run_staged q
  done;
  checkb "drained" true (Calendar_queue.is_empty q);
  let order = List.rev !popped in
  checki "all fired" n (List.length order);
  let last_t = ref (-1) and last_i = ref (-1) in
  List.iter
    (fun i ->
      let t = (times.(i) :> int) in
      checkb "sorted with FIFO ties" true
        (t > !last_t || (t = !last_t && i > !last_i));
      last_t := t;
      last_i := i)
    order

(* ---- Engine: heap vs calendar differential --------------------------- *)

let engine_none_handle () =
  let e = Engine.create () in
  checkb "none is none" true (Engine.is_none Engine.none);
  Engine.cancel e Engine.none;
  let h = Engine.at e (Time.ms 1.) ignore in
  checkb "real handle is not none" false (Engine.is_none h)

let fire_tag (tag, fired) = fired := tag :: !fired

(* Drive both schedulers through the public Engine API with the same
   random program of schedules (closure and closure-free paths, near
   and far-future delays with heavy ties), cancels (including repeats
   on the same handle) and single-event runs, then drain.  Firing
   order — including same-time FIFO ties — clock and event count must
   agree exactly. *)
let engine_modes_agree_prop =
  QCheck.Test.make ~name:"heap and calendar engines fire identically"
    ~count:100
    QCheck.(list (pair (int_bound 3) (int_bound 1_000_000)))
    (fun ops ->
      let trace scheduler =
        let e = Engine.create ~scheduler () in
        let fired = ref [] in
        let handles = ref [] in
        let tag = ref 0 in
        List.iter
          (fun (op, x) ->
            match op with
            | 0 | 1 ->
                let t = !tag in
                incr tag;
                let d =
                  if x mod 7 = 0 then Time.sec (float_of_int (x mod 5))
                  else Time.us (float_of_int (x mod 300))
                in
                let h =
                  if op = 0 then
                    Engine.after e d (fun () -> fired := t :: !fired)
                  else Engine.after_fn e d fire_tag (t, fired)
                in
                handles := h :: !handles
            | 2 -> (
                match !handles with
                | [] -> ()
                | hs -> Engine.cancel e (List.nth hs (x mod List.length hs)))
            | _ -> Engine.run ~max_events:(Engine.events_processed e + 1) e)
          ops;
        Engine.run e;
        (List.rev !fired, Engine.now e, Engine.events_processed e)
      in
      trace `Heap = trace `Calendar)

(* The controlled scheduler left to Engine.run pops the global
   (time, seq) minimum — mcheck's claim that an unexplored simulation
   has stock semantics.  Same random program shape as above, plus
   floating events (which degrade to at-now under the calendar), must
   agree event-for-event: firing order, clock, event count. *)
let controlled_default_matches_calendar_prop =
  QCheck.Test.make
    ~name:"controlled scheduler default order matches calendar" ~count:100
    QCheck.(list (pair (int_bound 4) (int_bound 1_000_000)))
    (fun ops ->
      let trace scheduler =
        let e = Engine.create ~scheduler () in
        let fired = ref [] in
        let handles = ref [] in
        let tag = ref 0 in
        List.iter
          (fun (op, x) ->
            match op with
            | 0 | 1 ->
                let t = !tag in
                incr tag;
                let d =
                  if x mod 7 = 0 then Time.sec (float_of_int (x mod 5))
                  else Time.us (float_of_int (x mod 300))
                in
                let h =
                  if op = 0 then
                    Engine.after e d (fun () -> fired := t :: !fired)
                  else Engine.after_fn e d fire_tag (t, fired)
                in
                handles := h :: !handles
            | 2 ->
                let t = !tag in
                incr tag;
                handles :=
                  Engine.schedule_floating e ~tag:(t mod 5)
                    ~label:(string_of_int t) (fun () -> fired := t :: !fired)
                  :: !handles
            | 3 -> (
                match !handles with
                | [] -> ()
                | hs -> Engine.cancel e (List.nth hs (x mod List.length hs)))
            | _ -> Engine.run ~max_events:(Engine.events_processed e + 1) e)
          ops;
        Engine.run e;
        (List.rev !fired, Engine.now e, Engine.events_processed e)
      in
      trace `Calendar = trace `Controlled)

(* ---- Engine ---------------------------------------------------------- *)

let engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.at e (Time.ms 2.) (fun () -> log := (2, Engine.now e) :: !log));
  ignore (Engine.at e (Time.ms 1.) (fun () -> log := (1, Engine.now e) :: !log));
  Engine.run e;
  (match List.rev !log with
  | [ (1, t1); (2, t2) ] ->
      checkb "clock at 1ms" true (Time.equal t1 (Time.ms 1.));
      checkb "clock at 2ms" true (Time.equal t2 (Time.ms 2.))
  | _ -> Alcotest.fail "wrong order");
  checki "2 events" 2 (Engine.events_processed e)

let engine_after_relative () =
  let e = Engine.create () in
  let at = ref Time.zero in
  ignore
    (Engine.at e (Time.ms 10.) (fun () ->
         ignore (Engine.after e (Time.ms 5.) (fun () -> at := Engine.now e))));
  Engine.run e;
  checkb "fires at 15ms" true (Time.equal !at (Time.ms 15.))

let engine_no_past_scheduling () =
  let e = Engine.create () in
  ignore
    (Engine.at e (Time.ms 10.) (fun () ->
         try
           ignore (Engine.at e (Time.ms 5.) ignore);
           Alcotest.fail "expected Invalid_argument"
         with Invalid_argument _ -> ()));
  Engine.run e

let engine_until_horizon () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.at e (Time.ms (float_of_int i)) (fun () -> incr count))
  done;
  Engine.run ~until:(Time.ms 5.) e;
  checki "only first 5 fired" 5 !count

let engine_idle_time_passes () =
  let e = Engine.create () in
  Engine.run ~until:(Time.sec 3.) e;
  checkb "clock advanced through idle run" true
    (Time.equal (Engine.now e) (Time.sec 3.));
  (* Scheduling relative to the advanced clock works. *)
  let fired = ref Time.zero in
  ignore (Engine.after e (Time.sec 1.) (fun () -> fired := Engine.now e));
  Engine.run e;
  checkb "fires at 4s" true (Time.equal !fired (Time.sec 4.))

let engine_max_events () =
  let e = Engine.create () in
  (* A self-perpetuating event chain must be stopped by the budget. *)
  let rec arm () = ignore (Engine.after e (Time.ms 1.) (fun () -> arm ())) in
  arm ();
  Engine.run ~max_events:50 e;
  checki "stopped at budget" 50 (Engine.events_processed e)

let engine_budget_keeps_clock_monotone () =
  (* Exhausting [max_events] with events still due before the horizon
     must not fast-forward the clock past them: a resumed run would then
     observe time moving backwards. *)
  let e = Engine.create () in
  let fired = ref [] in
  for i = 1 to 10 do
    ignore
      (Engine.at e (Time.ms (float_of_int i)) (fun () ->
           fired := Engine.now e :: !fired))
  done;
  Engine.run ~until:(Time.ms 20.) ~max_events:5 e;
  checkb "clock held at last fired event" true
    (Time.equal (Engine.now e) (Time.ms 5.));
  (* Resume: the remaining events fire at their own times, monotonically,
     and only then does idle time fast-forward to the horizon. *)
  Engine.run ~until:(Time.ms 20.) e;
  let times = List.rev !fired in
  checki "all ten fired" 10 (List.length times);
  let rec monotone last = function
    | [] -> true
    | t :: rest -> Time.(t >= last) && monotone t rest
  in
  checkb "firing times monotone across resume" true (monotone Time.zero times);
  checkb "horizon reached after resume" true
    (Time.equal (Engine.now e) (Time.ms 20.))

let engine_budget_on_empty_queue_still_fast_forwards () =
  let e = Engine.create () in
  ignore (Engine.at e (Time.ms 1.) ignore);
  Engine.run ~until:(Time.ms 10.) ~max_events:5 e;
  checkb "no pending work: clock reaches horizon" true
    (Time.equal (Engine.now e) (Time.ms 10.))

let engine_every_rejects_nonpositive_interval () =
  let e = Engine.create () in
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Engine.every: interval must be positive") (fun () ->
      Engine.every e ~start:Time.zero ~interval:Time.zero ~until:(Time.ms 10.)
        ignore)

let engine_every_jitter_respects_horizon () =
  (* Pre-jitter times 0,5,10,15 are all before the 20 ms horizon, but a
     7 ms jitter would push the last firing to 22 ms: it must be
     skipped, not fired beyond [until]. *)
  let e = Engine.create () in
  let times = ref [] in
  Engine.every e
    ~jitter:(fun () -> Time.ms 7.)
    ~start:Time.zero ~interval:(Time.ms 5.) ~until:(Time.ms 20.) (fun () ->
      times := Engine.now e :: !times);
  Engine.run e;
  checki "three firings" 3 (List.length !times);
  List.iter
    (fun t -> checkb "firing before horizon" true Time.(t < Time.ms 20.))
    !times

let engine_every () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.every e ~start:(Time.ms 10.) ~interval:(Time.ms 10.)
    ~until:(Time.ms 55.) (fun () -> incr count);
  Engine.run e;
  checki "ticks at 10..50" 5 !count

let engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.at e (Time.ms 1.) (fun () -> fired := true) in
  Engine.cancel e h;
  Engine.run e;
  checkb "cancelled" false !fired

let engine_determinism () =
  (* Two engines with the same seed driving the same random workload
     produce identical event counts and final clocks. *)
  let run () =
    let e = Engine.create ~seed:77 () in
    let r = Engine.rng e in
    let total = ref 0L in
    for _ = 1 to 100 do
      let d = Time.us (float_of_int (1 + Rng.int r 1000)) in
      ignore
        (Engine.after e d (fun () ->
             total := Int64.add !total (Time.to_ns (Engine.now e))))
    done;
    Engine.run e;
    !total
  in
  check Alcotest.int64 "same totals" (run ()) (run ())

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "time",
        [
          Alcotest.test_case "roundtrip" `Quick time_roundtrip;
          Alcotest.test_case "arithmetic" `Quick time_arithmetic;
          Alcotest.test_case "invalid" `Quick time_invalid;
          Alcotest.test_case "compare" `Quick time_compare;
          Alcotest.test_case "pp" `Quick time_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick rng_int_in_bounds;
          Alcotest.test_case "float bounds" `Quick rng_float_bounds;
          Alcotest.test_case "uniformity" `Quick rng_uniformity;
          Alcotest.test_case "exponential mean" `Quick rng_exponential_mean;
          Alcotest.test_case "coin probability" `Quick rng_coin_probability;
          Alcotest.test_case "split independence" `Quick rng_split_independence;
          Alcotest.test_case "shuffle permutes" `Quick rng_shuffle_permutes;
          Alcotest.test_case "pick member" `Quick rng_pick_member;
          Alcotest.test_case "invalid args" `Quick rng_invalid;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "orders by time" `Quick queue_orders_by_time;
          Alcotest.test_case "fifo at same time" `Quick queue_fifo_at_same_time;
          Alcotest.test_case "cancel" `Quick queue_cancel;
          Alcotest.test_case "cancel among others" `Quick queue_cancel_among_others;
          Alcotest.test_case "next_time" `Quick queue_next_time;
          Alcotest.test_case "grows" `Quick queue_grows;
          Alcotest.test_case "shrinks" `Quick queue_shrinks;
          qt queue_sorted_prop;
        ] );
      ( "calendar_queue",
        [
          Alcotest.test_case "orders and fifo" `Quick calendar_orders_and_fifo;
          Alcotest.test_case "cancel is physical" `Quick
            calendar_cancel_is_physical;
          Alcotest.test_case "stale handle safe" `Quick
            calendar_stale_handle_safe;
          Alcotest.test_case "overflow tier" `Quick calendar_overflow_tier;
          Alcotest.test_case "below base reanchors" `Quick calendar_below_base;
          Alcotest.test_case "drains sorted" `Quick calendar_drains_sorted;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs in order" `Quick engine_runs_in_order;
          Alcotest.test_case "after is relative" `Quick engine_after_relative;
          Alcotest.test_case "no past scheduling" `Quick engine_no_past_scheduling;
          Alcotest.test_case "until horizon" `Quick engine_until_horizon;
          Alcotest.test_case "idle time passes" `Quick engine_idle_time_passes;
          Alcotest.test_case "max events" `Quick engine_max_events;
          Alcotest.test_case "budget keeps clock monotone" `Quick
            engine_budget_keeps_clock_monotone;
          Alcotest.test_case "budget with drained queue fast-forwards" `Quick
            engine_budget_on_empty_queue_still_fast_forwards;
          Alcotest.test_case "every" `Quick engine_every;
          Alcotest.test_case "every rejects zero interval" `Quick
            engine_every_rejects_nonpositive_interval;
          Alcotest.test_case "every jitter respects horizon" `Quick
            engine_every_jitter_respects_horizon;
          Alcotest.test_case "cancel" `Quick engine_cancel;
          Alcotest.test_case "none handle" `Quick engine_none_handle;
          Alcotest.test_case "determinism" `Quick engine_determinism;
          qt engine_modes_agree_prop;
          qt controlled_default_matches_calendar_prop;
        ] );
    ]
