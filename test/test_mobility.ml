(* Tests for the mobility models. *)

open Sim

let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-6)

let terrain = Geom.Terrain.create ~width:1000. ~height:500.

let static_never_moves () =
  let p = Geom.Vec2.v 10. 20. in
  let m = Mobility.static p in
  List.iter
    (fun t -> checkb "same spot" true (Geom.Vec2.equal p (Mobility.position m (Time.sec t))))
    [ 0.; 1.; 100.; 10_000. ]

let waypoint_stays_in_terrain () =
  let rng = Rng.create 42 in
  for _ = 1 to 10 do
    let start = Geom.Terrain.random_point terrain rng in
    let m =
      Mobility.waypoint ~terrain ~rng:(Rng.split rng) ~speed_min:1.
        ~speed_max:20. ~pause:(Time.sec 5.) ~start
    in
    for t = 0 to 500 do
      let p = Mobility.position m (Time.sec (float_of_int t)) in
      checkb "inside terrain" true (Geom.Terrain.contains terrain p)
    done
  done

let waypoint_respects_speed () =
  let rng = Rng.create 7 in
  let start = Geom.Vec2.v 500. 250. in
  let m =
    Mobility.waypoint ~terrain ~rng ~speed_min:1. ~speed_max:20.
      ~pause:(Time.sec 0.001) ~start
  in
  (* Displacement over any dt cannot exceed max speed x dt. *)
  let prev = ref (Mobility.position m Time.zero) in
  let dt = 0.5 in
  for i = 1 to 2000 do
    let p = Mobility.position m (Time.sec (dt *. float_of_int i)) in
    let moved = Geom.Vec2.dist !prev p in
    checkb "bounded speed" true (moved <= (20. *. dt) +. 1e-6);
    prev := p
  done

let waypoint_pauses () =
  let rng = Rng.create 9 in
  let start = Geom.Vec2.v 100. 100. in
  let m =
    Mobility.waypoint ~terrain ~rng ~speed_min:5. ~speed_max:5.
      ~pause:(Time.sec 10.) ~start
  in
  (* During the initial pause the node sits still. *)
  let p0 = Mobility.position m Time.zero in
  let p5 = Mobility.position m (Time.sec 5.) in
  let p9 = Mobility.position m (Time.sec 9.9) in
  checkb "paused at 5s" true (Geom.Vec2.equal p0 p5);
  checkb "paused at 9.9s" true (Geom.Vec2.equal p0 p9)

let waypoint_eventually_moves () =
  let rng = Rng.create 10 in
  let start = Geom.Vec2.v 100. 100. in
  let m =
    Mobility.waypoint ~terrain ~rng ~speed_min:5. ~speed_max:10.
      ~pause:(Time.sec 1.) ~start
  in
  let p = Mobility.position m (Time.sec 60.) in
  checkb "moved by 60s" false (Geom.Vec2.equal p start)

(* Re-queries (see the .mli): same-leg re-queries are exact, and any
   query before the current leg's departure raises, however close. *)
let monotonicity_enforced () =
  let rng = Rng.create 11 in
  let m =
    Mobility.waypoint ~terrain ~rng ~speed_min:1. ~speed_max:2.
      ~pause:(Time.sec 1.) ~start:(Geom.Vec2.v 0. 0.)
  in
  (* Advance well into a motion leg (pause ends at 1s, legs are tens of
     seconds at 1-2 m/s), then re-query earlier inside the same leg. *)
  let p10 = Mobility.position m (Time.sec 10.) in
  let p5 = Mobility.position m (Time.sec 5.) in
  let p10' = Mobility.position m (Time.sec 10.) in
  checkb "same-leg re-query exact" true (Geom.Vec2.equal p10 p10');
  checkb "re-query differs mid-leg" false (Geom.Vec2.equal p5 p10);
  (* Forward progress still works after a backwards excursion. *)
  ignore (Mobility.position m (Time.sec 12.));
  let before_leg =
    Invalid_argument "Mobility.position: query precedes the current leg"
  in
  (* The motion leg departs at 1 s (end of the first pause). *)
  Alcotest.check_raises "just before the leg raises" before_leg (fun () ->
      ignore (Mobility.position m (Time.ms 999.5)));
  Alcotest.check_raises "query before the leg raises" before_leg (fun () ->
      ignore (Mobility.position m (Time.sec 0.5)))

(* The struct-of-arrays store answers with the record path's values
   and the same re-query rule: same-leg re-queries are exact, and any
   query before the current leg raises without touching the store. *)
let store_backtrack_checked () =
  let mk () =
    Mobility.waypoint ~terrain ~rng:(Rng.create 11) ~speed_min:1.
      ~speed_max:2. ~pause:(Time.sec 1.) ~start:(Geom.Vec2.v 0. 0.)
  in
  let m = mk () in
  let s = Mobility.Pos_store.of_array [| mk () |] ~at:Time.zero in
  let same t =
    Geom.Vec2.equal (Mobility.position m t) (Mobility.Pos_store.position s 0 t)
  in
  checkb "store = record at 10s" true (same (Time.sec 10.));
  checkb "same-leg re-query exact" true (same (Time.sec 5.));
  checkb "forward again" true (same (Time.sec 12.));
  let before_leg =
    Invalid_argument "Mobility.Pos_store.refresh: query precedes the current leg"
  in
  (* The motion leg departs at 1 s (end of the first pause). *)
  Alcotest.check_raises "just before the leg raises" before_leg (fun () ->
      Mobility.Pos_store.refresh s 0 (Time.ms 999.5));
  Alcotest.check_raises "query before the leg raises" before_leg (fun () ->
      Mobility.Pos_store.refresh s 0 (Time.sec 0.5));
  checkb "state intact after the rejected query" true (same (Time.sec 12.))

let scripted_follows_waypoints () =
  let m =
    Mobility.scripted
      [
        (Time.sec 0., Geom.Vec2.v 0. 0.);
        (Time.sec 10., Geom.Vec2.v 100. 0.);
        (Time.sec 20., Geom.Vec2.v 100. 100.);
      ]
  in
  let p = Mobility.position m (Time.sec 5.) in
  checkf "halfway x" 50. p.Geom.Vec2.x;
  checkf "halfway y" 0. p.Geom.Vec2.y;
  let q = Mobility.position m (Time.sec 15.) in
  checkf "second leg x" 100. q.Geom.Vec2.x;
  checkf "second leg y" 50. q.Geom.Vec2.y;
  let r = Mobility.position m (Time.sec 100.) in
  checkb "constant after last" true (Geom.Vec2.equal r (Geom.Vec2.v 100. 100.))

let scripted_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Mobility.scripted: empty trajectory")
    (fun () -> ignore (Mobility.scripted []));
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Mobility.scripted: times must increase") (fun () ->
      ignore
        (Mobility.scripted
           [ (Time.sec 5., Geom.Vec2.zero); (Time.sec 5., Geom.Vec2.zero) ]))

let waypoint_validation () =
  Alcotest.check_raises "bad speeds"
    (Invalid_argument "Mobility.waypoint: need 0 < speed_min <= speed_max")
    (fun () ->
      ignore
        (Mobility.waypoint ~terrain ~rng:(Rng.create 1) ~speed_min:0.
           ~speed_max:5. ~pause:Time.zero ~start:Geom.Vec2.zero))

(* ---- Manhattan-grid mobility ------------------------------------------ *)

let on_lattice ~spacing p =
  let near v = Float.rem v spacing < 1e-6 || spacing -. Float.rem v spacing < 1e-6 in
  near p.Geom.Vec2.x || near p.Geom.Vec2.y

let manhattan_on_streets () =
  let spacing = 100. in
  let rng = Rng.create 21 in
  let m =
    Mobility.manhattan ~terrain ~rng ~spacing ~speed_min:5. ~speed_max:15.
      ~pause:Time.zero ~start:(Geom.Vec2.v 333. 212.)
  in
  (* Every position lies on a street: one coordinate is (nearly) a
     multiple of the spacing. *)
  for t = 0 to 400 do
    let p = Mobility.position m (Time.sec (float_of_int t)) in
    checkb "inside terrain" true (Geom.Terrain.contains terrain p);
    checkb "on a street" true (on_lattice ~spacing p)
  done

let manhattan_speed_bound () =
  let rng = Rng.create 22 in
  let m =
    Mobility.manhattan ~terrain ~rng ~spacing:50. ~speed_min:1. ~speed_max:10.
      ~pause:Time.zero ~start:(Geom.Vec2.v 500. 250.)
  in
  let prev = ref (Mobility.position m Time.zero) in
  let dt = 0.5 in
  for i = 1 to 1000 do
    let p = Mobility.position m (Time.sec (dt *. float_of_int i)) in
    checkb "bounded speed" true (Geom.Vec2.dist !prev p <= (10. *. dt) +. 1e-6);
    prev := p
  done

let manhattan_moves () =
  let rng = Rng.create 23 in
  let start = Geom.Vec2.v 200. 200. in
  let m =
    Mobility.manhattan ~terrain ~rng ~spacing:100. ~speed_min:5. ~speed_max:5.
      ~pause:Time.zero ~start
  in
  checkb "moved by 60s" false
    (Geom.Vec2.equal (Mobility.position m (Time.sec 60.)) start)

(* ---- RPGM group mobility ----------------------------------------------- *)

let rpgm_members_cohere () =
  let rng = Rng.create 31 in
  let radius = 40. in
  let g =
    Mobility.rpgm_group ~terrain ~rng:(Rng.split rng) ~speed_min:2.
      ~speed_max:10. ~pause:(Time.sec 1.) ~start:(Geom.Vec2.v 500. 250.)
  in
  let members =
    List.map
      (fun (ox, oy) -> Mobility.rpgm_member g ~ox ~oy)
      [ (0., 0.); (radius, 0.); (0., -.radius); (-20., 30.) ]
  in
  (* Members stay within the offset radius of each other (the group
     centre is shared), up to terrain clamping, and inside the arena. *)
  for t = 0 to 200 do
    let time = Time.sec (float_of_int t) in
    let ps = List.map (fun m -> Mobility.position m time) members in
    List.iter
      (fun p -> checkb "member inside terrain" true (Geom.Terrain.contains terrain p))
      ps;
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            checkb "group coheres" true (Geom.Vec2.dist a b <= (2. *. radius) +. 1e-6))
          ps)
      ps
  done

let rpgm_out_of_order_members () =
  (* Two members of one group queried at different times: the shared
     centre's legs are memoized, so neither query perturbs the other. *)
  let rng = Rng.create 32 in
  let g =
    Mobility.rpgm_group ~terrain ~rng ~speed_min:5. ~speed_max:10.
      ~pause:Time.zero ~start:(Geom.Vec2.v 100. 100.)
  in
  let a = Mobility.rpgm_member g ~ox:10. ~oy:0. in
  let b = Mobility.rpgm_member g ~ox:10. ~oy:0. in
  (* advance [a] far ahead, then query [b] from the start *)
  let pa60 = Mobility.position a (Time.sec 60.) in
  let pb10 = Mobility.position b (Time.sec 10.) in
  let pb60 = Mobility.position b (Time.sec 60.) in
  checkb "same offset, same position at 60s" true (Geom.Vec2.equal pa60 pb60);
  checkb "b's early query answered" true (Geom.Terrain.contains terrain pb10)

(* qcheck: waypoint containment for arbitrary seeds and query sequences. *)
let waypoint_contained_prop =
  QCheck.Test.make ~name:"waypoint always inside terrain" ~count:50
    QCheck.(pair small_int (list_of_size (QCheck.Gen.return 100) (float_bound_inclusive 10.)))
    (fun (seed, dts) ->
      let rng = Rng.create seed in
      let m =
        Mobility.waypoint ~terrain ~rng ~speed_min:1. ~speed_max:20.
          ~pause:(Time.sec 2.) ~start:(Geom.Terrain.random_point terrain rng)
      in
      let t = ref Time.zero in
      List.for_all
        (fun dt ->
          t := Time.add !t (Time.sec dt);
          Geom.Terrain.contains terrain (Mobility.position m !t))
        dts)

(* A random process of mobility family [family] (0 static, 1 waypoint,
   2 Manhattan, 3 scripted, 4 RPGM member), drawn from [rng] alone, so
   equal seeds build equal processes. *)
let random_process rng family =
  let speed () = 0.5 +. Rng.float rng 40. in
  let point () = Geom.Terrain.random_point terrain rng in
  let lo = speed () in
  let hi = lo +. Rng.float rng 20. in
  let pause = Time.sec (Rng.float rng 2.) in
  match family with
  | 0 -> Mobility.static (point ())
  | 1 ->
      Mobility.waypoint ~terrain ~rng ~speed_min:lo ~speed_max:hi ~pause
        ~start:(point ())
  | 2 ->
      Mobility.manhattan ~terrain ~rng
        ~spacing:(20. +. Rng.float rng 200.)
        ~speed_min:lo ~speed_max:hi ~pause ~start:(point ())
  | 3 ->
      let at = ref 0. in
      Mobility.scripted
        (List.init
           (1 + Rng.int rng 6)
           (fun _ ->
             at := !at +. 0.01 +. Rng.float rng 20.;
             (Time.sec !at, point ())))
  | _ ->
      (* Offsets up to the terrain's size, so members clamp. *)
      let g =
        Mobility.rpgm_group ~terrain ~rng ~speed_min:lo ~speed_max:hi ~pause
          ~start:(point ())
      in
      Mobility.rpgm_member g
        ~ox:(Rng.float rng 2000. -. 1000.)
        ~oy:(Rng.float rng 1000. -. 500.)

(* qcheck: [max_speed] bounds every move, which the channel trusts to
   age its neighbour lists.  A random process of each family is sampled
   through the position store (the channel's view) at random increasing
   times, some a few ms apart and some several legs apart; no step
   covers more than [max_speed * dt], up to float rounding. *)
let max_speed_bounds_moves_prop =
  QCheck.Test.make ~name:"max_speed bounds every move" ~count:300
    QCheck.(
      triple small_int (int_bound 4)
        (list_of_size (QCheck.Gen.return 200) (float_bound_inclusive 3.)))
    (fun (seed, family, dts) ->
      let rng = Rng.create (seed + 1) in
      let m = random_process rng family in
      let v = Mobility.max_speed m in
      let s = Mobility.Pos_store.of_array [| m |] ~at:Time.zero in
      let t = ref Time.zero in
      let prev = ref (Mobility.Pos_store.position s 0 Time.zero) in
      v >= 0.
      && List.for_all
           (fun dt ->
             (* Half the steps are ms-scale, inside one leg. *)
             let dt = if Rng.bool rng then dt /. 1000. else dt in
             let t' = Time.add !t (Time.sec dt) in
             let p = Mobility.Pos_store.position s 0 t' in
             let span = Time.to_sec (Time.diff t' !t) in
             let ok =
               Geom.Vec2.dist !prev p <= (v *. span *. (1. +. 1e-9)) +. 1e-6
             in
             t := t';
             prev := p;
             ok)
           dts)

(* qcheck: the batch refresh the channel's candidate scan makes is the
   per-slot refresh, bit for bit.  Three copies of one random world,
   every family present: at random increasing instants a random list of
   slots (repeats allowed, ms- and leg-scale gaps) goes through
   [refresh_slots] on one store and slot by slot through [refresh] on
   another, and the record processes of the third are queried with
   [Mobility.position] (which derives each leg's duration afresh, where
   the store caches it per leg).  All three agree on every bit of every
   coordinate. *)
let refresh_slots_prop =
  QCheck.Test.make ~name:"batch refresh = per-slot refresh" ~count:100
    QCheck.small_int (fun seed ->
      let k = 12 in
      let world () =
        let rng = Rng.create (seed + 1) in
        Array.init k (fun i -> random_process (Rng.split rng) (i mod 5))
      in
      let batch = Mobility.Pos_store.of_array (world ()) ~at:Time.zero in
      let single = Mobility.Pos_store.of_array (world ()) ~at:Time.zero in
      let record = world () in
      let bits a i = Int64.bits_of_float a.(i) in
      let same s i =
        bits (Mobility.Pos_store.xs s) i = bits (Mobility.Pos_store.xs batch) i
        && bits (Mobility.Pos_store.ys s) i
           = bits (Mobility.Pos_store.ys batch) i
      in
      let rng = Rng.create (seed + 7) in
      let t = ref Time.zero and ok = ref true in
      for _ = 1 to 60 do
        let dt = Rng.float rng 3. in
        t := Time.add !t (Time.sec (if Rng.bool rng then dt /. 1000. else dt));
        let n = Rng.int rng (k + 4) in
        let slots = Array.init (n + Rng.int rng 3) (fun _ -> Rng.int rng k) in
        Mobility.Pos_store.refresh_slots batch slots n !t;
        for j = 0 to n - 1 do
          let i = slots.(j) in
          Mobility.Pos_store.refresh single i !t;
          let p = Mobility.position record.(i) !t in
          if
            not
              (same single i
              && Int64.bits_of_float p.Geom.Vec2.x
                 = bits (Mobility.Pos_store.xs batch) i
              && Int64.bits_of_float p.Geom.Vec2.y
                 = bits (Mobility.Pos_store.ys batch) i)
          then ok := false
        done;
        for i = 0 to k - 1 do
          if not (same single i) then ok := false
        done
      done;
      !ok)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "mobility"
    [
      ( "models",
        [
          Alcotest.test_case "static" `Quick static_never_moves;
          Alcotest.test_case "waypoint stays inside" `Quick waypoint_stays_in_terrain;
          Alcotest.test_case "waypoint speed bound" `Quick waypoint_respects_speed;
          Alcotest.test_case "waypoint pauses" `Quick waypoint_pauses;
          Alcotest.test_case "waypoint moves" `Quick waypoint_eventually_moves;
          Alcotest.test_case "monotone queries" `Quick monotonicity_enforced;
          Alcotest.test_case "store re-query tolerance" `Quick
            store_backtrack_checked;
          Alcotest.test_case "scripted" `Quick scripted_follows_waypoints;
          Alcotest.test_case "scripted validation" `Quick scripted_validation;
          Alcotest.test_case "waypoint validation" `Quick waypoint_validation;
          qt waypoint_contained_prop;
          qt max_speed_bounds_moves_prop;
          qt refresh_slots_prop;
        ] );
      ( "manhattan",
        [
          Alcotest.test_case "stays on streets" `Quick manhattan_on_streets;
          Alcotest.test_case "speed bound" `Quick manhattan_speed_bound;
          Alcotest.test_case "moves" `Quick manhattan_moves;
        ] );
      ( "rpgm",
        [
          Alcotest.test_case "group coheres" `Quick rpgm_members_cohere;
          Alcotest.test_case "out-of-order members" `Quick rpgm_out_of_order_members;
        ] );
    ]
